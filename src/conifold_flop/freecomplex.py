"""Complexes of free modules over the truncated Jacobi algebra.

A FreeComplex carries graded generators, each with a vertex, a
homological degree (the differential raises it by one) and an internal
degree (path length).  A differential entry from an input generator g to
an output generator h is a free-path element whose words run from the
vertex of h to the vertex of g; rows are internally homogeneous.

Tensoring with the length-truncated algebra gives, for every internal
degree s <= cutoff, an exact slice of the untruncated complex (products
of total length within the cutoff never truncate), so kernels, images and
minimal syzygies computed per slice are the genuine ones as long as s
stays below the truncation boundary.  Cohomology comes out as a
representation of the quiver: classes graded by target vertex, arrows
acting by postcomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .paths import SRC, TGT, FreePathElement
from .truncated import TruncatedAlgebra, truncated_algebra


@dataclass(frozen=True)
class FCGen:
    name: str
    vertex: int
    degree: int
    internal: int


class FreeComplex:
    """Generators plus differential rows d(g) = sum coeff * h."""

    def __init__(self, gens, diff):
        self.gens = tuple(gens)
        self.by_name = {g.name: g for g in self.gens}
        if len(self.by_name) != len(self.gens):
            raise ValueError("generator names must be unique")
        self.diff = {g.name: tuple(diff.get(g.name, ())) for g in self.gens}
        for name, entries in self.diff.items():
            gin = self.by_name[name]
            for coeff, out_name in entries:
                gout = self.by_name[out_name]
                if gout.degree != gin.degree + 1:
                    raise ValueError("differential must raise degree by 1 (%s -> %s)" % (name, out_name))
                for word in coeff.coeffs:
                    if SRC[word[-1]] != gout.vertex or TGT[word[0]] != gin.vertex:
                        raise ValueError("entry %r has wrong grading on %s -> %s" % (word, name, out_name))
                    if gin.internal != gout.internal + len(word):
                        raise ValueError("entry %r breaks internal grading on %s -> %s" % (word, name, out_name))

    def degrees(self):
        return sorted({g.degree for g in self.gens})

    def gens_of_degree(self, k):
        return [g for g in self.gens if g.degree == k]

    def d_squared_entries(self):
        """Symbolic d o d, as a dict (input name, final output name) -> element."""
        out = {}
        for name, entries in self.diff.items():
            for c1, mid in entries:
                for c2, end in self.diff[mid]:
                    key = (name, end)
                    acc = out.get(key, FreePathElement())
                    out[key] = acc + c1 * c2
        return {k: v for k, v in out.items() if not v.is_zero()}


def d_squared_ideal_check(fc: FreeComplex, cutoff: int) -> bool:
    """Every entry of d o d reduces to zero in the truncated algebra."""
    if cutoff < 6:
        raise ValueError("cutoff must be at least 6")
    A = truncated_algebra(cutoff)
    return all(A.is_zero(e) for e in fc.d_squared_entries().values())


# ---------------------------------------------------------------------------
# slice linear algebra


class ModuleSlices:
    """Slices of the free module on ``gens`` over a truncated algebra.

    Basis elements are pairs (generator index, class word) where the class
    word starts at the generator's vertex; the pair sits in the slice
    (s, u) with s = internal degree of the generator plus word length and
    u the word's target vertex.
    """

    def __init__(self, A: TruncatedAlgebra, gens, s_max: int):
        self.A = A
        self.gens = tuple(gens)
        self.s_max = s_max
        self.basis = {}
        self.position = {}
        for gi, g in enumerate(self.gens):
            for u in (0, 1):
                for length, word in A.basis[(g.vertex, u)]:
                    s = g.internal + length
                    if s > s_max:
                        continue
                    key = (s, u)
                    slot = self.basis.setdefault(key, [])
                    self.position[(gi, word, u)] = (key, len(slot))
                    slot.append((gi, word))

    def slice_dim(self, s, u):
        return len(self.basis.get((s, u), ()))

    def differential_matrix(self, fc: FreeComplex, target: "ModuleSlices", s, u):
        """Matrix (rows = source slice basis) of d into target slice (s, u)."""
        src = self.basis.get((s, u), ())
        tgt = target.basis.get((s, u), ())
        tindex = {entry: i for i, entry in enumerate(tgt)}
        rows = []
        for gi, word in src:
            g = self.gens[gi]
            vec = [Fraction(0)] * len(tgt)
            for coeff, out_name in fc.diff[g.name]:
                oi = next(i for i, h in enumerate(target.gens) if h.name == out_name)
                for w2, c2 in coeff.coeffs.items():
                    combined = word + w2  # w2 acts first; empty word is the idempotent
                    rep = target.A.class_of(combined) if combined else ""
                    if rep is None:
                        raise AssertionError("slice product overflowed the cutoff")
                    vec[tindex[(oi, rep)]] += c2
            rows.append(tuple(vec))
        return tuple(rows), src, tgt

    def arrow_image(self, arrow, s, u, vec):
        """Postcomposition by an arrow u -> u' on a slice vector; returns
        (s + 1, u', vector)."""
        if SRC[arrow] != u:
            raise ValueError("arrow %s does not start at vertex %d" % (arrow, u))
        u2 = TGT[arrow]
        src = self.basis.get((s, u), ())
        tgt = self.basis.get((s + 1, u2), ())
        tindex = {entry: i for i, entry in enumerate(tgt)}
        out = [Fraction(0)] * len(tgt)
        for c, (gi, word) in zip(vec, src):
            if c == 0:
                continue
            rep = self.A.class_of(arrow + word)
            if rep is None:
                raise AssertionError("arrow action left the window")
            out[tindex[(gi, rep)]] += c
        return s + 1, u2, tuple(out)


# ---------------------------------------------------------------------------
# cohomology


class StabilizationError(RuntimeError):
    pass


class _DegreeCohomology:
    """Cycle/boundary data of one homological degree, all slices."""

    def __init__(self, fc, A, k, s_max):
        self.k = k
        self.slices = ModuleSlices(A, fc.gens_of_degree(k), s_max)
        below = fc.gens_of_degree(k - 1)
        above = fc.gens_of_degree(k + 1)
        self.slices_below = ModuleSlices(A, below, s_max) if below else None
        self.slices_above = ModuleSlices(A, above, s_max) if above else None
        self.data = {}
        for (s, u), basis in sorted(self.slices.basis.items()):
            n = len(basis)
            if self.slices_above is not None:
                m, _, _ = self.slices.differential_matrix(fc, self.slices_above, s, u)
                cycles = linalg.nullspace(linalg.transpose(m, n and len(m[0])), n)
            else:
                cycles = linalg.identity(n)
            if self.slices_below is not None and self.slices_below.slice_dim(s, u):
                mb, _, _ = self.slices_below.differential_matrix(fc, self.slices, s, u)
                boundaries = linalg.row_space(mb, n)
            else:
                boundaries = ()
            reps = []
            span = list(boundaries)
            for zv in cycles:
                if not linalg.in_span(tuple(span), zv):
                    reps.append(zv)
                    span.append(zv)
            self.data[(s, u)] = {"boundaries": boundaries, "reps": tuple(reps)}

    def h_dim(self, s, u):
        d = self.data.get((s, u))
        return len(d["reps"]) if d else 0

    def coordinates(self, s, u, vec):
        """Coordinates of a cycle in the chosen representatives mod boundaries."""
        if all(c == 0 for c in vec):
            d = self.data.get((s, u))
            return tuple(Fraction(0) for _ in (d["reps"] if d else ()))
        d = self.data.get((s, u))
        if d is None:
            raise StabilizationError("class escapes the computed window at slice (%d, %d)" % (s, u))
        rows = tuple(d["boundaries"]) + tuple(d["reps"])
        sol = linalg.solve_matrix(linalg.transpose(rows, len(vec)), vec, len(rows)) if rows else None
        if sol is None:
            raise StabilizationError("vector is not a cycle modulo boundaries at (%d, %d)" % (s, u))
        return sol[len(d["boundaries"]):]


def degree_cohomology_rep(fc, A, k, s_max):
    """Cohomology of one homological degree as a Representation."""
    from .reps import Representation

    dc = _DegreeCohomology(fc, A, k, s_max)
    entries = []  # (s, u, index within reps)
    for (s, u), d in sorted(dc.data.items()):
        for i in range(len(d["reps"])):
            entries.append((s, u, i))
    idx0 = [e for e in entries if e[1] == 0]
    idx1 = [e for e in entries if e[1] == 1]
    lookup = {0: {e: i for i, e in enumerate(idx0)}, 1: {e: i for i, e in enumerate(idx1)}}
    d0, d1 = len(idx0), len(idx1)

    def action(arrow):
        u, u2 = SRC[arrow], TGT[arrow]
        src_list = idx0 if u == 0 else idx1
        tgt_list = idx0 if u2 == 0 else idx1
        rows = [[Fraction(0)] * len(src_list) for _ in range(len(tgt_list))]
        for j, (s, uu, i) in enumerate(src_list):
            vec = dc.data[(s, uu)]["reps"][i]
            s2, u2b, img = dc.slices.arrow_image(arrow, s, uu, vec)
            if all(c == 0 for c in img) and not dc.slices.basis.get((s2, u2b)):
                continue
            coords = dc.coordinates(s2, u2b, img)
            for i2, c in enumerate(coords):
                if c != 0:
                    rows[lookup[u2][(s2, u2b, i2)]][j] = c
        return tuple(tuple(r) for r in rows)

    return Representation((d0, d1), action("x"), action("z"), action("y"), action("w"))


def graded_cohomology(fc: FreeComplex, cutoff: int, s_max=None):
    """dict homological degree -> Representation, window s <= cutoff - 3."""
    A = truncated_algebra(cutoff)
    if s_max is None:
        s_max = cutoff - 3
    out = {}
    for k in fc.degrees():
        r = degree_cohomology_rep(fc, A, k, s_max)
        if r.dims != (0, 0):
            out[k] = r
    return out


# ---------------------------------------------------------------------------
# syzygies and minimal resolutions


def _kernel_slices(fc, A, k, s_max):
    """Kernel of d on the degree-k module, per slice, as vectors."""
    slices = ModuleSlices(A, fc.gens_of_degree(k), s_max)
    above = ModuleSlices(A, fc.gens_of_degree(k + 1), s_max)
    kernels = {}
    for (s, u), basis in sorted(slices.basis.items()):
        n = len(basis)
        m, _, _ = slices.differential_matrix(fc, above, s, u)
        kernels[(s, u)] = linalg.nullspace(linalg.transpose(m, n and len(m[0])), n)
    return slices, kernels


def _minimal_generators(slices, kernels):
    """Kernel elements spanning the kernel modulo arrow images of lower
    slices; returned as (s, u, vector), smallest internal degree first."""
    mins = []
    for (s, u) in sorted(kernels):
        span = []
        for arrow in "xzyw":
            if TGT[arrow] != u:
                continue
            u_src = SRC[arrow]
            for kv in kernels.get((s - 1, u_src), ()):
                _, _, img = slices.arrow_image(arrow, s - 1, u_src, kv)
                if any(c != 0 for c in img):
                    span.append(img)
        span = list(linalg.row_space(tuple(span), slices.slice_dim(s, u)))
        for kv in kernels[(s, u)]:
            if not linalg.in_span(tuple(span), kv):
                mins.append((s, u, kv))
                span.append(kv)
    return mins


def _syzygy_step(slices, mins, degree, prefix):
    """One generator of homological ``degree`` per minimal kernel generator
    (s, u, vec), named prefix{degree}_{index}, with its differential row
    read off ``vec`` in the basis of ``slices``.  Returns (gens, diff)."""
    gens, diff = [], {}
    for idx, (s, u, vec) in enumerate(mins):
        name = "%s%d_%d" % (prefix, degree, idx)
        gens.append(FCGen(name, u, degree, s))
        rows = {}
        for c, (gi, word) in zip(vec, slices.basis[(s, u)]):
            if c == 0:
                continue
            out_name = slices.gens[gi].name
            acc = rows.get(out_name, FreePathElement())
            rows[out_name] = acc + FreePathElement({word: c})
        diff[name] = [(e, out_name) for out_name, e in sorted(rows.items())]
    return gens, diff


def extend_resolution(fc: FreeComplex, cutoff: int, s_cap: int, down_to: int = 0,
                      prefix: str = "syz") -> FreeComplex:
    """Complete a top-of-resolution complex downward by minimal syzygies.

    The lowest existing homological degree is resolved repeatedly until
    ``down_to``; new generators are named prefix{degree}_{index}.  The
    window must stay below the truncation boundary, which it does for the
    small internal degrees that occur here.
    """
    A = truncated_algebra(cutoff)
    gens = list(fc.gens)
    diff = {g.name: list(fc.diff[g.name]) for g in fc.gens}
    current = FreeComplex(gens, diff)
    k = min(current.degrees())
    while k > down_to:
        slices, kernels = _kernel_slices(current, A, k, s_cap)
        mins = _minimal_generators(slices, kernels)
        if not mins:
            break
        new_gens, new_diff = _syzygy_step(slices, mins, k - 1, prefix)
        gens.extend(new_gens)
        diff.update(new_diff)
        current = FreeComplex(gens, diff)
        k -= 1
    # a complete resolution has no further syzygies in the window
    slices, kernels = _kernel_slices(current, A, min(current.degrees()), s_cap - 2)
    leftover = _minimal_generators(slices, kernels)
    if leftover:
        raise AssertionError("resolution does not terminate: %r" % [(s, u) for s, u, _ in leftover])
    return current
