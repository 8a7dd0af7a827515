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

import functools
from fractions import Fraction

from . import linalg
from .exactcx import Frozen
from .paths import SRC, TGT, FreePathElement
from .reps import Representation
from .truncated import TruncatedAlgebra, _normal_word, counts, truncated_algebra


class FCGen(Frozen):
    _fields = ("name", "vertex", "degree", "internal")

    def __init__(self, name: str, vertex: int, degree: int, internal: int):
        self._store(name, vertex, degree, internal)


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


class StabilizationError(RuntimeError):
    pass


class ModuleSlices:
    """Slices of the free module on ``gens`` over a truncated algebra.

    Basis elements are pairs (generator index, counts) where the class with
    those arrow counts starts at the generator's vertex; the pair sits in
    the slice (s, u) with s = internal degree of the generator plus the
    class length and u the class's target vertex.
    """

    def __init__(self, A: TruncatedAlgebra, gens, s_max: int):
        self.gens = tuple(gens)
        self.s_max = s_max
        self.basis = {}
        for gi, g in enumerate(self.gens):
            for u in (0, 1):
                for length, cls in A.basis[(g.vertex, u)]:
                    s = g.internal + length
                    if s > s_max:
                        continue
                    self.basis.setdefault((s, u), []).append((gi, cls))

    def slice_dim(self, s, u):
        return len(self.basis.get((s, u), ()))

    def differential_matrix(self, fc: FreeComplex, target: "ModuleSlices", s, u):
        """Rows, one per source slice basis element, of d into target slice
        (s, u).  Integral coefficients are stored as ints."""
        src = self.basis.get((s, u), ())
        tgt = target.basis.get((s, u), ())
        tindex = {entry: i for i, entry in enumerate(tgt)}
        out_index = {h.name: i for i, h in enumerate(target.gens)}
        rows = []
        for gi, cls in src:
            g = self.gens[gi]
            vec = [0] * len(tgt)
            for coeff, out_name in fc.diff[g.name]:
                oi = out_index[out_name]
                for w2, c2 in coeff.coeffs.items():
                    # w2 acts first: the product's class adds the counts, and
                    # past the cutoff it has no basis element
                    i = tindex.get((oi, tuple(a + b for a, b in zip(cls, counts(w2)))))
                    if i is None:
                        raise StabilizationError("slice product overflowed the cutoff")
                    vec[i] += c2.numerator if c2.denominator == 1 else c2
            rows.append(tuple(vec))
        return tuple(rows)

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
        unit = counts(arrow)
        for c, (gi, cls) in zip(vec, src):
            if c == 0:
                continue
            # the class may be past the cutoff, or in the algebra but its
            # slice above the window
            i = tindex.get((gi, tuple(a + b for a, b in zip(cls, unit))))
            if i is None:
                raise StabilizationError("arrow action left the window")
            out[i] += c
        return s + 1, u2, tuple(out)


# ---------------------------------------------------------------------------
# cohomology


class _DegreeCohomology:
    """Cycle/boundary data of one homological degree, all slices, from the
    ``kernels`` of d on its ``slices``; ``matrix_below(s, u)`` is the slice
    matrix of d from the slices ``below``, of degree k - 1.  The boundaries
    are kept as a span, their `linalg.echelon` form: a cycle has unique
    coordinates on the representatives whatever basis the span has."""

    def __init__(self, slices, kernels, below, matrix_below):
        self.slices = slices
        self.data = {}
        for (s, u), zs in kernels.items():
            n = slices.slice_dim(s, u)
            if below.slice_dim(s, u):
                boundaries = linalg.echelon(matrix_below(s, u), n)
            else:
                boundaries = ()
            self.data[(s, u)] = {"boundaries": boundaries,
                                 "reps": linalg.independent(boundaries, zs, n)}

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


def _cohomology_rep(dc):
    """The cohomology Representation of one degree's `_DegreeCohomology`."""
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
    """dict homological degree -> Representation, window s <= cutoff - 3.

    Each degree's `ModuleSlices` and each slice matrix of d are built once
    per call: the matrices out of degree k give its kernels, then the
    boundaries of degree k + 1.  The build order is that of a computation
    degree by degree, so the first `StabilizationError` is the same."""
    A = truncated_algebra(cutoff)
    if s_max is None:
        s_max = cutoff - 3
    module = functools.cache(lambda k: ModuleSlices(A, fc.gens_of_degree(k), s_max))

    @functools.cache
    def matrix(k, s, u):
        """Slice matrix (s, u) of d from degree k to degree k + 1."""
        return module(k).differential_matrix(fc, module(k + 1), s, u)

    out = {}
    for k in fc.degrees():
        kernels = _kernels(module(k), functools.partial(matrix, k))
        dc = _DegreeCohomology(module(k), kernels, module(k - 1), functools.partial(matrix, k - 1))
        r = _cohomology_rep(dc)
        if r.dims != (0, 0):
            out[k] = r
    return out


# ---------------------------------------------------------------------------
# syzygies and minimal resolutions


def _kernels(slices, matrix):
    """Kernel of d on ``slices``, per slice in sorted order, as vectors;
    ``matrix(s, u)`` is the slice matrix of d at (s, u)."""
    kernels = {}
    for (s, u), basis in sorted(slices.basis.items()):
        n = len(basis)
        m = matrix(s, u)
        kernels[(s, u)] = linalg.nullspace(linalg.transpose(m, n and len(m[0])), n)
    return kernels


def _kernel_slices(fc, A, k, s_max):
    """Kernel of d on the degree-k module, per slice, as vectors."""
    slices = ModuleSlices(A, fc.gens_of_degree(k), s_max)
    above = ModuleSlices(A, fc.gens_of_degree(k + 1), s_max)
    return slices, _kernels(slices, lambda s, u: slices.differential_matrix(fc, above, s, u))


def _minimal_generators(slices, kernels):
    """Kernel elements spanning the kernel modulo arrow images of lower
    slices; returned as (s, u, vector), smallest internal degree first."""
    mins = []
    for (s, u) in sorted(kernels):
        images = []
        for arrow in "xzyw":
            if TGT[arrow] != u:
                continue
            u_src = SRC[arrow]
            for kv in kernels.get((s - 1, u_src), ()):
                images.append(slices.arrow_image(arrow, s - 1, u_src, kv)[2])
        new = linalg.independent(images, kernels[(s, u)], slices.slice_dim(s, u))
        mins.extend((s, u, kv) for kv in new)
    return mins


def _syzygy_step(slices, mins, degree):
    """One generator of homological ``degree`` per minimal kernel generator
    (s, u, vec), named syz{degree}_{index}, with its differential row
    read off ``vec`` in the basis of ``slices``, each class written as its
    normal word.  Returns (gens, diff)."""
    gens, diff = [], {}
    for idx, (s, u, vec) in enumerate(mins):
        name = "syz%d_%d" % (degree, idx)
        gens.append(FCGen(name, u, degree, s))
        rows = {}
        for c, (gi, cls) in zip(vec, slices.basis[(s, u)]):
            if c == 0:
                continue
            out = slices.gens[gi]
            acc = rows.get(out.name, FreePathElement())
            rows[out.name] = acc + FreePathElement({_normal_word(out.vertex, cls): c})
        diff[name] = [(e, out_name) for out_name, e in sorted(rows.items())]
    return gens, diff


def extend_resolution(fc: FreeComplex, cutoff: int, s_cap: int) -> FreeComplex:
    """Complete a top-of-resolution complex downward by minimal syzygies.

    The lowest existing homological degree is resolved repeatedly down to
    degree 0; new generators are named syz{degree}_{index}.  The
    window must stay below the truncation boundary, which it does for the
    small internal degrees that occur here.
    """
    A = truncated_algebra(cutoff)
    gens = list(fc.gens)
    diff = {g.name: list(fc.diff[g.name]) for g in fc.gens}
    current = FreeComplex(gens, diff)
    k = min(current.degrees())
    while k > 0:
        slices, kernels = _kernel_slices(current, A, k, s_cap)
        mins = _minimal_generators(slices, kernels)
        if not mins:
            break
        new_gens, new_diff = _syzygy_step(slices, mins, k - 1)
        gens.extend(new_gens)
        diff.update(new_diff)
        current = FreeComplex(gens, diff)
        k -= 1
    # a complete resolution has no further syzygies in the window
    slices, kernels = _kernel_slices(current, A, min(current.degrees()), s_cap - 2)
    leftover = _minimal_generators(slices, kernels)
    if leftover:
        raise StabilizationError("resolution does not terminate: %r" % [(s, u) for s, u, _ in leftover])
    return current
