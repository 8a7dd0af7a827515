"""Hom and Ext between representations, extensions and mapping cones, the
object-level transform sending catalog branes to modules, and the flop
analysis of point modules.

Everything is exact linear algebra: hom spaces solve the intertwining
system, first extensions solve the cocycle-mod-coboundary system attached
to the four relations, and higher Ext groups of a vertex simple are the
cohomology of Hom(P_*, m) for its minimal projective resolution, the
sphere table `tables.table_sphere(v)` that the deformed Floer differential
of the A-infinity structure gives, built on the integer module of m.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .exactcx import cross
from .freecomplex import FreeComplex, graded_cohomology
from .paths import SRC, TGT, relations
from .reps import (Representation, StabilityParams, _integerize, arrow_layout, central_charge,
                   check_rep, flop_K, intertwiner_matrix, is_stable, make_catalog_rep)
from .tables import table_sphere

@dataclass(frozen=True)
class ModuleMap:
    """phi0: R0 -> S0, phi1: R1 -> S1, intertwining all four arrows."""

    phi0: tuple
    phi1: tuple


def is_module_map(r: Representation, s: Representation, phi0, phi1) -> bool:
    for a in "xzyw":
        sa, ta = SRC[a], TGT[a]
        phis = (phi0, phi1)
        lhs = linalg.mat_mul(phis[ta], r.matrix(a), bcols=r.dims[sa])
        rhs = linalg.mat_mul(s.matrix(a), phis[sa], bcols=r.dims[sa])
        if lhs != rhs:
            return False
    return True


def hom(r: Representation, s: Representation):
    """Basis of the space of module maps r -> s: the kernel of the
    intertwiner map, whose equations are the columns of its matrix."""
    d0, d1 = r.dims
    e0, e1 = s.dims
    n0 = e0 * d0
    rows = tuple(row for row in zip(*intertwiner_matrix(r, s)) if any(row))
    sols = linalg.nullspace(rows, n0 + e1 * d1)
    out = []
    for v in sols:
        phi0 = tuple(tuple(v[i * d0 + j] for j in range(d0)) for i in range(e0))
        phi1 = tuple(tuple(v[n0 + i * d1 + j] for j in range(d1)) for i in range(e1))
        out.append(ModuleMap(phi0, phi1))
    return out


def hom_dim(r, s):
    return len(hom(r, s))


# ---------------------------------------------------------------------------
# first extensions


@dataclass(frozen=True)
class ExtensionDatum:
    """Matrices xi_a : (quotient M's space at the source of a) -> (sub N's
    space at the target of a), one per arrow."""

    xi: dict

    def matrix(self, a):
        return self.xi[a]


def _xi_from_vector(layout, vec):
    xi = {}
    for a in "xzyw":
        off, rows, cols = layout[a]
        xi[a] = tuple(tuple(vec[off + i * cols + j] for j in range(cols)) for i in range(rows))
    return xi


def ext1(m: Representation, n: Representation):
    """Basis of Ext^1(m, n): cocycles of the relation system modulo the
    coboundaries, the rows of the intertwiner matrix.  Returns a list of
    ExtensionDatum."""
    layout, total = arrow_layout(m, n)
    rows = []
    for rel in relations():
        (w1, c1), (w2, c2) = sorted(rel.coeffs.items())
        src, tgt = SRC[w1[-1]], TGT[w1[0]]
        # entry (i, j) of the off-diagonal block is linear in xi, one term
        # per arrow position in each relation word
        terms = []
        for word, c in ((w1, c1), (w2, c2)):
            for pos, a in enumerate(word):
                pre = word[:pos]
                suf = word[pos + 1:]
                n_pre = n.word_action(pre) if pre else linalg.identity(n.dims[TGT[a]])
                m_suf = m.word_action(suf) if suf else linalg.identity(m.dims[SRC[a]])
                terms.append((c, n_pre, m_suf, layout[a]))
        for i in range(n.dims[tgt]):
            for j in range(m.dims[src]):
                row = [Fraction(0)] * total
                for c, n_pre, m_suf, (off, xr, xc) in terms:
                    for p in range(xr):
                        if n_pre[i][p] == 0:
                            continue
                        for q in range(xc):
                            if m_suf[q][j] == 0:
                                continue
                            row[off + p * xc + q] += c * n_pre[i][p] * m_suf[q][j]
                if any(x != 0 for x in row):
                    rows.append(tuple(row))
    cocycles = linalg.nullspace(tuple(rows), total)
    return [ExtensionDatum(_xi_from_vector(layout, v))
            for v in linalg.independent(intertwiner_matrix(m, n), cocycles, total)]


def ext1_dim(m, n):
    return len(ext1(m, n))


def build_extension(m: Representation, n: Representation, datum: ExtensionDatum):
    """Block representation with sub n and quotient m, arrow blocks
    [[N_a, xi_a], [0, M_a]].  Returns (rep, inclusion, projection)."""
    mats = {}
    for a in "xzyw":
        src, tgt = SRC[a], TGT[a]
        na, ma, xa = n.matrix(a), m.matrix(a), datum.matrix(a)
        rows = []
        for i in range(n.dims[tgt]):
            rows.append(tuple(na[i]) + tuple(xa[i]))
        for i in range(m.dims[tgt]):
            rows.append(tuple(Fraction(0) for _ in range(n.dims[src])) + tuple(ma[i]))
        mats[a] = tuple(rows)
    e = Representation((n.dims[0] + m.dims[0], n.dims[1] + m.dims[1]),
                       mats["x"], mats["z"], mats["y"], mats["w"])
    if not check_rep(e)["relations_ok"]:
        raise ValueError("extension datum violates the cocycle condition")
    ids = [linalg.identity(d) for d in e.dims]
    incl = ModuleMap(*(tuple(row[:nv] for row in iv) for iv, nv in zip(ids, n.dims)))
    proj = ModuleMap(*(iv[nv:] for iv, nv in zip(ids, n.dims)))
    if not is_module_map(n, e, incl.phi0, incl.phi1):
        raise RuntimeError("extension inclusion is not a module map")
    if not is_module_map(e, m, proj.phi0, proj.phi1):
        raise RuntimeError("extension projection is not a module map")
    return e, incl, proj


# ---------------------------------------------------------------------------
# isomorphism testing


def iso_check(r: Representation, s: Representation) -> bool:
    """True iff some invertible module map exists: a basis map, else one of
    64 rational combinations of the hom basis drawn from a fixed seed."""
    if r.dims != s.dims:
        return False
    if r.dims == (0, 0):
        return True
    basis = hom(r, s)
    if not basis:
        return False
    if len(hom(s, r)) != len(basis):
        return False

    def invertible(phi):
        return linalg.is_invertible(phi.phi0) and linalg.is_invertible(phi.phi1)

    for phi in basis:
        if invertible(phi):
            return True
    rng = random.Random(0)
    for _ in range(64):
        coeffs = [Fraction(rng.randint(-4, 4)) for _ in basis]
        phi0 = None
        phi1 = None
        for c, b in zip(coeffs, basis):
            t0, t1 = linalg.mat_scale(c, b.phi0), linalg.mat_scale(c, b.phi1)
            phi0 = t0 if phi0 is None else linalg.mat_add(phi0, t0)
            phi1 = t1 if phi1 is None else linalg.mat_add(phi1, t1)
        if linalg.is_invertible(phi0) and linalg.is_invertible(phi1):
            return True
    return False


# ---------------------------------------------------------------------------
# sphere transform via iterated cones


DISTINGUISHED_POINT = (1, -1)

PSI_RANGE = 5


def psi_spheres(k: int):
    """Yields (j, module of the j-th sphere) from the vertex simple of k's
    sign (j = 1 for k >= 1, else 0) out to k, one extension by the
    distinguished point module per step; `build_extension` checks the short
    exact sequence of each step.  Nothing is compared with the catalog."""
    if abs(k) > PSI_RANGE:
        raise ValueError("sphere index out of range")
    j, step = (1, 1) if k >= 1 else (0, -1)
    current = make_catalog_rep("simple", j)
    yield j, current
    pt = make_catalog_rep("point", *DISTINGUISHED_POINT)
    while j != k:
        quotient, sub = (pt, current) if step > 0 else (current, pt)
        classes = ext1(quotient, sub)
        if not classes:
            raise RuntimeError("no nonzero extension class found")
        current, _, _ = build_extension(quotient, sub, classes[0])
        j += step
        yield j, current


def psi_sphere(k: int):
    """Module of the k-th sphere: vertex simples for k in {0, 1}, and
    iterated extensions by the distinguished point module otherwise, the
    last link of `psi_spheres(k)`.  Past the simples, the result is checked
    against the catalog chain module."""
    for _, current in psi_spheres(k):
        pass
    if k in (0, 1):
        return current
    target = make_catalog_rep("vplus", k) if k >= 2 else make_catalog_rep("vminus", -k)
    if not iso_check(current, target):
        raise RuntimeError("cone iteration drifted off the catalog module")
    return current


# ---------------------------------------------------------------------------
# higher Ext of the vertex simples


def _hom_complex_dims(res: FreeComplex, m: Representation):
    """Ext dimensions of hom(P_*, m) for a resolution laid out in
    homological degrees 3 (P_0) down to 0 (P_3)."""
    levels = [res.gens_of_degree(3 - j) for j in range(4)]
    hdims = [sum(m.dims[g.vertex] for g in lvl) for lvl in levels]
    ranks = [0] * 5
    for j in range(1, 4):
        upper, lower = levels[j], levels[j - 1]
        # delta_j : hom(P_{j-1}, m) -> hom(P_j, m)
        rows = []
        col_off = {g.name: sum(m.dims[h.vertex] for h in lower[:i]) for i, g in enumerate(lower)}
        ncols = hdims[j - 1]
        for g in upper:
            block_rows = [[Fraction(0)] * ncols for _ in range(m.dims[g.vertex])]
            for coeff, out_name in res.diff[g.name]:
                h = res.by_name[out_name]
                act = None
                for word, c in coeff.coeffs.items():
                    wa = linalg.mat_scale(c, m.word_action(word))
                    act = wa if act is None else linalg.mat_add(act, wa)
                if act is None:
                    continue
                off = col_off[out_name]
                for i in range(m.dims[g.vertex]):
                    for jj in range(m.dims[h.vertex]):
                        block_rows[i][off + jj] += act[i][jj]
            rows.extend(tuple(rr) for rr in block_rows)
        ranks[j] = linalg.rank(tuple(rows), ncols)
    return tuple(hdims[j] - ranks[j] - ranks[j + 1] for j in range(4))


def ext_dims(vertex: int, m: Representation):
    """(dim Ext^0..3) of the vertex simple against m.  The sphere table of
    the vertex is the simple's minimal projective resolution
    0 -> P_v -> P_u^2 -> P_u^2 -> P_v (u the other vertex), and Hom(P_*, m)
    is a complex only when m satisfies the relations.

    The complex is built on the integer module `_integerize(m)`.  Scaling
    an arrow a by c != 0 scales the potential by c, so a -> c.a is an
    automorphism of the Jacobi algebra; it fixes both vertex idempotents,
    so it fixes the simples, and `_integerize(m)` is m pulled back along
    such an automorphism.  Pulling back is an exact autoequivalence, so the
    Ext dimensions do not change."""
    if vertex not in (0, 1):
        raise ValueError("vertex must be 0 or 1")
    chk = check_rep(m)
    if not (chk["relations_ok"] and chk["nilpotent"]):
        raise ValueError("target module must satisfy the relations and be nilpotent")
    return _hom_complex_dims(table_sphere(vertex), _integerize(m))


# ---------------------------------------------------------------------------
# cohomology of catalog complexes (public entry, with stabilization)


def free_complex_cohomology(fc: FreeComplex, cutoff: int):
    """Graded cohomology as representations on the window s <= cutoff - 3,
    keyed by the shifted degree (top homological degree 3 becomes 0).

    The window needs no check against the cutoff + 1 algebra:
    - if every generator has internal degree >= -3, a window element
      (generator g, class) has length s - g.internal <= cutoff, so over
      the cutoff + 1 algebra the window has the same basis in the same
      order and every product the window forms has the same class (a
      class is its source and arrow counts, and a product adds the
      counts); a product past the cutoff has no count vector in the
      basis, and the window raises `StabilizationError`;
    - otherwise let g have the least internal degree, i < -3.  A
      differential entry lowers the internal degree by its length, which
      is positive, so no entry leaves g, and its words of length cutoff are
      cycles at s = i + cutoff <= cutoff - 4, inside the window.  An entry
      into g from a generator with window elements overflows the cutoff
      on that generator's words of greatest length in the window.  Failing
      that, no boundary reaches g, so a cohomology class at that slice
      holds a length-cutoff word of g, and an arrow on it leaves the
      window.  Either way the window raises `StabilizationError`."""
    if cutoff < 6:
        raise ValueError("cutoff must be at least 6")
    return {k - 3: r for k, r in graded_cohomology(fc, cutoff).items()}


# ---------------------------------------------------------------------------
# flop analysis of point modules


def flop_point_analysis(pt: Representation, params: StabilityParams):
    """Behaviour of an (x, z)-type point module in the flopped chamber:
    the two-term triangle record, the K-class image, and the instability
    witness given by the vertex-1 simple."""
    if pt.dims != (1, 1) or any(any(c != 0 for c in row) for mtx in (pt.my, pt.mw) for row in mtx):
        raise ValueError("expected an (x, z)-type point module")
    if params.chamber() != -1:
        raise ValueError("parameters must lie strictly in the flopped chamber")
    verdict = is_stable(pt, params)
    s1 = make_catalog_rep("simple", 1)
    s0 = make_catalog_rep("simple", 0)
    return {
        "triangle": {"sub": s1, "object": pt, "quotient": s0},
        "k_image": flop_K((1, 1)),
        "verdict": verdict,
        "witness_phase_exceeds_total":
            cross(central_charge(s1, params), central_charge(pt, params)) < 0,
    }
