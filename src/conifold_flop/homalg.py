"""Hom and Ext between representations, extensions and mapping cones, the
object-level transform sending catalog branes to modules, and the flop
analysis of point modules.

Everything is exact linear algebra: hom spaces solve the intertwining
system, first extensions solve the cocycle-mod-coboundary system attached
to the four relations, and higher Ext groups come from minimal projective
resolutions over a length truncation, re-run at the next cutoff to rule
out boundary effects.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .exactcx import cross
from .freecomplex import FCGen, FreeComplex, extend_resolution, graded_cohomology
from .paths import SRC, TGT, relations
from .reps import (Representation, StabilityParams, central_charge, check_rep, flop_K,
                   is_stable, make_catalog_rep, rep)
from .truncated import truncated_algebra

ARROW_SPACES = {"x": (0, 1), "z": (0, 1), "y": (1, 0), "w": (1, 0)}


@dataclass(frozen=True)
class ModuleMap:
    """phi0: R0 -> S0, phi1: R1 -> S1, intertwining all four arrows."""

    phi0: tuple
    phi1: tuple


def is_module_map(r: Representation, s: Representation, phi0, phi1) -> bool:
    for a in "xzyw":
        sa, ta = ARROW_SPACES[a]
        phis = (phi0, phi1)
        lhs = linalg.mat_mul(phis[ta], r.matrix(a), bcols=r.dims[sa])
        rhs = linalg.mat_mul(s.matrix(a), phis[sa], bcols=r.dims[sa])
        if lhs != rhs:
            return False
    return True


def hom(r: Representation, s: Representation):
    """Basis of the space of module maps r -> s."""
    d0, d1 = r.dims
    e0, e1 = s.dims
    n0, n1 = e0 * d0, e1 * d1
    rows = []

    def add_rows(m_r, m_s, src, tgt):
        # phi_tgt . m_r = m_s . phi_src, entry (i, j)
        dims_r = (d0, d1)
        dims_s = (e0, e1)
        offs = (0, n0)
        for i in range(dims_s[tgt]):
            for j in range(dims_r[src]):
                row = [Fraction(0)] * (n0 + n1)
                for k in range(dims_r[tgt]):
                    row[offs[tgt] + i * dims_r[tgt] + k] += m_r[k][j]
                for k in range(dims_s[src]):
                    row[offs[src] + k * dims_r[src] + j] -= m_s[i][k]
                if any(c != 0 for c in row):
                    rows.append(tuple(row))

    for a in "xzyw":
        src, tgt = ARROW_SPACES[a]
        add_rows(r.matrix(a), s.matrix(a), src, tgt)
    sols = linalg.nullspace(tuple(rows), n0 + n1) if rows else linalg.identity(n0 + n1)
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


def _xi_unknown_layout(m: Representation, n: Representation):
    layout = {}
    off = 0
    for a in "xzyw":
        src, tgt = ARROW_SPACES[a]
        size = n.dims[tgt] * m.dims[src]
        layout[a] = (off, n.dims[tgt], m.dims[src])
        off += size
    return layout, off


def _xi_from_vector(m, n, layout, vec):
    xi = {}
    for a in "xzyw":
        off, rows, cols = layout[a]
        xi[a] = tuple(tuple(vec[off + i * cols + j] for j in range(cols)) for i in range(rows))
    return xi


def ext1(m: Representation, n: Representation):
    """Basis of Ext^1(m, n): cocycles of the relation system modulo
    coboundaries eta o M - N o eta.  Returns a list of ExtensionDatum."""
    layout, total = _xi_unknown_layout(m, n)
    rows = []
    for rel in relations():
        (w1, c1), (w2, c2) = sorted(rel.coeffs.items())
        src, tgt = SRC[w1[-1]], TGT[w1[0]]
        nrows, ncols = n.dims[tgt], m.dims[src]
        for i in range(nrows):
            for j in range(ncols):
                row = [Fraction(0)] * total
                for word, c in ((w1, c1), (w2, c2)):
                    # entry (i, j) of the off-diagonal block, linear in xi
                    for pos in range(len(word)):
                        a = word[pos]
                        pre = word[:pos]
                        suf = word[pos + 1:]
                        n_pre = n.word_action(pre) if pre else linalg.identity(n.dims[TGT[a]])
                        m_suf = m.word_action(suf) if suf else linalg.identity(m.dims[SRC[a]])
                        off, xr, xc = layout[a]
                        for p in range(xr):
                            if n_pre[i][p] == 0:
                                continue
                            for q in range(xc):
                                if m_suf[q][j] == 0:
                                    continue
                                row[off + p * xc + q] += c * n_pre[i][p] * m_suf[q][j]
                if any(x != 0 for x in row):
                    rows.append(tuple(row))
    cocycles = linalg.nullspace(tuple(rows), total) if rows else linalg.identity(total)

    # coboundaries: xi_a = eta_tgt . M_a - N_a . eta_src
    cob = []
    h0, h1 = n.dims[0] * m.dims[0], n.dims[1] * m.dims[1]
    for t in range(h0 + h1):
        eta0 = [[Fraction(0)] * m.dims[0] for _ in range(n.dims[0])]
        eta1 = [[Fraction(0)] * m.dims[1] for _ in range(n.dims[1])]
        if t < h0:
            eta0[t // m.dims[0]][t % m.dims[0]] = Fraction(1)
        else:
            tt = t - h0
            eta1[tt // m.dims[1]][tt % m.dims[1]] = Fraction(1)
        etas = (tuple(map(tuple, eta0)), tuple(map(tuple, eta1)))
        vec = [Fraction(0)] * total
        for a in "xzyw":
            src, tgt = ARROW_SPACES[a]
            xa = linalg.mat_add(
                linalg.mat_mul(etas[tgt], m.matrix(a), bcols=m.dims[src]),
                linalg.mat_scale(-1, linalg.mat_mul(n.matrix(a), etas[src], bcols=m.dims[src])))
            off, xr, xc = layout[a]
            for i in range(xr):
                for j in range(xc):
                    vec[off + i * xc + j] = xa[i][j]
        cob.append(tuple(vec))
    cob_span = linalg.row_space(tuple(cob), total)

    basis = []
    span = list(cob_span)
    for v in cocycles:
        if not linalg.in_span(tuple(span), v):
            basis.append(ExtensionDatum(_xi_from_vector(m, n, layout, v)))
            span.append(v)
    return basis


def ext1_dim(m, n):
    return len(ext1(m, n))


def build_extension(m: Representation, n: Representation, datum: ExtensionDatum):
    """Block representation with sub n and quotient m, arrow blocks
    [[N_a, xi_a], [0, M_a]].  Returns (rep, inclusion, projection)."""
    mats = {}
    for a in "xzyw":
        src, tgt = ARROW_SPACES[a]
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
    incl = ModuleMap(
        tuple(tuple(Fraction(1) if i == j else Fraction(0) for j in range(n.dims[0]))
              for i in range(e.dims[0])),
        tuple(tuple(Fraction(1) if i == j else Fraction(0) for j in range(n.dims[1]))
              for i in range(e.dims[1])))
    proj = ModuleMap(
        tuple(tuple(Fraction(1) if j == n.dims[0] + i else Fraction(0) for j in range(e.dims[0]))
              for i in range(m.dims[0])),
        tuple(tuple(Fraction(1) if j == n.dims[1] + i else Fraction(0) for j in range(e.dims[1]))
              for i in range(m.dims[1])))
    if not is_module_map(n, e, incl.phi0, incl.phi1):
        raise RuntimeError("extension inclusion is not a module map")
    if not is_module_map(e, m, proj.phi0, proj.phi1):
        raise RuntimeError("extension projection is not a module map")
    return e, incl, proj


# ---------------------------------------------------------------------------
# isomorphism testing


def iso_check(r: Representation, s: Representation, seed: int = 0) -> bool:
    """True iff some invertible module map exists; rational combinations of
    the hom basis are tried deterministically from the given seed."""
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
    rng = random.Random(seed)
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


def psi_sphere(k: int, seed: int = 0):
    """Module of the k-th sphere: vertex simples for k in {0, 1}, and
    iterated extensions by the distinguished point module otherwise.
    The result is checked against the catalog chain module."""
    if abs(k) > PSI_RANGE:
        raise ValueError("sphere index out of range")
    if k == 0:
        return make_catalog_rep("simple", 0)
    if k == 1:
        return make_catalog_rep("simple", 1)
    pt = make_catalog_rep("point", *DISTINGUISHED_POINT)
    if k >= 2:
        current = make_catalog_rep("simple", 1)
        for _ in range(k - 1):
            classes = ext1(pt, current)
            if not classes:
                raise RuntimeError("no nonzero extension class found")
            current, _, _ = build_extension(pt, current, classes[0])
        target = make_catalog_rep("vplus", k)
    else:
        current = make_catalog_rep("simple", 0)
        for _ in range(-k):
            classes = ext1(current, pt)
            if not classes:
                raise RuntimeError("no nonzero extension class found")
            current, _, _ = build_extension(current, pt, classes[0])
        target = make_catalog_rep("vminus", -k)
    if not iso_check(current, target, seed=seed):
        raise RuntimeError("cone iteration drifted off the catalog module")
    return current


# ---------------------------------------------------------------------------
# higher Ext via truncated minimal resolutions


def _resolve_simple(vertex: int, cutoff: int, s_cap: int) -> FreeComplex:
    """Minimal projective resolution of the vertex simple, to length 3,
    computed inside the truncation window."""
    from .freecomplex import ModuleSlices, _minimal_generators, _syzygy_step

    A = truncated_algebra(cutoff)
    top = FCGen("g", vertex, 3, 0)
    slices = ModuleSlices(A, [top], s_cap)
    kernels = {}
    for (s, u), basis in slices.basis.items():
        if s >= 1:
            kernels[(s, u)] = linalg.identity(len(basis))
    mins = _minimal_generators(slices, kernels)
    gens, diff = _syzygy_step(slices, mins, 2, "syz")
    fc = FreeComplex([top] + gens, diff)
    return extend_resolution(fc, cutoff, s_cap, down_to=0, prefix="syz")


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


def ext_dims(vertex: int, m: Representation, cutoff: int = 6):
    """(dim Ext^0..3) of the vertex simple against m, with agreement
    between the cutoff and cutoff + 1 required."""
    if cutoff < 6:
        raise ValueError("cutoff must be at least 6")
    if not check_rep(m)["nilpotent"]:
        raise ValueError("target module must be nilpotent")
    results = []
    for c in (cutoff, cutoff + 1):
        res = _resolve_simple(vertex, c, c - 2)
        results.append(_hom_complex_dims(res, m))
    if results[0] != results[1]:
        raise RuntimeError("Ext dimensions did not stabilize: %r vs %r" % tuple(results))
    return results[0]


# ---------------------------------------------------------------------------
# cohomology of catalog complexes (public entry, with stabilization)


def free_complex_cohomology(fc: FreeComplex, cutoff: int):
    """Graded cohomology as representations, keyed by the shifted degree
    (top homological degree 3 becomes 0); dims must agree between the
    cutoff and cutoff + 1 on the same window."""
    if cutoff < 6:
        raise ValueError("cutoff must be at least 6")
    first = graded_cohomology(fc, cutoff)
    second = graded_cohomology(fc, cutoff + 1, s_max=cutoff - 3)
    d1 = {k: r.dims for k, r in first.items()}
    d2 = {k: r.dims for k, r in second.items()}
    if d1 != d2:
        raise RuntimeError("cohomology did not stabilize: %r vs %r" % (d1, d2))
    return {k - 3: r for k, r in first.items()}


# ---------------------------------------------------------------------------
# flop analysis of point modules


def flop_point_analysis(pt: Representation, params: StabilityParams, seed: int = 0):
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
