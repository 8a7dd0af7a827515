"""Hom and Ext between representations, extensions and mapping cones, the
object-level transform sending catalog branes to modules, and the flop
analysis of point modules.

Everything is exact linear algebra on one Ext complex per pair of
modules (`ext_dims`), C^0 -> C^1 -> C^2 -> C^3: Hom is the kernel of d^0,
the intertwiner map, Ext^1 is ker d^1 / im d^0, and `ext_dims` takes the
ranks of all three maps.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import linalg
from .exactcx import Frozen, cross
from .freecomplex import FreeComplex, graded_cohomology
from .paths import ARROWS, SRC, TGT
from .reps import (Representation, StabilityParams, _relation_terms, _unit_rows, _valid,
                   arrow_layout, central_charge, check_rep, flop_K, intertwiner_matrix,
                   is_stable, make_catalog_rep)


class ModuleMap(Frozen):
    """phi0: R0 -> S0, phi1: R1 -> S1, intertwining all four arrows."""

    _fields = ("phi0", "phi1")

    def __init__(self, phi0: tuple, phi1: tuple):
        self._store(phi0, phi1)


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


# ---------------------------------------------------------------------------
# first extensions


class ExtensionDatum(Frozen):
    """Matrices xi_a : (quotient M's space at the source of a) -> (sub N's
    space at the target of a), one per arrow."""

    _fields = ("xi",)

    def __init__(self, xi: dict):
        self._store(xi)

    def matrix(self, a):
        return self.xi[a]


def _xi_from_vector(layout, vec):
    xi = {}
    for a in "xzyw":
        off, rows, cols = layout[a]
        xi[a] = tuple(tuple(vec[off + i * cols + j] for j in range(cols)) for i in range(rows))
    return xi


def _relation_rows(m: Representation, n: Representation) -> tuple:
    """d^1 of the Ext complex (`ext_dims`), a row per entry of C^2: the
    relation a * w1 - b * w2 (`reps._relation_terms`) linearized, a word
    u c v adding N_u . xi_c . M_v (an empty word acts as the identity)."""
    layout, total = arrow_layout(m, n)
    rows = []
    for w1, w2, a, b in _relation_terms():
        src, tgt = SRC[w1[-1]], TGT[w1[0]]
        terms = [(c, n.word_action(w[:k]) if k else _unit_rows(n.dims[tgt]),
                  m.word_action(w[k + 1:]) if w[k + 1:] else _unit_rows(m.dims[src]), layout[w[k]])
                 for w, c in ((w1, a), (w2, -b)) for k in range(len(w))]
        for i in range(n.dims[tgt]):
            for j in range(m.dims[src]):
                row = [0] * total
                for c, left, right, (off, _, cols) in terms:
                    for p, x in enumerate(left[i]):
                        if x:
                            for q in range(cols):
                                if right[q][j]:
                                    row[off + p * cols + q] += c * x * right[q][j]
                rows.append(tuple(row))
    return tuple(rows)


def ext1(m: Representation, n: Representation):
    """Basis of Ext^1(m, n), as ExtensionDatum: the cocycles (ker d^1) that
    `linalg.independent` keeps outside the coboundaries (im d^0), on m and
    n as given, for `build_extension(m, n, datum)`."""
    layout, total = arrow_layout(m, n)
    cocycles = linalg.nullspace(_relation_rows(m, n), total)
    return [ExtensionDatum(_xi_from_vector(layout, v))
            for v in linalg.independent(intertwiner_matrix(m, n), cocycles, total)]


def build_extension(m: Representation, n: Representation, datum: ExtensionDatum):
    """Block representation with sub n and quotient m, arrow blocks
    [[N_a, xi_a], [0, M_a]].  Returns (rep, inclusion, projection)."""
    mats = []
    for a in "xzyw":
        zero = (Fraction(0),) * n.dims[SRC[a]]
        mats.append(tuple(tuple(na) + tuple(xa) for na, xa in zip(n.matrix(a), datum.matrix(a)))
                    + tuple(zero + tuple(ma) for ma in m.matrix(a)))
    e = Representation((n.dims[0] + m.dims[0], n.dims[1] + m.dims[1]), *mats)
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
    """True iff some invertible module map exists, decided on one Hom(r, s)
    basis: True at an invertible basis map; False when no basis map is
    invertible and dim Hom(r, s) <= 1, as a multiple of a singular map is
    singular; otherwise the answer of 64 rational combinations of the basis
    drawn from a fixed seed, which may miss an isomorphism."""
    if r.dims != s.dims:
        return False
    if r.dims == (0, 0):
        return True
    basis = hom(r, s)
    for phi in basis:
        if linalg.is_invertible(phi.phi0) and linalg.is_invertible(phi.phi1):
            return True
    if len(basis) < 2:
        return False
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
# Ext^0..3 of any pair of modules


def _d2_rows(m: Representation, n: Representation) -> tuple:
    """d^2 of the Ext complex (`ext_dims`), a row per entry of C^3:
    d^2(chi)_v = sum_{s(a)=v} chi_a . M_a - sum_{t(a)=v} N_a . chi_a.  The
    minus sign is the Ginzburg differential's; a plus sign breaks
    d^2 d^1 = 0 only where all four arrows act, not on catalog modules."""
    blocks, total = [], 0
    for a in ARROWS:
        blocks.append((total, m.dims[TGT[a]], SRC[a], m.matrix(a), n.matrix(a)))
        total += n.dims[SRC[a]] * m.dims[TGT[a]]
    rows = []
    for v in (0, 1):
        for p in range(n.dims[v]):
            for q in range(m.dims[v]):
                row = [0] * total
                # no arrow is a loop: v is either its source or its target
                for off, cols, src, ma, na in blocks:
                    if src == v:  # entry (p, q) of chi_a . M_a
                        for j in range(cols):
                            row[off + p * cols + j] = ma[j][q]
                    else:  # entry (p, q) of -N_a . chi_a
                        for i, x in enumerate(na[p]):
                            row[off + i * cols + q] = -x
                rows.append(tuple(row))
    return tuple(rows)


def ext_dims(m: Representation, n: Representation):
    """(dim Ext^0..3)(m, n): the cohomology of the complex that the Ginzburg
    resolution of the 3-Calabi-Yau Jacobi algebra gives, C^0 = C^3 =
    (+)_v Hom(m_v, n_v), C^1 = (+)_a Hom(m_s(a), n_t(a)) and C^2 = (+)_a
    Hom(m_t(a), n_s(a)) (relation d_a W, `paths.ARROWS` order), under the
    intertwiner map, `_relation_rows` and `_d2_rows`.  Each arrow of both
    modules is scaled by one integer, an automorphism of the algebra, which
    keeps Ext; scaling each module on its own would not (`reps._integerize`
    of both turns Hom(point(1, 2), point(1/2, 1)) = Q into 0)."""
    if not (_valid(m) and _valid(n)):
        raise ValueError("both modules must satisfy the relations and be nilpotent")
    both = [(linalg.integer_matrix(m.matrix(a) + n.matrix(a)), m.dims[TGT[a]]) for a in "xzyw"]
    m, n = (Representation(m.dims, *(s[:k] for s, k in both)),
            Representation(n.dims, *(s[k:] for s, k in both)))
    d0, d1, d2 = intertwiner_matrix(m, n), _relation_rows(m, n), _d2_rows(m, n)
    c1 = arrow_layout(m, n)[1]
    # d^1 d^0 and d^2 d^1, each row of the left map by its nonzero entries
    for left, right in ((d1, d0), (d2, linalg.transpose(d1, c1))):
        for row in left:
            nz = [(k, x) for k, x in enumerate(row) if x]
            if any(sum(x * col[k] for k, x in nz) for col in right):
                raise RuntimeError("the Ext complex does not square to zero")
    dims = (len(d0), c1, len(d1), len(d2))
    ranks = (0, linalg.rank(d0, c1), linalg.rank(d1, c1), linalg.rank(d2, len(d1)), 0)
    return tuple(dims[i] - ranks[i] - ranks[i + 1] for i in range(4))


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
