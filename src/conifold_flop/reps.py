"""Finite-dimensional nilpotent representations of the conifold Jacobi
algebra over exact rationals, their central charges, and chamber-dependent
stability verdicts.

A representation keeps four matrices (x, z: V0 -> V1 and y, w: V1 -> V0)
satisfying the four cyclic-derivative relations as matrix identities.
Stability follows the slope rule: an object is stable when every proper
nonzero subrepresentation has strictly smaller phase.  Negative verdicts
come with an exact rational witness subspace; positive verdicts rest on
exhaustive finite-field subspace scans, escalating through the primes
2, 3, 5 until the flagged dimension vectors are explained.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .exactcx import QC, admissible, cross
from .paths import SRC, TGT, relations
from .truncated import _words_from

SCAN_PRIMES = (2, 3, 5)
MAX_SCAN_DIM = 4


@dataclass(frozen=True)
class Representation:
    """dims = (d0, d1); mx, mz are d1 x d0, my, mw are d0 x d1."""

    dims: tuple
    mx: tuple
    mz: tuple
    my: tuple
    mw: tuple

    def __post_init__(self):
        d0, d1 = self.dims
        for name, m, r, c in (("mx", self.mx, d1, d0), ("mz", self.mz, d1, d0),
                              ("my", self.my, d0, d1), ("mw", self.mw, d0, d1)):
            rows, cols = linalg.shape(m, c)
            if rows != r or (rows and cols != c):
                raise ValueError("%s must be %dx%d" % (name, r, c))

    def matrix(self, arrow):
        return {"x": self.mx, "z": self.mz, "y": self.my, "w": self.mw}[arrow]

    def vertex_dim(self, v):
        return self.dims[v]

    def word_action(self, word):
        """Matrix of a composable word (rightmost arrow acts first)."""
        d = {0: self.dims[0], 1: self.dims[1]}
        src = SRC[word[-1]]
        ncols = d[src]
        cur = src
        out = linalg.identity(ncols)
        for a in reversed(word):
            tgt = TGT[a]
            if d[cur] == 0 or d[tgt] == 0 or ncols == 0:
                out = linalg.zeros(d[tgt], ncols)
            else:
                out = linalg.mat_mul(self.matrix(a), out)
            cur = tgt
        return out

    def is_zero(self):
        return self.dims == (0, 0)

    def total_dim(self):
        return self.dims[0] + self.dims[1]


def rep(dims, mx, mz, my, mw) -> Representation:
    return Representation(tuple(dims), linalg.mat(mx), linalg.mat(mz), linalg.mat(my), linalg.mat(mw))


def zero_rep_matrices(d0, d1):
    return linalg.zeros(d1, d0), linalg.zeros(d1, d0), linalg.zeros(d0, d1), linalg.zeros(d0, d1)


def make_catalog_rep(kind: str, *params) -> Representation:
    """Catalog families.

    simple(v) | point(mx, mz) | point_flopped(my, mw) | vplus(m >= 1) |
    vminus(n >= 0) | vplus_dag(m >= 1) | vminus_dag(n >= 0)

    point parameters are projective: (mx : mz) not both zero.  The chain
    modules follow the explicit bases: vplus(m) has dims (m-1, m) with
    x e_i = f_i and z e_i = f_{i+1}; vminus(n) has dims (n+1, n) with
    x e_i = f_i (i <= n) and z e_i = f_{i-1} (i >= 2); the daggered
    families mirror them with y, w active and x = z = 0.
    """
    if kind == "simple":
        (v,) = params
        if v not in (0, 1):
            raise ValueError("vertex must be 0 or 1")
        d0, d1 = (1, 0) if v == 0 else (0, 1)
        return rep((d0, d1), *zero_rep_matrices(d0, d1))
    if kind in ("point", "point_flopped"):
        mu1, mu2 = Fraction(params[0]), Fraction(params[1])
        if mu1 == 0 and mu2 == 0:
            raise ValueError("point parameters must not both vanish")
        if kind == "point":
            return rep((1, 1), [[mu1]], [[mu2]], [[0]], [[0]])
        return rep((1, 1), [[0]], [[0]], [[mu1]], [[mu2]])
    if kind in ("vplus", "vminus", "vplus_dag", "vminus_dag"):
        (m,) = params
        if kind == "vplus":
            if m < 1:
                raise ValueError("vplus needs m >= 1")
            d0, d1 = m - 1, m
            mx = [[1 if i == j else 0 for j in range(d0)] for i in range(d1)]
            mz = [[1 if i == j + 1 else 0 for j in range(d0)] for i in range(d1)]
            return rep((d0, d1), mx, mz, linalg.zeros(d0, d1), linalg.zeros(d0, d1))
        if kind == "vminus":
            if m < 0:
                raise ValueError("vminus needs n >= 0")
            d0, d1 = m + 1, m
            mx = [[1 if i == j else 0 for j in range(d0)] for i in range(d1)]
            mz = [[1 if i == j - 1 else 0 for j in range(d0)] for i in range(d1)]
            return rep((d0, d1), mx, mz, linalg.zeros(d0, d1), linalg.zeros(d0, d1))
        if kind == "vplus_dag":
            if m < 1:
                raise ValueError("vplus_dag needs m >= 1")
            d0, d1 = m, m - 1
            my = [[1 if i == j else 0 for j in range(d1)] for i in range(d0)]
            mw = [[1 if i == j + 1 else 0 for j in range(d1)] for i in range(d0)]
            return rep((d0, d1), linalg.zeros(d1, d0), linalg.zeros(d1, d0), my, mw)
        if m < 0:
            raise ValueError("vminus_dag needs n >= 0")
        d0, d1 = m, m + 1
        my = [[1 if i == j else 0 for j in range(d1)] for i in range(d0)]
        mw = [[1 if i == j - 1 else 0 for j in range(d1)] for i in range(d0)]
        return rep((d0, d1), linalg.zeros(d1, d0), linalg.zeros(d1, d0), my, mw)
    raise ValueError("unknown catalog kind %r" % kind)


def relations_hold(r: Representation) -> bool:
    d0, d1 = r.dims
    if d0 == 0 or d1 == 0:
        return True
    for rel in relations():
        (w1, c1), (w2, c2) = sorted(rel.coeffs.items())
        lhs = linalg.mat_scale(c1, r.word_action(w1))
        rhs = linalg.mat_scale(-c2, r.word_action(w2))
        if lhs != rhs:
            return False
    return True


def is_nilpotent(r: Representation) -> bool:
    """Descending image chain V >= sum_a im(a) >= ... reaches zero."""
    d0, d1 = r.dims
    u0 = linalg.identity(d0)
    u1 = linalg.identity(d1)
    for _ in range(d0 + d1 + 1):
        if not u0 and not u1:
            return True
        n0 = [linalg.mat_vec(m, v) for m in (r.my, r.mw) for v in u1] if d0 else []
        n1 = [linalg.mat_vec(m, v) for m in (r.mx, r.mz) for v in u0] if d1 else []
        u0 = linalg.row_space(tuple(n0), d0)
        u1 = linalg.row_space(tuple(n1), d1)
    return not u0 and not u1


def check_rep(r: Representation) -> dict:
    return {"relations_ok": relations_hold(r), "nilpotent": is_nilpotent(r)}


def scale_arrow(r: Representation, arrow: str, scalar) -> Representation:
    """Rescaling one arrow by a nonzero rational; preserves relations,
    nilpotency and the subrepresentation lattice."""
    scalar = Fraction(scalar)
    if scalar == 0:
        raise ValueError("arrow scale must be nonzero")
    mats = {a: r.matrix(a) for a in "xzyw"}
    mats[arrow] = linalg.mat_scale(scalar, mats[arrow])
    return Representation(r.dims, mats["x"], mats["z"], mats["y"], mats["w"])


# ---------------------------------------------------------------------------
# stability parameters


@dataclass(frozen=True)
class StabilityParams:
    """A pair of central-charge values with phases in (0, pi]."""

    z0: QC
    z1: QC

    def __post_init__(self):
        for z in (self.z0, self.z1):
            if not admissible(z):
                raise ValueError("central charge values need phase in (0, pi]")

    def on_wall(self) -> bool:
        return cross(self.z0, self.z1) == 0

    def chamber(self) -> int:
        """+1 when arg z0 > arg z1 (the chain modules with x, z active are
        the stable ones), -1 in the flopped chamber."""
        c = cross(self.z0, self.z1)
        if c == 0:
            raise ValueError("parameters lie on the wall arg z0 = arg z1")
        return -1 if c > 0 else 1

    def require_off_wall(self):
        if self.on_wall():
            raise ValueError("parameters lie on the wall arg z0 = arg z1")


def stability_params(z0re, z0im, z1re, z1im) -> StabilityParams:
    return StabilityParams(QC(z0re, z0im), QC(z1re, z1im))


def central_charge(r: Representation, p: StabilityParams) -> QC:
    if r.is_zero():
        raise ValueError("central charge of the zero representation is undefined")
    return r.dims[0] * p.z0 + r.dims[1] * p.z1


# ---------------------------------------------------------------------------
# exact subrepresentation candidates


def _closure_up(r, seed0, seed1):
    d0, d1 = r.dims
    w0 = linalg.row_space(tuple(seed0), d0)
    w1 = linalg.row_space(tuple(seed1), d1)
    while True:
        n1 = list(w1) + [linalg.mat_vec(m, v) for m in (r.mx, r.mz) for v in w0]
        n0 = list(w0) + [linalg.mat_vec(m, v) for m in (r.my, r.mw) for v in w1]
        n0 = linalg.row_space(tuple(n0), d0)
        n1 = linalg.row_space(tuple(n1), d1)
        if len(n0) == len(w0) and len(n1) == len(w1):
            return n0, n1
        w0, w1 = n0, n1


def _closure_down(r, upper0, upper1):
    d0, d1 = r.dims
    w0, w1 = upper0, upper1
    while True:
        n0 = w0
        for m in (r.mx, r.mz):
            n0 = linalg.span_intersect(n0, linalg.preimage(m, w1, d0), d0)
        n1 = w1
        for m in (r.my, r.mw):
            n1 = linalg.span_intersect(n1, linalg.preimage(m, n0, d1), d1)
        if len(n0) == len(w0) and len(n1) == len(w1):
            return n0, n1
        w0, w1 = n0, n1


def exact_subrep_candidates(r: Representation):
    """Proper nonzero subrepresentations found by exact seeds: kernels and
    images of all path actions up to length 4, radical and socle layers,
    socle coordinate lines, and coordinate-line closures.  Seeds are
    deduplicated by vertex and canonical row space before any closure is
    taken; many words share an image or a kernel."""
    d0, d1 = r.dims
    full = (linalg.identity(d0), linalg.identity(d1))
    seeds = set()  # (vertex, reduced row-echelon basis)
    for src in (0, 1):
        n = r.dims[src]
        # each word acts through its suffix w[1:], one length shorter
        action = {"": full[src]}
        for length in range(1, 5):
            for word in _words_from(src, length):
                m = linalg.mat_mul(r.matrix(word[0]), action[word[1:]], bcols=n)
                action[word] = m
                tgt = TGT[word[0]]
                seeds.add((tgt, linalg.row_space(tuple(
                    linalg.mat_vec(m, v) for v in full[src]), r.dims[tgt])))
                seeds.add((src, linalg.row_space(linalg.nullspace(m, n), n)))
    for v in (0, 1):
        seeds.update((v, (row,)) for row in linalg.identity(r.dims[v]))

    pairs = []
    # radical chain
    u0, u1 = full
    for _ in range(d0 + d1):
        n0 = linalg.row_space(tuple(linalg.mat_vec(m, v) for m in (r.my, r.mw) for v in u1), d0)
        n1 = linalg.row_space(tuple(linalg.mat_vec(m, v) for m in (r.mx, r.mz) for v in u0), d1)
        if (n0, n1) == (u0, u1):
            break
        u0, u1 = n0, n1
        pairs.append((u0, u1))
    # socle chain
    s0 = linalg.span_intersect(linalg.nullspace(r.mx, d0), linalg.nullspace(r.mz, d0), d0)
    s1 = linalg.span_intersect(linalg.nullspace(r.my, d1), linalg.nullspace(r.mw, d1), d1)
    pairs.append((s0, s1))
    for v, basis in ((0, s0), (1, s1)):
        for vec in basis:
            seed = [[vec], []] if v == 0 else [[], [vec]]
            pairs.append(_closure_up(r, seed[0], seed[1]))
    for v, seed in seeds:
        s = [seed, ()] if v == 0 else [(), seed]
        pairs.append(_closure_up(r, s[0], s[1]))
        upper = [full[0], full[1]]
        upper[v] = seed
        pairs.append(_closure_down(r, upper[0], upper[1]))

    seen = {}
    for w0, w1 in pairs:
        e0, e1 = len(w0), len(w1)
        if (e0, e1) in ((0, 0), (d0, d1)):
            continue
        seen[(e0, e1, w0, w1)] = (w0, w1)
    return sorted(seen.values(), key=lambda p: (len(p[0]) + len(p[1]), len(p[0]), p))


# ---------------------------------------------------------------------------
# finite-field scans


def _integerize(r: Representation) -> Representation:
    mats = {}
    for a in "xzyw":
        m = r.matrix(a)
        mats[a] = linalg.mat_scale(math.lcm(*(c.denominator for row in m for c in row)), m)
    return Representation(r.dims, mats["x"], mats["z"], mats["y"], mats["w"])


def _mod_matrix(m, p):
    return tuple(tuple(int(c) % p for c in row) for row in m)


def _subspaces_gfp(dim, p):
    """All subspaces of GF(p)^dim as reduced-echelon bases (tuples of rows)."""
    out = [()]
    for k in range(1, dim + 1):
        for pivots in itertools.combinations(range(dim), k):
            free_pos = []
            for i, pc in enumerate(pivots):
                for j in range(pc + 1, dim):
                    if j not in pivots:
                        free_pos.append((i, j))
            for fill in itertools.product(range(p), repeat=len(free_pos)):
                basis = [[0] * dim for _ in range(k)]
                for i, pc in enumerate(pivots):
                    basis[i][pc] = 1
                for (i, j), val in zip(free_pos, fill):
                    basis[i][j] = val
                out.append(tuple(tuple(row) for row in basis))
    return out


def _gfp_rank(rows, ncols, p):
    """Rank over GF(p) by forward elimination."""
    m = [list(row) for row in rows]
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = pow(m[r][c], p - 2, p)
        for i in range(r + 1, len(m)):
            if m[i][c]:
                f = m[i][c] * inv
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        r += 1
    return r


def _gaussian_binomial(n, k, p):
    """Number of k-dimensional subspaces of GF(p)^n."""
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def _interval_counts(out_a, out_b, in_c, in_d, ds, dt, p):
    """Closed pairs counted over the subspaces W of the source vertex s.

    ``out_a``, ``out_b`` map V_s -> V_t and ``in_c``, ``in_d`` map
    V_t -> V_s.  For fixed W the closed partners W' at t are exactly
    the interval U <= W' <= P with U = a(W) + b(W) and P the common
    preimage of W under c and d; P is the kernel of the functionals
    f.c, f.d for f in the annihilator of W.  Yields ((dim W, dim W'),
    count) for every nonempty interval level.
    """
    for w in _subspaces_gfp(ds, p):
        pivots = [next(j for j, c in enumerate(row) if c) for row in w]
        # annihilator of W: one functional per non-pivot column
        ann = []
        for j in range(ds):
            if j not in pivots:
                f = [0] * ds
                f[j] = 1
                for row, pc in zip(w, pivots):
                    f[pc] = -row[j] % p
                ann.append(f)
        cond = [[sum(f[i] * m[i][j] for i in range(ds)) % p for j in range(dt)]
                for m in (in_c, in_d) for f in ann]
        images = [[sum(m[i][j] * v[j] for j in range(ds)) % p for i in range(dt)]
                  for m in (out_a, out_b) for v in w]
        if any(sum(g[j] * u[j] for j in range(dt)) % p for g in cond for u in images):
            continue  # U is not inside P
        lo = _gfp_rank(images, dt, p)
        hi = dt - _gfp_rank(cond, dt, p)
        for j in range(hi - lo + 1):
            yield (len(w), lo + j), _gaussian_binomial(hi - lo, j, p)


def subrep_scan_Fp(r: Representation, p: int):
    """Exhaustive count of arrow-closed subspace pairs over GF(p).

    Arrow rescaling clears denominators first (it preserves the
    subrepresentation lattice).  A pair (W0, W1) is closed exactly when
    x(W0) + z(W0) <= W1 and W1 lies in the common preimage of W0 under y
    and w, so the scan enumerates the subspaces of the smaller vertex only
    and counts the closed partners at the other vertex by Gaussian
    binomials over that interval.  Returns the sorted list of realized
    (dim vector, count) pairs, the zero and full pairs included.
    """
    if p not in SCAN_PRIMES:
        raise ValueError("p must be one of %r" % (SCAN_PRIMES,))
    d0, d1 = r.dims
    if d0 > MAX_SCAN_DIM or d1 > MAX_SCAN_DIM:
        raise ValueError("vertex dimensions above %d are not scanned" % MAX_SCAN_DIM)
    ri = _integerize(r)
    mx, mz, my, mw = (_mod_matrix(ri.matrix(a), p) for a in "xzyw")
    counts = {}
    if d0 <= d1:
        found = _interval_counts(mx, mz, my, mw, d0, d1, p)
    else:
        found = (((k0, k1), n) for (k1, k0), n in _interval_counts(my, mw, mx, mz, d1, d0, p))
    for key, n in found:
        counts[key] = counts.get(key, 0) + n
    return sorted(counts.items())


# ---------------------------------------------------------------------------
# verdicts


@dataclass(frozen=True)
class StabilityVerdict:
    kind: str  # "stable" | "semistable_only" | "unstable" | "undetermined"
    primes: tuple = ()
    witness_dims: tuple = None
    witness: tuple = None  # (basis rows at v0, basis rows at v1) for unstable
    flagged: tuple = ()

    def is_stable(self):
        return self.kind == "stable"


def _destab_sign(sub_dims, dims, params):
    """Sign of cross(Z(W), Z(V)): < 0 strictly bigger phase, 0 equal."""
    c = (sub_dims[0] * dims[1] - sub_dims[1] * dims[0]) * cross(params.z0, params.z1)
    return (c > 0) - (c < 0)


def is_stable(r: Representation, params: StabilityParams,
              primes=SCAN_PRIMES) -> StabilityVerdict:
    """Stability verdict with certificates.

    Exact rational candidate subrepresentations are tested first; a strict
    phase violation returns Unstable with the witness.  Otherwise finite
    field scans over escalating primes bound the possible sub-dimension
    vectors; flags that persist across all primes and are not matched by an
    exact equal-phase witness leave the verdict Undetermined.
    """
    params.require_off_wall()
    if r.is_zero():
        raise ValueError("stability of the zero representation is undefined")
    chk = check_rep(r)
    if not chk["relations_ok"] or not chk["nilpotent"]:
        raise ValueError("representation must satisfy the relations and be nilpotent")
    dims = r.dims
    equal_phase_dims = set()
    for w0, w1 in exact_subrep_candidates(r):
        sub = (len(w0), len(w1))
        s = _destab_sign(sub, dims, params)
        if s < 0:
            return StabilityVerdict("unstable", witness_dims=sub, witness=(w0, w1))
        if s == 0:
            equal_phase_dims.add(sub)

    flagged = None
    used = []
    for p in primes:
        realized = {d for d, _ in subrep_scan_Fp(r, p)}
        bad = {d for d in realized
               if d not in ((0, 0), dims) and _destab_sign(d, dims, params) <= 0}
        flagged = bad if flagged is None else (flagged & bad)
        used.append(p)
        if not flagged - equal_phase_dims:
            break
    unexplained = sorted(flagged - equal_phase_dims)
    if unexplained:
        return StabilityVerdict("undetermined", primes=tuple(used), flagged=tuple(unexplained))
    if flagged:
        sub = sorted(flagged & equal_phase_dims)[0]
        return StabilityVerdict("semistable_only", primes=tuple(used), witness_dims=sub)
    if equal_phase_dims:
        sub = sorted(equal_phase_dims)[0]
        return StabilityVerdict("semistable_only", primes=tuple(used), witness_dims=sub)
    # no rational destabilizer; a stable verdict still requires scalar
    # endomorphisms, otherwise the module is a twisted form of equal-phase
    # pieces that splits after a field extension
    from .homalg import hom_dim

    e = hom_dim(r, r)
    if e == 1:
        return StabilityVerdict("stable", primes=tuple(used))
    if dims[0] % e == 0 and dims[1] % e == 0:
        return StabilityVerdict("semistable_only", primes=tuple(used),
                                witness_dims=(dims[0] // e, dims[1] // e))
    return StabilityVerdict("undetermined", primes=tuple(used), flagged=(dims,))


def arrow_closed(r: Representation, w0, w1) -> bool:
    """Exact check that the row spans of w0 and w1 are carried into each
    other by all four arrows, i.e. form a subrepresentation."""
    for m, src, tgt in ((r.mx, w0, w1), (r.mz, w0, w1), (r.my, w1, w0), (r.mw, w1, w0)):
        for v in src:
            img = linalg.mat_vec(m, v)
            if any(img) and not linalg.in_span(tgt, img):
                return False
    return True


def verify_witness(r: Representation, witness, params: StabilityParams) -> bool:
    """Check an unstable witness exactly: closed under all four arrows and
    of phase >= the total phase."""
    w0, w1 = witness
    if not arrow_closed(r, w0, w1):
        return False
    sub = (len(w0), len(w1))
    if sub in ((0, 0), r.dims):
        return False
    return _destab_sign(sub, r.dims, params) <= 0


# ---------------------------------------------------------------------------
# chamber scan and K-theory flop


def stable_dimvector_scan(params: StabilityParams, bound: int, with_counts=False):
    """Dimension vectors (d0 + d1 <= bound) admitting a stable nilpotent
    representation over GF(2); exhaustive, see the scan module."""
    from . import scan

    params.require_off_wall()
    if bound > 5:
        raise ValueError("bound above 5 is not supported")
    counts = scan.scan_stable_dimvectors(params.chamber(), bound, with_counts=with_counts)
    if with_counts:
        return counts
    return set(counts)


def flop_K(d) -> tuple:
    """Induced map on K-classes in the vertex-simple basis; an involution."""
    d0, d1 = d
    return (-d0 + 2 * d1, d1)


def stable_families(kmax: int):
    """Dimension vectors of the stable classification up to chain index
    ``kmax``: both chain families plus the point class (1, 1); the flopped
    chamber realizes the same set through the mirrored arrow patterns."""
    fams = {(1, 1)}
    fams |= {(m - 1, m) for m in range(1, kmax + 1)}
    fams |= {(n + 1, n) for n in range(0, kmax + 1)}
    return fams
