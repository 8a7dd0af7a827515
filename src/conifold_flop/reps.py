"""Finite-dimensional nilpotent representations of the conifold Jacobi
algebra over exact rationals, their central charges, and chamber-dependent
stability verdicts.

A representation keeps four matrices (x, z: V0 -> V1 and y, w: V1 -> V0)
satisfying the four cyclic-derivative relations as matrix identities.
Stability follows the slope rule: an object is stable when every proper
nonzero subrepresentation has strictly smaller phase.  Negative verdicts
come with an exact rational witness subspace, a closure of a kernel or
image seed read off the module's table of path actions (`_path_table`);
positive verdicts rest on exhaustive finite-field subspace scans
(`gfp.subrep_scan_Fp`), escalating through the primes 2, 3, 5 until the
flagged dimension vectors are explained.

The chamber-free work (validity, the exact candidates, End(r), the GF(p)
scans, `arrow_closed`) runs on the integer module `_integerize(r)` and on
canonical integer row spans, the `linalg.echelon` forms: every seed,
layer, closure and annihilator is one, and only the returned candidates
become Fraction bases.  End(r) takes one rank modulo a large prime before
any exact rank (`_end_dim`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import gfp, linalg
from .exactcx import QC, Frozen, admissible, cross
from .gfp import SCAN_PRIMES
from .paths import SRC, TGT, relations
from .truncated import normal_words

# modules whose chamber-free facts (module docstring) are kept, by value
MODULE_CACHE_SIZE = 128


class Representation(Frozen):
    """dims = (d0, d1); mx, mz are d1 x d0, my, mw are d0 x d1."""

    _fields = ("dims", "mx", "mz", "my", "mw")

    def __init__(self, dims: tuple, mx: tuple, mz: tuple, my: tuple, mw: tuple):
        d0, d1 = dims
        for name, m, r, c in (("mx", mx, d1, d0), ("mz", mz, d1, d0),
                              ("my", my, d0, d1), ("mw", mw, d0, d1)):
            if len(m) != r or any(len(row) != c for row in m):
                raise ValueError("%s must be %dx%d" % (name, r, c))
        # written out: the module constructors of every layer call it
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "mx", mx)
        object.__setattr__(self, "mz", mz)
        object.__setattr__(self, "my", my)
        object.__setattr__(self, "mw", mw)

    def __hash__(self):
        # hashed on first use and kept: the module caches look modules up by value
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash((self.dims, self.mx, self.mz, self.my, self.mw)))
            return self._hash

    def matrix(self, arrow):
        return {"x": self.mx, "z": self.mz, "y": self.my, "w": self.mw}[arrow]

    def word_action(self, word):
        """Matrix of a composable word (rightmost arrow acts first)."""
        ncols = self.dims[SRC[word[-1]]]
        out = self.matrix(word[-1])
        for a in reversed(word[:-1]):
            out = linalg.mat_mul(self.matrix(a), out, bcols=ncols)
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
        plus = kind.startswith("vplus")
        if m < (1 if plus else 0):
            raise ValueError("%s needs %s" % (kind, "m >= 1" if plus else "n >= 0"))
        # the active pair maps a space of dim a to one of dim b
        (a, b), shift = ((m - 1, m), 1) if plus else ((m + 1, m), -1)
        one = [[1 if i == j else 0 for j in range(a)] for i in range(b)]
        two = [[1 if i == j + shift else 0 for j in range(a)] for i in range(b)]
        if kind.endswith("_dag"):
            return rep((b, a), linalg.zeros(a, b), linalg.zeros(a, b), one, two)
        return rep((a, b), one, two, linalg.zeros(a, b), linalg.zeros(a, b))
    raise ValueError("unknown catalog kind %r" % kind)


@lru_cache(maxsize=None)
def _relation_terms() -> tuple:
    """Each relation c1 * w1 + c2 * w2 as (w1, w2, a, b) with ints a and b
    and a * w1 = b * w2."""
    out = []
    for rel in relations():
        (w1, c1), (w2, c2) = sorted(rel.coeffs.items())
        out.append((w1, w2, c1.numerator * c2.denominator, -c2.numerator * c1.denominator))
    return tuple(out)


def relations_hold(r: Representation) -> bool:
    """The relations as matrix identities; on an integer module (such as
    `_integerize(r)`) they multiply and compare ints only."""
    if 0 in r.dims:
        return True
    for w1, w2, a, b in _relation_terms():
        for row1, row2 in zip(r.word_action(w1), r.word_action(w2)):
            if any(a * x != b * y for x, y in zip(row1, row2)):
                return False
    return True


def _images(mats, basis):
    """The images of the rows of ``basis`` under each of ``mats``, a list
    that spans the image: int images of int rows under integer matrices."""
    return [linalg.mat_vec(m, v) for m in mats for v in basis]


def _unit_rows(n):
    """The standard basis of Q^n: the `linalg.echelon` form of the whole
    space."""
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


@lru_cache(maxsize=MODULE_CACHE_SIZE)
def _radical_chain(r: Representation) -> tuple:
    """The descending layers V > sum_a im(a) > ... as pairs of
    `linalg.echelon` forms, from V itself to the first layer that no longer
    shrinks; `_valid` and the candidates share it."""
    d0, d1 = r.dims
    chain = [(_unit_rows(d0), _unit_rows(d1))]
    while True:
        u0, u1 = chain[-1]
        n0 = linalg.echelon(_images((r.my, r.mw), u1), d0)
        n1 = linalg.echelon(_images((r.mx, r.mz), u0), d1)
        if (n0, n1) == (u0, u1):
            return tuple(chain)
        chain.append((n0, n1))


def is_nilpotent(r: Representation) -> bool:
    """The radical chain ends at zero."""
    return _radical_chain(r)[-1] == ((), ())


def check_rep(r: Representation) -> dict:
    """Relations and nilpotency, both read off `_integerize(r)`, which
    keeps each of them whether or not ``r`` is a valid module."""
    ri = _integerize(r)
    return {"relations_ok": relations_hold(ri), "nilpotent": is_nilpotent(ri)}


@lru_cache(maxsize=MODULE_CACHE_SIZE)
def _valid(r: Representation) -> bool:
    """Both facts of `check_rep(r)`, cached per module."""
    return all(check_rep(r).values())


@lru_cache(maxsize=MODULE_CACHE_SIZE)
def _integerize(r: Representation) -> Representation:
    """``r`` with each arrow scaled by the lcm of its denominators
    (`linalg.integer_matrix`): a module whose four matrices hold Python
    ints.  The chamber-free work (module docstring) reads its arrows from
    this one copy; `homalg.ext_dims` scales the arrows of two modules
    together.

    Scaling an arrow by a nonzero number changes none of them.  Every term
    of a cyclic derivative uses the same three arrows, so each relation is
    homogeneous in each arrow and holds after the scaling exactly when it
    held before.  A scaled arrow has the same kernel and image, so
    nilpotency and the subrepresentation lattice stay; and a pair of vertex
    maps commutes with an arrow exactly when it commutes with a nonzero
    multiple of it, so End(r) stays.
    """
    return Representation(r.dims, *map(linalg.integer_matrix, (r.mx, r.mz, r.my, r.mw)))


def subrep_scan_Fp(r: Representation, p: int):
    """`gfp.subrep_scan_Fp` of `_integerize(r)`, cached per (module, p)."""
    return list(_scan_Fp(r, p))


@lru_cache(maxsize=MODULE_CACHE_SIZE * len(SCAN_PRIMES))
def _scan_Fp(r, p):
    return tuple(gfp.subrep_scan_Fp(_integerize(r), p))


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


class StabilityParams(Frozen):
    """A pair of central-charge values with phases in (0, pi]."""

    _fields = ("z0", "z1")

    def __init__(self, z0: QC, z1: QC):
        for z in (z0, z1):
            if not admissible(z):
                raise ValueError("central charge values need phase in (0, pi]")
        self._store(z0, z1)

    def on_wall(self) -> bool:
        return cross(self.z0, self.z1) == 0

    def chamber(self) -> int:
        """+1 when arg z0 > arg z1 (the chain modules with x, z active are
        the stable ones), -1 in the flopped chamber."""
        c = cross(self.z0, self.z1)
        if c == 0:
            raise ValueError("parameters lie on the wall arg z0 = arg z1")
        return -1 if c > 0 else 1


def stability_params(z0re, z0im, z1re, z1im) -> StabilityParams:
    return StabilityParams(QC(z0re, z0im), QC(z1re, z1im))


def central_charge(r: Representation, p: StabilityParams) -> QC:
    if r.is_zero():
        raise ValueError("central charge of the zero representation is undefined")
    return r.dims[0] * p.z0 + r.dims[1] * p.z1


# ---------------------------------------------------------------------------
# exact subrepresentation candidates


def _path_table(ri):
    """``table[(s, t)]``, the distinct nonzero matrices of the normal words
    from s to t in the integer module ``ri`` (on a module the words of a
    class act alike), and the seeds (vertex, echelon form): image and
    kernel of each word of length 1..4.  A word acts through its suffix
    w[1:], also a normal word, so one with a zero suffix is not multiplied;
    nilpotency ends the lengths at the first with no nonzero word."""
    table, seeds = {(s, t): {} for s in (0, 1) for t in (0, 1)}, set()
    for src in (0, 1):
        n = ri.dims[src]
        full = _unit_rows(n)
        action, length, live = {}, 0, True
        while live or length < 4:
            length, live = length + 1, False
            for word in normal_words(src, length):
                tgt, m = TGT[word[0]], ri.matrix(word[0])
                if length > 1:
                    m = word[1:] in action and linalg.mat_mul(m, action[word[1:]], bcols=n)
                if not (m and any(map(any, m))):  # image 0, kernel V_src
                    if length <= 4:
                        seeds.update(((tgt, ()), (src, full)))
                    continue
                live, action[word] = True, m
                if m not in table[(src, tgt)]:
                    table[(src, tgt)][m] = None
                    if length <= 4:
                        seeds.add((tgt, linalg.echelon(linalg.transpose(m, n), ri.dims[tgt])))
                        seeds.add((src, linalg.annihilator(m, n)))
    return table, seeds


def _closure_up(table, dims, v, seed):
    """The smallest subrepresentation containing ``seed`` at vertex v: at
    each t, the span of its images under ``table[(v, t)]`` (at v, with it)."""
    return tuple(linalg.echelon([*(seed if t == v else ()), *_images(table[(v, t)], seed)],
                                dims[t]) for t in (0, 1))


def _closure_down(pull, dims, v, seed):
    """The largest subrepresentation inside (``seed`` at v, V at the other):
    at each t, the annihilator of Ann(seed) pulled back through
    ``pull[(t, v)]``, the transposed ``table[(t, v)]`` (at v, with Ann(seed))."""
    ann = linalg.annihilator(seed, dims[v])
    return tuple(linalg.annihilator([*(ann if t == v else ()), *_images(pull[(t, v)], ann)],
                                    dims[t]) for t in (0, 1))


@lru_cache(maxsize=MODULE_CACHE_SIZE)
def exact_subrep_candidates(r: Representation) -> tuple:
    """Proper nonzero subrepresentations found by exact seeds: the radical
    and socle layers, and the closures of the seeds of `_path_table`, of
    the coordinate lines and of the socle lines.  A seed S at v gives the
    smallest subrepresentation containing (S, 0) unless S = 0, and the
    largest inside (S, V) unless S = V_v.  The table needs a module: a
    non-module raises ValueError.  Only the candidates become Fraction
    RREFs.  Cached per module value, hence a tuple."""
    if not _valid(r):
        raise ValueError("representation must satisfy the relations and be nilpotent")
    ri, dims = _integerize(r), r.dims
    table, seeds = _path_table(ri)
    pull = {key: [linalg.transpose(m) for m in mats] for key, mats in table.items()}
    seeds |= {(v, (row,)) for v in (0, 1) for row in _unit_rows(dims[v])}
    # socle lines are echelon forms too, so they meet equal seeds
    socle = linalg.annihilator(ri.mx + ri.mz, dims[0]), linalg.annihilator(ri.my + ri.mw, dims[1])
    lines = {(v, (vec,)) for v in (0, 1) for vec in socle[v]}
    pairs = [*_radical_chain(ri), socle]  # V is dropped with the trivial pairs
    pairs += [_closure_up(table, dims, v, seed) for v, seed in seeds | lines if seed]
    pairs += [_closure_down(pull, dims, v, seed) for v, seed in seeds if len(seed) < dims[v]]
    seen = {(w0, w1) for w0, w1 in pairs if (len(w0), len(w1)) not in ((0, 0), dims)}
    cands = [(linalg.monic(w0), linalg.monic(w1)) for w0, w1 in seen]
    return tuple(sorted(cands, key=lambda p: (len(p[0]) + len(p[1]), len(p[0]), p)))


# ---------------------------------------------------------------------------
# verdicts


class StabilityVerdict(Frozen):
    """kind is "stable", "semistable_only", "unstable" or "undetermined";
    witness is (basis rows at v0, basis rows at v1) for unstable."""

    _fields = ("kind", "primes", "witness_dims", "witness", "flagged")

    def __init__(self, kind: str, primes: tuple = (), witness_dims: tuple = None,
                 witness: tuple = None, flagged: tuple = ()):
        # written out, as in Representation: every verdict builds one
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "primes", primes)
        object.__setattr__(self, "witness_dims", witness_dims)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "flagged", flagged)

    def is_stable(self):
        return self.kind == "stable"


def _destab_sign(sub_dims, dims, c01):
    """Sign of cross(Z(W), Z(V)), where c01 has the sign of cross(z0, z1):
    < 0 strictly bigger phase, 0 equal."""
    c = (sub_dims[0] * dims[1] - sub_dims[1] * dims[0]) * c01
    return (c > 0) - (c < 0)


def is_stable(r: Representation, params: StabilityParams) -> StabilityVerdict:
    """Stability verdict with certificates.

    Exact rational candidate subrepresentations are tested first; a strict
    phase violation returns Unstable with the witness.  Otherwise finite
    field scans over escalating primes bound the possible sub-dimension
    vectors; flags that persist across all primes and are not matched by an
    exact equal-phase witness leave the verdict Undetermined.
    """
    c01 = -params.chamber()  # raises on the wall
    if r.is_zero():
        raise ValueError("stability of the zero representation is undefined")
    dims = r.dims
    equal_phase_dims = set()
    for w0, w1 in exact_subrep_candidates(r):
        sub = (len(w0), len(w1))
        s = _destab_sign(sub, dims, c01)
        if s < 0:
            return StabilityVerdict("unstable", witness_dims=sub, witness=(w0, w1))
        if s == 0:
            equal_phase_dims.add(sub)

    flagged, used = None, []
    for p in SCAN_PRIMES:
        bad = {d for d, _ in subrep_scan_Fp(r, p)
               if d not in ((0, 0), dims) and _destab_sign(d, dims, c01) <= 0}
        flagged = bad if flagged is None else (flagged & bad)
        used.append(p)
        if not flagged - equal_phase_dims:
            break
    unexplained = sorted(flagged - equal_phase_dims)
    if unexplained:
        return StabilityVerdict("undetermined", primes=tuple(used), flagged=tuple(unexplained))
    if equal_phase_dims:  # the flags, if any, are all equal-phase dimension vectors
        return StabilityVerdict("semistable_only", primes=tuple(used),
                                witness_dims=min(flagged or equal_phase_dims))
    # no rational destabilizer; a stable verdict still requires scalar
    # endomorphisms, otherwise the module is a twisted form of equal-phase
    # pieces that splits after a field extension
    e = _end_dim(r)
    if e == 1:
        return StabilityVerdict("stable", primes=tuple(used))
    if dims[0] % e == 0 and dims[1] % e == 0:
        return StabilityVerdict("semistable_only", primes=tuple(used),
                                witness_dims=(dims[0] // e, dims[1] // e))
    return StabilityVerdict("undetermined", primes=tuple(used), flagged=(dims,))


@lru_cache(maxsize=MODULE_CACHE_SIZE)
def _end_dim(r: Representation) -> int:
    """dim End(r), the Schur test of a stable verdict: the nullity of the
    intertwiner map of `_integerize(r)` with itself.  Its equations, the
    columns of the matrix, are eliminated: over Q that is about twice as
    fast as the rows.

    The rank modulo `gfp.LARGE_PRIME` comes first.  It is at most the rank
    over Q, and End(r) holds the scalars, so a nullity of 1 modulo the
    prime is the nullity over Q; any other nullity is taken over Q."""
    n = r.dims[0] ** 2 + r.dims[1] ** 2
    ri = _integerize(r)
    rows = tuple(row for row in zip(*intertwiner_matrix(ri, ri)) if any(row))
    if n - gfp.rank(rows, n, gfp.LARGE_PRIME) == 1:
        return 1
    return n - linalg.rank(rows, n)


# ---------------------------------------------------------------------------
# the intertwiner map


def arrow_layout(m: Representation, n: Representation):
    """Where each arrow sits in the arrow space of (m, n), the tuples of
    maps xi_a : m_src(a) -> n_tgt(a): {a: (offset, rows, cols)} for the
    arrows x, z, y, w in turn, each an n_tgt x m_src block stored
    row-major; and the total size."""
    layout, off = {}, 0
    for a in "xzyw":
        rows, cols = n.dims[TGT[a]], m.dims[SRC[a]]
        layout[a] = (off, rows, cols)
        off += rows * cols
    return layout, off


def intertwiner_matrix(m: Representation, n: Representation) -> tuple:
    """Matrix of the intertwiner map

        delta(eta) = (eta_tgt . M_a - N_a . eta_src)_a

    from the pairs of linear maps eta_v : m_v -> n_v into the arrow space
    of ``arrow_layout(m, n)``.  Row t is delta of the t-th unit pair, the
    unknowns running over eta0 row-major, then eta1.  So the rows span the
    coboundaries of Ext^1(m, n), and a vector of coefficients on the rows
    summing to zero is a module map m -> n.  Entries are those of the
    arrow matrices and their negatives, so integer matrices give the
    same map over GF(p)."""
    layout, total = arrow_layout(m, n)
    # Representation.matrix builds a dict per call: read each arrow once
    arrows = [(layout[a], TGT[a], ma, na) for a, ma, na in
              zip("xzyw", (m.mx, m.mz, m.my, m.mw), (n.mx, n.mz, n.my, n.mw))]
    out = []
    for v in (0, 1):
        for p in range(n.dims[v]):
            for q in range(m.dims[v]):
                row = [0] * total
                # no arrow is a loop: v is either its target or its source
                for (off, rows, cols), tgt, ma, na in arrows:
                    if tgt == v:  # E_pq . M_a: row p is row q of M_a
                        row[off + p * cols:off + (p + 1) * cols] = ma[q]
                    else:  # -N_a . E_pq: column q is minus column p of N_a
                        for i in range(rows):
                            row[off + i * cols + q] = -na[i][p]
                out.append(tuple(row))
    return tuple(out)


def arrow_closed(r: Representation, w0, w1) -> bool:
    """Exact check that the row spans of w0 and w1 form a subrepresentation,
    on any four matrices: their arrow images in `_integerize(r)` change no
    `linalg.echelon` form."""
    ri, spans = _integerize(r), tuple(map(linalg.echelon, (w0, w1), r.dims))
    return all(linalg.echelon([*spans[v], *_images(into, spans[1 - v])], r.dims[v]) == spans[v]
               for v, into in enumerate(((ri.my, ri.mw), (ri.mx, ri.mz))))


def verify_witness(r: Representation, witness, params: StabilityParams) -> bool:
    """Check an unstable witness exactly: closed under all four arrows and
    of phase >= the total phase."""
    w0, w1 = witness
    if not arrow_closed(r, w0, w1):
        return False
    sub = (len(w0), len(w1))
    if sub in ((0, 0), r.dims):
        return False
    return _destab_sign(sub, r.dims, cross(params.z0, params.z1)) <= 0


# ---------------------------------------------------------------------------
# K-theory flop


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
