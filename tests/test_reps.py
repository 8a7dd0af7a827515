import importlib.util
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conifold_flop import gfp, linalg, reps
from conifold_flop.exactcx import QC, admissible, cross, phase_lt
from conifold_flop.paths import SRC, TGT, relations
from conifold_flop.reps import (StabilityParams, arrow_closed, central_charge, check_rep,
                                exact_subrep_candidates, flop_K, is_stable, make_catalog_rep,
                                rep, scale_arrow, stability_params, stable_families,
                                subrep_scan_Fp, verify_witness)
from conifold_flop.truncated import normal_words
from test_quiver import _words_from

CH1 = stability_params(-1, 2, 1, 1)
CH2 = stability_params(1, 1, -1, 2)


def _load_workloads():
    """The benchmark's workload module (its module inputs and its observe
    step), loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads()


# --- catalog -------------------------------------------------------------


@pytest.mark.parametrize("kind,args,dims", [
    ("simple", (0,), (1, 0)), ("simple", (1,), (0, 1)),
    ("point", (1, 0), (1, 1)), ("point_flopped", (1, 1), (1, 1)),
    ("vplus", (1,), (0, 1)), ("vplus", (3,), (2, 3)),
    ("vminus", (0,), (1, 0)), ("vminus", (2,), (3, 2)),
    ("vplus_dag", (2,), (2, 1)), ("vminus_dag", (1,), (1, 2)),
])
def test_catalog_dims_and_validity(kind, args, dims):
    r = make_catalog_rep(kind, *args)
    assert r.dims == dims
    chk = check_rep(r)
    assert chk["relations_ok"] and chk["nilpotent"]


def test_vplus_one_is_the_vertex_simple():
    assert make_catalog_rep("vplus", 1) == make_catalog_rep("simple", 1)
    assert make_catalog_rep("vminus", 0) == make_catalog_rep("simple", 0)


def test_point_rejects_double_zero():
    with pytest.raises(ValueError):
        make_catalog_rep("point", 0, 0)


def test_ragged_arrow_matrices_are_refused():
    z = ((0, 0), (0, 0))
    with pytest.raises(ValueError, match="mx must be 2x2"):
        reps.Representation((2, 2), ((1, 0), (0,)), z, z, z)
    with pytest.raises(ValueError, match="mw must be 2x2"):
        reps.Representation((2, 2), z, z, z, ((0, 0), (0, 0, 0)))
    with pytest.raises(ValueError, match="my must be 2x1"):
        rep((2, 1), [[0, 0]], [[0, 0]], [[0], []], [[0], [0]])


def test_all_scalars_one_is_not_nilpotent():
    r = rep((1, 1), [[1]], [[1]], [[1]], [[1]])
    chk = check_rep(r)
    assert chk["relations_ok"] and not chk["nilpotent"]


def test_relation_violation_detected():
    # dims (2, 2) with x, y generic enough to break xyz = zyx
    r = rep((2, 2), [[1, 0], [0, 0]], [[0, 0], [1, 0]], [[0, 1], [0, 0]], [[0, 0], [0, 0]])
    assert not check_rep(r)["relations_ok"]
    # nilpotent, so only the relations reject it
    r = rep((2, 2), [[-1, 0], [-1, 0]], [[0, 0], [0, 0]], [[0, 0], [-1, -1]], [[-1, 1], [0, 0]])
    assert check_rep(r) == {"relations_ok": False, "nilpotent": True}
    assert not reps._valid(r)


# --- phases ----------------------------------------------------------------


@pytest.mark.parametrize("bad,message", [(QC(0, 0), "phase of zero is undefined"),
                                         (QC(1, 0), r"phase in \(0, pi\]"),
                                         (QC(-1, -1), r"phase in \(0, pi\]")])
def test_phase_lt_refusals_in_either_position(bad, message):
    for args in ((bad, QC(1, 1)), (QC(1, 1), bad)):
        with pytest.raises(ValueError, match=message):
            phase_lt(*args)
    # zero is named before a phase outside (0, pi], whichever argument it is
    for args in ((QC(0, 0), QC(1, 0)), (QC(1, 0), QC(0, 0))):
        with pytest.raises(ValueError, match="phase of zero is undefined"):
            phase_lt(*args)


def test_qc_keeps_fraction_inputs():
    x = Fraction(3, 7)
    u = QC(x, 2)
    assert u.re is x and u.im == 2 and type(u.im) is Fraction
    assert QC(1.5).re == Fraction(3, 2) and type(QC(1.5).im) is Fraction


def test_phase_examples():
    assert phase_lt(QC(1, 1), QC(-1, 2))
    assert not phase_lt(QC(1, 1), QC(1, 1))
    assert not phase_lt(QC(-1, 0), QC(0, 1))  # pi is maximal
    assert phase_lt(QC(0, 1), QC(-1, 0))
    with pytest.raises(ValueError):
        phase_lt(QC(0, 0), QC(1, 1))
    with pytest.raises(ValueError):
        phase_lt(QC(1, 0), QC(1, 1))  # positive axis not admissible


def test_phase_lt_matches_cross_sign_on_seeded_samples():
    # phase_lt decides the sign of cross(u, v) on numerators and
    # denominators; the negative real axis, equal phases and large
    # denominators included
    rng = random.Random(5)
    big = 10 ** 30

    def frac(lo, hi, den_hi):
        return Fraction(rng.randint(lo, hi), rng.randint(1, den_hi))

    us = [QC(-frac(1, big, big), 0) for _ in range(20)]           # negative real axis
    us += [QC(frac(-50, 50, 9), frac(1, 50, 9)) for _ in range(60)]
    us += [QC(frac(-big, big, big), frac(1, big, big)) for _ in range(60)]
    us += [Fraction(rng.randint(1, 9), rng.randint(1, big)) * u for u in us[:80]]  # equal phases
    for u in us:
        assert admissible(u)
        for v in us[::7]:
            assert phase_lt(u, v) == (cross(u, v) > 0)
            assert phase_lt(v, u) == (cross(v, u) > 0)


@st.composite
def _admissible(draw):
    re = draw(st.integers(-60, 60))
    im = draw(st.integers(0, 60))
    den = draw(st.integers(1, 12))
    u = QC(Fraction(re, den), Fraction(im, den))
    if not admissible(u):
        u = QC(Fraction(-abs(re) - 1, den), Fraction(im, den))
    return u


@settings(max_examples=300, derandomize=True)
@given(_admissible(), _admissible(), _admissible())
def test_phase_strict_weak_order(u, v, t):
    assert not phase_lt(u, u)
    assert not (phase_lt(u, v) and phase_lt(v, u))
    if phase_lt(u, v) and phase_lt(v, t):
        assert phase_lt(u, t)
    fu = math.atan2(float(u.im), float(u.re)) or math.pi
    fv = math.atan2(float(v.im), float(v.re)) or math.pi
    if abs(fu - fv) > 1e-9:
        assert phase_lt(u, v) == (fu < fv)


# --- parameters ------------------------------------------------------------


def test_wall_and_chambers():
    assert CH1.chamber() == 1 and CH2.chamber() == -1
    wall = stability_params(-1, 1, -2, 2)
    assert wall.on_wall()
    with pytest.raises(ValueError):
        wall.chamber()
    with pytest.raises(ValueError):
        stability_params(1, 0, 1, 1)  # positive real axis excluded


def test_central_charge():
    assert central_charge(make_catalog_rep("simple", 0), CH1) == QC(-1, 2)
    assert central_charge(make_catalog_rep("point", 1, 1), CH1) == QC(0, 3)
    assert central_charge(make_catalog_rep("vplus", 2), CH1) == QC(1, 4)
    with pytest.raises(ValueError):
        central_charge(rep((0, 0), [], [], [], []), CH1)


# --- finite-field scans ------------------------------------------------------


def test_subrep_scan_vplus2():
    got = subrep_scan_Fp(make_catalog_rep("vplus", 2), 2)
    assert dict(got) == {(0, 0): 1, (0, 1): 3, (0, 2): 1, (1, 2): 1}


def test_subrep_scan_simple_any_prime():
    for p in (2, 3, 5):
        got = subrep_scan_Fp(make_catalog_rep("simple", 0), p)
        assert [d for d, _ in got] == [(0, 0), (1, 0)]


def test_subrep_scan_point():
    got = subrep_scan_Fp(make_catalog_rep("point", 1, 1), 3)
    assert [d for d, _ in got] == [(0, 0), (0, 1), (1, 1)]


def test_subrep_scan_clears_denominators():
    r = make_catalog_rep("point", Fraction(1, 3), Fraction(2, 5))
    got = subrep_scan_Fp(r, 3)
    assert [d for d, _ in got] == [(0, 0), (0, 1), (1, 1)]


def test_subrep_scan_returns_a_list():
    # the subrep-lattice workload tells a scan from a verdict (a tuple) by type
    for kind, args in CATALOG:
        r = make_catalog_rep(kind, *args)
        got = subrep_scan_Fp(r, 2)
        assert type(got) is list
        assert WORKLOADS._lattice_value(got) == [[d0, d1, n] for (d0, d1), n in got]


def test_subrep_scan_rejects_large_dims():
    with pytest.raises(ValueError):
        subrep_scan_Fp(make_catalog_rep("vplus", 6), 2)
    with pytest.raises(ValueError):
        subrep_scan_Fp(make_catalog_rep("vplus", 2), 7)


# --- GF(p) scans against the pairwise oracle and invariants -----------------

# the 19 catalog modules of the subrep-lattice benchmark workload
CATALOG = ([("vplus", (m,)) for m in range(1, 5)] + [("vplus_dag", (m,)) for m in range(1, 5)]
           + [("vminus", (n,)) for n in range(4)] + [("vminus_dag", (n,)) for n in range(4)]
           + [("point", (1, 1)), ("point", (1, 2)), ("point_flopped", (1, 2))])


def _gfp_in_span(basis, vec, p):
    v = list(vec)
    for row in basis:
        lead = next(i for i, c in enumerate(row) if c)
        if v[lead]:
            f = v[lead] * pow(row[lead], p - 2, p) % p
            v = [(a - f * b) % p for a, b in zip(v, row)]
    return all(c == 0 for c in v)


def _gfp_closed(mats, w0, w1, p, dims):
    for m, src, tgt, tgt_dim in ((mats["x"], w0, w1, dims[1]), (mats["z"], w0, w1, dims[1]),
                                 (mats["y"], w1, w0, dims[0]), (mats["w"], w1, w0, dims[0])):
        for v in src:
            img = tuple(sum(m[i][j] * v[j] for j in range(len(v))) % p for i in range(tgt_dim))
            if any(img) and not _gfp_in_span(tgt, img, p):
                return False
    return True


def _oracle_scan(r, p):
    """Brute force: test arrow closure on every pair of subspaces."""
    ri = reps._integerize(r)
    mats = {a: tuple(tuple(c % p for c in row) for row in ri.matrix(a)) for a in "xzyw"}
    counts = {}
    for w0 in gfp._subspaces_gfp(r.dims[0], p):
        for w1 in gfp._subspaces_gfp(r.dims[1], p):
            if _gfp_closed(mats, w0, w1, p, r.dims):
                key = (len(w0), len(w1))
                counts[key] = counts.get(key, 0) + 1
    return sorted(counts.items())


def _gauss(n, k, q):
    """Gaussian binomial [n, k]_q."""
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


@pytest.mark.parametrize("kind,args", CATALOG)
def test_subrep_scan_matches_pairwise_oracle_on_catalog(kind, args):
    r = make_catalog_rep(kind, *args)
    for p in (2, 3, 5):
        if p == 5 and sum(r.dims) > 5:
            continue
        assert subrep_scan_Fp(r, p) == _oracle_scan(r, p)


@st.composite
def _quadruples(draw):
    d0, d1 = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    entries = st.integers(-4, 4)

    def m(rows, cols):
        return [[draw(entries) for _ in range(cols)] for _ in range(rows)]

    return rep((d0, d1), m(d1, d0), m(d1, d0), m(d0, d1), m(d0, d1))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_quadruples(), st.sampled_from((2, 3, 5)))
def test_subrep_scan_matches_pairwise_oracle_on_quadruples(r, p):
    assert subrep_scan_Fp(r, p) == _oracle_scan(r, p)


def test_subspace_enumeration_counts():
    for p in (2, 3, 5):
        for d in range(5):
            spaces = gfp._subspaces_gfp(d, p)
            assert len(set(spaces)) == len(spaces)
            for k in range(d + 1):
                assert sum(len(w) == k for w in spaces) == _gauss(d, k, p)


def test_subrep_scan_zero_arrows_is_product_of_gaussian_binomials():
    for d0 in range(5):
        for d1 in range(5):
            r = rep((d0, d1), *reps.zero_rep_matrices(d0, d1))
            for p in (2, 3, 5):
                assert subrep_scan_Fp(r, p) == [((k0, k1), _gauss(d0, k0, p) * _gauss(d1, k1, p))
                                                for k0 in range(d0 + 1) for k1 in range(d1 + 1)]


def _dual(r):
    """The dual module on the same quiver: x' = y^T, z' = w^T, y' = x^T,
    w' = z^T, valid exactly when ``r`` is.  (W0, W1) is a subrepresentation
    of ``r`` exactly when (Ann W0, Ann W1) is one of the dual."""
    d0, d1 = r.dims
    t = linalg.transpose
    return reps.Representation(r.dims, t(r.my, d1), t(r.mw, d1), t(r.mx, d0), t(r.mz, d0))


def _assert_dual_counts(r, p):
    d0, d1 = r.dims
    dual = {(d0 - k0, d1 - k1): n for (k0, k1), n in subrep_scan_Fp(_dual(r), p)}
    assert dict(subrep_scan_Fp(r, p)) == dual


@pytest.mark.parametrize("kind,args", CATALOG)
def test_subrep_scan_duality_on_catalog(kind, args):
    r = make_catalog_rep(kind, *args)
    for p in (2, 3, 5):
        _assert_dual_counts(r, p)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_quadruples(), st.sampled_from((2, 3, 5)))
def test_subrep_scan_duality_on_quadruples(r, p):
    _assert_dual_counts(r, p)


def _shear(d):
    """Lower unitriangular all-ones d x d matrix and its inverse."""
    g = linalg.mat([[int(i >= j) for j in range(d)] for i in range(d)])
    gi = linalg.mat([[(i == j) - (i == j + 1) for j in range(d)] for i in range(d)])
    return g, gi


def _sheared(r):
    """The same module in the basis change _shear at both vertices; the chain
    modules lose their coordinate-aligned subspaces."""
    d0, d1 = r.dims
    (g0, g0i), (g1, g1i) = _shear(d0), _shear(d1)
    mul = linalg.mat_mul

    def conj(left, m, right, ncols):
        return mul(mul(left, m, ncols), right, ncols)

    return reps.Representation(r.dims, conj(g1, r.mx, g0i, d0), conj(g1, r.mz, g0i, d0),
                               conj(g0, r.my, g1i, d1), conj(g0, r.mw, g1i, d1))


# len(exact_subrep_candidates) of each catalog module as built and sheared;
# deduplicating the seeds must not change what the closures find
CANDIDATE_COUNTS = {
    ("vplus", (1,)): (0, 0), ("vplus", (2,)): (3, 4), ("vplus", (3,)): (10, 11),
    ("vplus", (4,)): (15, 15),
    ("vplus_dag", (1,)): (0, 0), ("vplus_dag", (2,)): (3, 4), ("vplus_dag", (3,)): (10, 11),
    ("vplus_dag", (4,)): (15, 15),
    ("vminus", (0,)): (0, 0), ("vminus", (1,)): (3, 4), ("vminus", (2,)): (8, 10),
    ("vminus", (3,)): (12, 14),
    ("vminus_dag", (0,)): (0, 0), ("vminus_dag", (1,)): (3, 4), ("vminus_dag", (2,)): (8, 10),
    ("vminus_dag", (3,)): (12, 14),
    ("point", (1, 1)): (1, 1), ("point", (1, 2)): (1, 1), ("point_flopped", (1, 2)): (1, 1),
}


@pytest.mark.parametrize("kind,args", CATALOG)
def test_exact_candidates_pinned_and_closed(kind, args):
    r = make_catalog_rep(kind, *args)
    for module, expected in zip((r, _sheared(r)), CANDIDATE_COUNTS[(kind, args)]):
        assert check_rep(module) == {"relations_ok": True, "nilpotent": True}
        cands = exact_subrep_candidates(module)
        assert len(cands) == expected
        assert len(set(cands)) == len(cands)
        for w0, w1 in cands:
            assert (len(w0), len(w1)) not in ((0, 0), r.dims)
            assert arrow_closed(module, w0, w1)


# --- the table of path actions against the closures it replaced ---------------
#
# exact_subrep_candidates used to multiply every normal word of length 1..4,
# close each seed upwards by a worklist of arrow images, and close it
# downwards as the annihilators of an upward closure in the dual module.
# That body is kept here as the oracle of the table of path actions.


def _dense_images(mats, basis):
    """The images of the rows of ``basis`` under each of the dense ``mats``,
    by `linalg.mat_vec`: the oracle of the sparse `reps._images`."""
    return [linalg.mat_vec(m, v) for m in mats for v in basis]


def _worklist_closure_up(r, seed0, seed1):
    """The smallest subrepresentation containing the seeds, as a pair of
    `linalg.echelon` forms.  The rows kept at each vertex grow across the
    passes through `linalg.independent`, and each pass maps only the rows
    that the last one kept; it needs no relations."""
    into, kept = ((r.my, r.mw), (r.mx, r.mz)), ([], [])
    new = (seed0, seed1)
    while True:
        start = [len(k) for k in kept]
        for v in (0, 1):
            kept[v].extend(linalg.independent(kept[v], new[v], r.dims[v]))
        if start == [len(k) for k in kept]:
            return tuple(linalg.echelon(k, n) for k, n in zip(kept, r.dims))
        new = [_dense_images(into[v], kept[1 - v][start[1 - v]:]) for v in (0, 1)]


def _worklist_candidates(r):
    """exact_subrep_candidates through the worklist and the dual module."""
    ri = reps._integerize(r)
    dual = _dual(ri)
    d0, d1 = r.dims
    seeds = set()  # (vertex, echelon form)
    for src in (0, 1):
        n = r.dims[src]
        action, distinct = {}, set()
        for length in range(1, 5):
            for word in normal_words(src, length):
                m = ri.matrix(word[0])
                if length > 1:
                    m = linalg.mat_mul(m, action[word[1:]], bcols=n)
                action[word] = m
                tgt = TGT[word[0]]
                if (tgt, m) not in distinct:
                    distinct.add((tgt, m))
                    seeds.add((tgt, linalg.echelon(linalg.transpose(m, n), r.dims[tgt])))
                    seeds.add((src, linalg.annihilator(m, n)))
    for v in (0, 1):
        seeds.update((v, (row,)) for row in reps._unit_rows(r.dims[v]))
    pairs = list(reps._radical_chain(ri))
    s0 = linalg.annihilator(ri.mx + ri.mz, d0)
    s1 = linalg.annihilator(ri.my + ri.mw, d1)
    pairs.append((s0, s1))
    up = {((vec,), ()) for vec in s0} | {((), (vec,)) for vec in s1}
    down = set()
    for v, seed in seeds:
        lower, ann = [(), ()], [(), ()]
        lower[v], ann[v] = seed, linalg.annihilator(seed, r.dims[v])
        up.add(tuple(lower))
        down.add(tuple(ann))
    pairs += [_worklist_closure_up(ri, *lower) for lower in up]
    pairs += [tuple(map(linalg.annihilator, _worklist_closure_up(dual, *ann), r.dims))
              for ann in down]
    seen = {(w0, w1) for w0, w1 in pairs if (len(w0), len(w1)) not in ((0, 0), (d0, d1))}
    cands = [(linalg.monic(w0), linalg.monic(w1)) for w0, w1 in seen]
    return tuple(sorted(cands, key=lambda p: (len(p[0]) + len(p[1]), len(p[0]), p)))


def _assert_candidates_match_the_worklist(r):
    assert reps._valid(r)
    assert exact_subrep_candidates.__wrapped__(r) == _worklist_candidates(r)


def _conjugated(r, rng):
    """``r`` in an integer basis change at both vertices drawn from ``rng``,
    as the subrep-lattice workload conjugates its modules."""
    (g0, g0i), (g1, g1i) = (WORKLOADS._unimodular(n, rng) for n in r.dims)
    c = WORKLOADS._conjugate
    return rep(r.dims, c(r.mx, g1, g0i), c(r.mz, g1, g0i), c(r.my, g0, g1i), c(r.mw, g0, g1i))


def _catalog_sums():
    """The direct sums of two catalog modules within the scan cap."""
    mods = [make_catalog_rep(kind, *args) for kind, args in CATALOG]
    return [_direct_sum(a, b) for i, a in enumerate(mods) for b in mods[i:]
            if max(a.dims[0] + b.dims[0], a.dims[1] + b.dims[1]) <= gfp.MAX_SCAN_DIM]


def _all_four_arrows_act(r):
    return all(any(map(any, r.matrix(a))) for a in "xzyw")


@pytest.mark.parametrize("kind,args", CATALOG)
def test_candidates_match_the_worklist_oracle_on_catalog(kind, args):
    r = make_catalog_rep(kind, *args)
    for module in (r, _sheared(r), _scaled(r)):
        _assert_candidates_match_the_worklist(module)


@pytest.mark.parametrize("seed", range(6))
def test_candidates_match_the_worklist_oracle_on_workload_conjugates(seed):
    for _, module in WORKLOADS._lattice_prepare(seed):
        _assert_candidates_match_the_worklist(module)


def test_candidates_match_the_worklist_oracle_on_direct_sums():
    sums = _catalog_sums()
    assert len(sums) > 50
    assert sum(map(_all_four_arrows_act, sums)) >= 5
    for r in sums:
        _assert_candidates_match_the_worklist(r)
    for r in filter(_all_four_arrows_act, sums):
        _assert_candidates_match_the_worklist(_sheared(r))


@st.composite
def _conjugated_modules(draw):
    """A catalog module, or a direct sum of two within the scan cap, in a
    drawn integer basis change at both vertices."""
    kind, args = draw(st.sampled_from(CATALOG))
    r = make_catalog_rep(kind, *args)
    if draw(st.booleans()):
        kind, args = draw(st.sampled_from(CATALOG))
        s = _direct_sum(r, make_catalog_rep(kind, *args))
        r = s if max(s.dims) <= gfp.MAX_SCAN_DIM else r
    return _conjugated(r, random.Random(draw(st.integers(0, 2 ** 32))))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_conjugated_modules())
def test_candidates_match_the_worklist_oracle_on_conjugated_modules(r):
    _assert_candidates_match_the_worklist(r)


def test_exact_candidates_refuse_a_non_module():
    # the table of path actions needs the relations (the words of a class
    # act alike) and nilpotency (it ends)
    broken = rep((2, 2), [[-1, 0], [-1, 0]], [[0, 0], [0, 0]], [[0, 0], [-1, -1]], [[-1, 1], [0, 0]])
    loop = rep((1, 1), [[1]], [[1]], [[1]], [[1]])
    assert check_rep(broken) == {"relations_ok": False, "nilpotent": True}
    assert check_rep(loop) == {"relations_ok": True, "nilpotent": False}
    for r in (broken, loop):
        for _ in range(2):
            with pytest.raises(ValueError, match="must satisfy the relations and be nilpotent"):
                exact_subrep_candidates(r)


def test_a_zero_dimensional_vertex_has_only_zero_words():
    r = make_catalog_rep("vplus", 1)  # the vertex simple S1: dims (0, 1)
    table, seeds = reps._path_table(reps._integerize(r))
    assert table == {(0, 0): {}, (0, 1): {}, (1, 0): {}, (1, 1): {}}
    # the zero words' images and kernels
    assert seeds == {(0, ()), (1, ()), (1, ((1,),))}
    calls = _closure_calls(r)
    assert [(kind, v, seed) for kind, v, seed, _ in calls] == [("up", 1, ((1,),)), ("down", 1, ())]
    assert [out for *_, out in calls] == [((), ((1,),)), ((), ())]
    assert exact_subrep_candidates.__wrapped__(r) == _worklist_candidates(r) == ()
    assert is_stable(r, CH1).is_stable() and is_stable(r, CH2).is_stable()


def _string(n):
    """e_0 -x-> f_0 -y-> e_1 -x-> ... -x-> f_(n-1), of dims (n, n) with
    z = w = 0: each relation term holds z or w, so it is a module, and
    x(yx)^(n-1) is a nonzero path of length 2n - 1."""
    unit = [[int(i == j) for j in range(n)] for i in range(n)]
    shift = [[int(i == j + 1) for j in range(n)] for i in range(n)]
    zero = [[0] * n for _ in range(n)]
    return rep((n, n), unit, zero, shift, zero)


@pytest.mark.parametrize("n", [3, 4])
def test_paths_longer_than_four_reach_the_table(n):
    # the table runs past length 4 to the first length with no nonzero word;
    # stopped at 4, the upward closure of e_0 would miss the end of the string
    r = _string(n)
    assert reps._valid(r)
    table, _ = reps._path_table(reps._integerize(r))
    assert len(table[(0, 1)]) == n  # x, xyx, ..., x(yx)^(n-1)
    assert len(table[(0, 0)]) == len(table[(1, 0)]) == len(table[(1, 1)]) == n - 1
    for module in (r, _conjugated(r, random.Random(n))):
        _assert_candidates_match_the_worklist(module)


def _arrow_closed_by_images(r, w0, w1):
    """Closure tested image by image, each image against the span it must
    lie in: the oracle of `arrow_closed`."""
    for m, src, tgt in ((r.mx, w0, w1), (r.mz, w0, w1), (r.my, w1, w0), (r.mw, w1, w0)):
        for v in src:
            img = linalg.mat_vec(m, v)
            if any(img) and not linalg.in_span(tgt, img):
                return False
    return True


def _assert_arrow_closed_matches_images(r, w0, w1):
    """`arrow_closed` against its oracle on (w0, w1), on the pair with a
    repeated row, and on the pair with its last row at either vertex
    dropped; returns the verdict on (w0, w1)."""
    w0, w1 = tuple(w0), tuple(w1)
    pairs = [(w0, w1), (w0 + w0[-1:], w1 + w1[:1]), (w0[:-1], w1), (w0, w1[:-1])]
    for a, b in pairs:
        assert arrow_closed(r, a, b) == _arrow_closed_by_images(r, a, b), (r, a, b)
    return arrow_closed(r, w0, w1)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_quadruples(), st.data())
def test_arrow_closed_matches_image_oracle_on_quadruples(r, data):
    # drawn rows, and their closure in the integer module as Fraction rows
    rows = [data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), max_size=3))
            for n in r.dims]
    _assert_arrow_closed_matches_images(r, *rows)
    spans = map(linalg.echelon, rows, r.dims)
    closure = tuple(map(linalg.monic, _worklist_closure_up(reps._integerize(r), *spans)))
    assert _assert_arrow_closed_matches_images(r, *closure)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_arrow_closed_matches_image_oracle_on_workload_witnesses(seed):
    witnesses = 0
    for _, module in WORKLOADS._lattice_prepare(seed):
        for params in (CH1, CH2):
            verdict = is_stable(module, params)
            if verdict.witness is not None:
                witnesses += 1
                assert _assert_arrow_closed_matches_images(module, *verdict.witness)
    assert witnesses >= 10


def _span_intersect(a, b, ncols):
    """Intersection of two row spans via the kernel of the stacked system,
    on integer rows throughout: the route the exact candidates took for the
    socle before they took the common kernel of the stacked arrows."""
    a = [linalg.integer_row(row) for row in a]
    b = [[-x for x in linalg.integer_row(row)] for row in b]
    if not a or not b:
        return ()
    # coefficients (s, t) with s.A = t.B: kernel of [A^T | -B^T]
    combos = linalg.nullspace(tuple(zip(*a, *b)), len(a) + len(b))
    return linalg.row_space(linalg.mat_mul([linalg.integer_row(c[:len(a)]) for c in combos], a), ncols)


def _preimage(m, target_basis, ncols):
    """Basis of {v : m v in row span of target_basis}; m is (r x ncols)."""
    t = [linalg.integer_row(row) for row in target_basis]
    rows = tuple(tuple(row) + tuple(-u[i] for u in t) for i, row in enumerate(m))
    combos = linalg.nullspace(rows, ncols + len(t))
    return linalg.row_space([v[:ncols] for v in combos], ncols)


def _closure_down_oracle(r, upper0, upper1):
    """The largest subrepresentation inside (upper0, upper1) by preimages and
    intersections, as the exact candidates took it before the dual route
    replaced it (without that body's whole-space shortcut: both steps run on
    every pass)."""
    d0, d1 = r.dims
    w0, w1 = upper0, upper1
    while True:
        n0 = w0
        for m in (r.mx, r.mz):
            n0 = _span_intersect(n0, _preimage(m, w1, d0), d0)
        n1 = w1
        for m in (r.my, r.mw):
            n1 = _span_intersect(n1, _preimage(m, n0, d1), d1)
        if len(n0) == len(w0) and len(n1) == len(w1):
            return n0, n1
        w0, w1 = n0, n1


def _fraction_rref(pair, dims):
    """A pair of bases (ints or Fractions) as canonical Fraction RREFs."""
    return tuple(linalg.row_space(tuple(basis), n) for basis, n in zip(pair, dims))


def _closure_calls(r):
    """Each closure that an uncached run of exact_subrep_candidates takes,
    as (kind, vertex, seed, closure) with kind "up" or "down", recorded
    through `reps._closure_up` and `reps._closure_down`."""
    calls = []

    def recorder(kind, real):
        def record(table, dims, v, seed):
            out = real(table, dims, v, seed)
            calls.append((kind, v, seed, out))
            return out
        return record

    with pytest.MonkeyPatch.context() as mp:
        for kind in ("up", "down"):
            name = "_closure_" + kind
            mp.setattr(reps, name, recorder(kind, getattr(reps, name)))
        exact_subrep_candidates.__wrapped__(r)
    return calls


def _refused(r):
    """True when ``r`` is not a module, after checking that the exact
    candidates refuse it."""
    if reps._valid(r):
        return False
    with pytest.raises(ValueError, match="must satisfy the relations and be nilpotent"):
        exact_subrep_candidates.__wrapped__(r)
    return True


def _assert_canonical_ints(pair, dims):
    assert all(type(x) is int for basis in pair for row in basis for x in row)
    assert pair == tuple(map(linalg.echelon, pair, dims))


def _assert_closure_down_matches_oracle(r):
    # each downward closure of a seed S at v, the largest subrepresentation
    # inside (S, V), against the preimages and intersections
    if _refused(r):
        return
    for kind, v, seed, got in _closure_calls(r):
        if kind == "down":
            upper = [linalg.identity(n) for n in r.dims]
            upper[v] = seed
            _assert_canonical_ints(got, r.dims)
            assert _fraction_rref(got, r.dims) == _closure_down_oracle(r, *upper)


@pytest.mark.parametrize("kind,args", CATALOG)
def test_closure_down_matches_oracle_on_catalog(kind, args):
    r = make_catalog_rep(kind, *args)
    for module in (r, _sheared(r)):
        _assert_closure_down_matches_oracle(module)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_quadruples())
def test_closure_down_matches_oracle_on_quadruples(r):
    # most quadruples are not modules, and are refused
    _assert_closure_down_matches_oracle(r)


def _assert_seeds_taken_once_per_matrix_keep_the_seed_set(r):
    # every word's image and kernel, with no word skipped, and the coordinate
    # lines: closed upwards unless zero and downwards unless the whole space;
    # the socle lines closed upwards; and no closure taken twice
    if _refused(r):
        return
    s0 = _span_intersect(linalg.nullspace(r.mx, r.dims[0]), linalg.nullspace(r.mz, r.dims[0]),
                         r.dims[0])
    s1 = _span_intersect(linalg.nullspace(r.my, r.dims[1]), linalg.nullspace(r.mw, r.dims[1]),
                         r.dims[1])
    seeds = _fraction_seeds(r)
    lines = {(0, (vec,)) for vec in s0} | {(1, (vec,)) for vec in s1}
    want = ({("up", v, seed) for v, seed in seeds | lines if seed}
            | {("down", v, seed) for v, seed in seeds if len(seed) < r.dims[v]})
    calls = [(kind, v, linalg.row_space(seed, r.dims[v])) for kind, v, seed, _ in _closure_calls(r)]
    assert len(calls) == len(set(calls))
    assert set(calls) == want


@pytest.mark.parametrize("kind,args", CATALOG)
def test_seeds_taken_once_per_matrix_keep_the_seed_set_on_catalog(kind, args):
    # the point modules have dims (1, 1) and two zero arrows, so some zero
    # word into vertex 0 and some zero word into vertex 1 are equal
    # matrices: only the target vertex in the key keeps both zero seeds
    r = make_catalog_rep(kind, *args)
    for module in (r, _sheared(r)):
        _assert_seeds_taken_once_per_matrix_keep_the_seed_set(module)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_quadruples())
def test_seeds_taken_once_per_matrix_keep_the_seed_set_on_quadruples(r):
    _assert_seeds_taken_once_per_matrix_keep_the_seed_set(r)


# --- zero arrows and empty blocks ----------------------------------------------
#
# Every module of the subrep-lattice workload is one-sided: two of its four
# arrows are zero, so every loop block of the path table is empty.  The
# closures run no elimination there, and the images combine sparse rows.


@st.composite
def _matrices_and_rows(draw):
    """(mats, vs, fs, ncols): one to three integer matrices of one shape,
    mostly zero, with rows vs to map and functionals fs to pull back."""
    nrows, ncols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    entry = st.sampled_from((0, 0, 0, 1, -1, 2, -3, 7))

    def rows(n, length):
        return [tuple(draw(entry) for _ in range(length)) for _ in range(n)]

    mats = [rows(nrows, ncols) for _ in range(draw(st.integers(1, 3)))]
    return mats, rows(draw(st.integers(0, 4)), ncols), rows(draw(st.integers(0, 4)), nrows), ncols


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_matrices_and_rows())
def test_sparse_combinations_equal_dense_images(problem):
    mats, vs, fs, ncols = problem
    nrows = len(mats[0])
    images = reps._images([reps._columns(m, ncols) for m in mats], vs, nrows)
    pullbacks = reps._images(list(map(linalg.sparse_rows, mats)), fs, ncols)
    assert list(map(tuple, images)) == _dense_images(mats, vs)
    assert list(map(tuple, pullbacks)) == _dense_images([linalg.transpose(m, ncols) for m in mats], fs)
    assert all(type(x) is int for row in images + pullbacks for x in row)


def test_check_rep_is_false_with_zero_arrows():
    # x = 0: the three relations through x hold, and yzw = wzy breaks
    broken = rep((2, 2), [[0, 0], [0, 0]], [[0, 0], [0, 1]], [[0, 0], [1, 0]], [[0, 1], [0, 0]])
    assert check_rep(broken) == {"relations_ok": False, "nilpotent": True}
    assert not _fraction_relations_hold(broken)
    # with two arrows zero every relation word, three of the four arrows,
    # passes through one, so only nilpotency can fail: here the loop zw
    loop = rep((1, 1), [[0]], [[1]], [[0]], [[1]])
    assert check_rep(loop) == {"relations_ok": True, "nilpotent": False}


def test_a_relation_word_through_a_zero_arrow_acts_as_zero(monkeypatch):
    # the words of each relation of the potential pass through the same
    # arrows; the made-up relation yx = wz does not
    monkeypatch.setattr(reps, "_relation_terms", lambda: (("yx", "wz", 1, 1),))
    one, two, zero = [[1]], [[2]], [[0]]
    assert reps.relations_hold(rep((1, 1), one, one, one, one))
    assert not reps.relations_hold(rep((1, 1), one, one, two, one))
    assert not reps.relations_hold(rep((1, 1), zero, one, one, one))  # yx = 0, wz = 1
    assert not reps.relations_hold(rep((1, 1), zero, one, zero, one))
    assert reps.relations_hold(rep((1, 1), zero, zero, one, one))  # both words are 0
    assert reps.relations_hold(rep((1, 1), one, zero, zero, one))


@st.composite
def _quadruples_with_zero_arrows(draw):
    """A quadruple of `_quadruples` with one or two of its arrows zeroed."""
    r = draw(_quadruples())
    zeroed = draw(st.sampled_from(["x", "z", "y", "w", "xz", "yw", "xy", "xw", "zy", "zw"]))
    mats = {a: linalg.zeros(*linalg.shape(r.matrix(a), r.dims[SRC[a]])) if a in zeroed
            else r.matrix(a) for a in "xzyw"}
    return reps.Representation(r.dims, *(mats[a] for a in "xzyw"))


@settings(max_examples=120, derandomize=True, deadline=None)
@given(_quadruples_with_zero_arrows())
def test_check_rep_matches_fractions_with_zero_arrows(r):
    assert check_rep(r) == {"relations_ok": _fraction_relations_hold(r),
                            "nilpotent": _fraction_is_nilpotent(r)}


CHAINS = ["vplus", "vminus", "vplus_dag", "vminus_dag"]


@pytest.mark.parametrize("kind", CHAINS)
def test_candidates_of_the_chain_families_at_eight_match_the_worklist_oracle(kind):
    r = make_catalog_rep(kind, 8)
    for module in (r, _sheared(r)):
        _assert_candidates_match_the_worklist(module)


class _Eliminations:
    """Stands in for `linalg` inside `reps` and records each call of
    `echelon` and `annihilator` (not the calls inside `linalg`)."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        return getattr(linalg, name)

    def echelon(self, rows, ncols=None):
        self.calls.append("echelon")
        return linalg.echelon(rows, ncols)

    def annihilator(self, rows, ncols):
        self.calls.append("annihilator")
        return linalg.annihilator(rows, ncols)


@pytest.mark.parametrize("kind", CHAINS)
def test_closures_of_a_one_sided_module_eliminate_on_nonempty_blocks_only(kind):
    r = make_catalog_rep(kind, 8)
    table, _ = reps._path_table(reps._integerize(r))
    (s, t), = [key for key, mats in table.items() if mats]  # the one live block, s -> t
    assert s != t
    elim, closures = _Eliminations(), []

    def recorder(kind, real):
        def record(blocks, dims, v, seed):
            start = len(elim.calls)
            out = real(blocks, dims, v, seed)
            closures.append((kind, v, elim.calls[start:]))
            return out
        return record

    with pytest.MonkeyPatch.context() as mp:
        for name in ("up", "down"):
            mp.setattr(reps, "_closure_" + name, recorder(name, getattr(reps, "_closure_" + name)))
        mp.setattr(reps, "linalg", elim)
        got = exact_subrep_candidates.__wrapped__(r)
    assert got == _worklist_candidates(r)
    assert {(kind, v) for kind, v, _ in closures} == {(k, v) for k in ("up", "down") for v in (0, 1)}
    # upwards one echelon form at t from s, none from t; downwards Ann(seed)
    # and one pull-back at s from t, none from s
    for kind, v, calls in closures:
        if kind == "up":
            assert calls == (["echelon"] if v == s else []), (kind, v)
        else:
            assert calls == (["annihilator"] * 2 if v == t else []), (kind, v)


# --- the integer module against the Fraction bodies it replaced ----------------
#
# Validity, the exact candidates and End(r) used to run on the module as
# given, in Fraction arithmetic.  These are those bodies, kept as oracles.


def _fraction_word_action(r, word):
    d = {0: r.dims[0], 1: r.dims[1]}
    src = SRC[word[-1]]
    ncols = d[src]
    cur = src
    out = linalg.identity(ncols)
    for a in reversed(word):
        tgt = TGT[a]
        if d[cur] == 0 or d[tgt] == 0 or ncols == 0:
            out = linalg.zeros(d[tgt], ncols)
        else:
            out = linalg.mat_mul(r.matrix(a), out)
        cur = tgt
    return out


def _fraction_radical_chain(r):
    d0, d1 = r.dims
    chain = [(linalg.identity(d0), linalg.identity(d1))]
    while True:
        u0, u1 = chain[-1]
        n0 = linalg.row_space(tuple(linalg.mat_vec(m, v) for m in (r.my, r.mw) for v in u1), d0)
        n1 = linalg.row_space(tuple(linalg.mat_vec(m, v) for m in (r.mx, r.mz) for v in u0), d1)
        if (n0, n1) == (u0, u1):
            return chain
        chain.append((n0, n1))


def _fraction_relations_hold(r):
    d0, d1 = r.dims
    if d0 and d1:
        for rel in relations():
            (w1, c1), (w2, c2) = sorted(rel.coeffs.items())
            if (linalg.mat_scale(c1, _fraction_word_action(r, w1))
                    != linalg.mat_scale(-c2, _fraction_word_action(r, w2))):
                return False
    return True


def _fraction_is_nilpotent(r):
    return _fraction_radical_chain(r)[-1] == ((), ())


def _fraction_valid(r):
    return _fraction_relations_hold(r) and _fraction_is_nilpotent(r)


def _fraction_closure_up(r, seed0, seed1):
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


def _assert_closure_up_matches_fractions(r):
    # every upward closure an uncached run takes; the closure is a pair of
    # integer echelon forms, compared as Fraction RREFs
    if _refused(r):
        return
    for kind, v, seed, got in _closure_calls(r):
        if kind == "up":
            lower = [(), ()]
            lower[v] = seed
            _assert_canonical_ints(got, r.dims)
            assert _fraction_rref(got, r.dims) == _fraction_closure_up(r, *lower)


@pytest.mark.parametrize("kind,args", CATALOG)
def test_closure_up_matches_fractions_on_catalog(kind, args):
    r = make_catalog_rep(kind, *args)
    for module in (r, _sheared(r)):
        _assert_closure_up_matches_fractions(module)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_quadruples())
def test_closure_up_matches_fractions_on_quadruples(r):
    _assert_closure_up_matches_fractions(r)


def _fraction_seeds(r, words=normal_words):
    """The seeds of the exact candidates, (vertex, canonical basis): the
    image and kernel of each of ``words(source, length)`` for the lengths
    1..4, each word taken, and the coordinate lines.  Each word acts
    through its suffix, so the normal words of the classes, the default,
    must be closed under suffixes."""
    full = (linalg.identity(r.dims[0]), linalg.identity(r.dims[1]))
    seeds = set()
    for src in (0, 1):
        n = r.dims[src]
        action = {"": full[src]}
        for length in range(1, 5):
            for word in words(src, length):
                m = linalg.mat_mul(r.matrix(word[0]), action[word[1:]], bcols=n)
                action[word] = m
                tgt = TGT[word[0]]
                seeds.add((tgt, linalg.row_space(tuple(
                    linalg.mat_vec(m, v) for v in full[src]), r.dims[tgt])))
                seeds.add((src, linalg.row_space(linalg.nullspace(m, n), n)))
    for v in (0, 1):
        seeds.update((v, (row,)) for row in linalg.identity(r.dims[v]))
    return seeds


def _fraction_candidates(r):
    d0, d1 = r.dims
    full = (linalg.identity(d0), linalg.identity(d1))
    seeds = _fraction_seeds(r)
    pairs = _fraction_radical_chain(r)
    s0 = _span_intersect(linalg.nullspace(r.mx, d0), linalg.nullspace(r.mz, d0), d0)
    s1 = _span_intersect(linalg.nullspace(r.my, d1), linalg.nullspace(r.mw, d1), d1)
    pairs.append((s0, s1))
    for v, basis in ((0, s0), (1, s1)):
        for vec in basis:
            seed = [[vec], []] if v == 0 else [[], [vec]]
            pairs.append(_fraction_closure_up(r, seed[0], seed[1]))
    for v, seed in seeds:
        s = [seed, ()] if v == 0 else [(), seed]
        pairs.append(_fraction_closure_up(r, s[0], s[1]))
        upper = [full[0], full[1]]
        upper[v] = seed
        pairs.append(_closure_down_oracle(r, upper[0], upper[1]))

    seen = {}
    for w0, w1 in pairs:
        e0, e1 = len(w0), len(w1)
        if (e0, e1) in ((0, 0), (d0, d1)):
            continue
        seen[(e0, e1, w0, w1)] = (w0, w1)
    return tuple(sorted(seen.values(), key=lambda p: (len(p[0]) + len(p[1]), len(p[0]), p)))


def _fraction_end_dim(r):
    n = r.dims[0] ** 2 + r.dims[1] ** 2
    rows = tuple(row for row in zip(*reps.intertwiner_matrix(r, r)) if any(row))
    return n - linalg.rank(rows, n)


def _assert_check_rep_matches_fractions(r):
    assert check_rep(r) == {"relations_ok": _fraction_relations_hold(r),
                            "nilpotent": _fraction_is_nilpotent(r)}


def _assert_integer_module_matches_fractions(r):
    if not _refused(r):
        cands = exact_subrep_candidates.__wrapped__(r)
        assert cands == _fraction_candidates(r)
        assert all(type(x) is Fraction
                   for pair in cands for basis in pair for row in basis for x in row)
    assert reps._valid.__wrapped__(r) == _fraction_valid(r)
    assert reps._end_dim.__wrapped__(r) == _fraction_end_dim(r)
    _assert_check_rep_matches_fractions(r)


def _scaled(r):
    """r with x scaled by 2/3 and w by 5/7: denominators in two arrows."""
    return scale_arrow(scale_arrow(r, "x", Fraction(2, 3)), "w", Fraction(5, 7))


@pytest.mark.parametrize("kind,args", CATALOG)
def test_integer_module_matches_fractions_on_catalog(kind, args):
    r = make_catalog_rep(kind, *args)
    for module in (r, _sheared(r), _scaled(r), _scaled(_sheared(r))):
        _assert_integer_module_matches_fractions(module)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_integer_module_matches_fractions_on_workload_conjugates(seed):
    for _, module in WORKLOADS._lattice_prepare(seed):
        _assert_integer_module_matches_fractions(module)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_quadruples())
def test_integer_module_matches_fractions_on_quadruples(r):
    # most quadruples break the relations, and the candidates refuse them;
    # both outcomes of each check_rep fact occur
    _assert_integer_module_matches_fractions(r)
    _assert_integer_module_matches_fractions(_scaled(r))


def test_integer_module_matches_fractions_on_rational_points():
    for mu in ((Fraction(1, 2), 3), (Fraction(-4, 9), Fraction(5, 6))):
        for kind in ("point", "point_flopped"):
            _assert_integer_module_matches_fractions(make_catalog_rep(kind, *mu))


def _valid_modules():
    """The catalog modules and their shears, the subrep-lattice conjugates
    of the seeds 0..2, and the rational points."""
    for kind, args in CATALOG:
        r = make_catalog_rep(kind, *args)
        yield from (r, _sheared(r))
    for seed in (0, 1, 2):
        yield from (module for _, module in WORKLOADS._lattice_prepare(seed))
    for mu in ((Fraction(1, 2), 3), (Fraction(-4, 9), Fraction(5, 6))):
        yield from (make_catalog_rep(kind, *mu) for kind in ("point", "point_flopped"))


def test_class_words_give_the_seeds_of_all_words_on_valid_modules():
    # on a module satisfying the relations the words of a class act alike
    for r in _valid_modules():
        assert reps._valid(r)
        assert _fraction_seeds(r, _words_from) == _fraction_seeds(r)


CHECK_REP_CHAINS = [(kind, (m,)) for kind in ("vplus", "vplus_dag") for m in range(1, 9)] + [
    (kind, (n,)) for kind in ("vminus", "vminus_dag") for n in range(9)]


@pytest.mark.parametrize("kind,args", CHECK_REP_CHAINS + [("simple", (0,)), ("simple", (1,)),
                                                          ("point", (Fraction(1, 2), 3))])
def test_check_rep_matches_fractions_on_catalog(kind, args):
    r = make_catalog_rep(kind, *args)
    for module in (r, scale_arrow(r, "x", Fraction(2, 3)), scale_arrow(r, "w", Fraction(5, 7)),
                   _scaled(r)):
        _assert_check_rep_matches_fractions(module)


def test_integerize_scales_each_arrow_to_ints():
    r = _scaled(_sheared(make_catalog_rep("vminus", 3)))
    ri = reps._integerize(r)
    assert ri.dims == r.dims
    for a, den in zip("xzyw", (3, 1, 1, 7)):
        assert ri.matrix(a) == linalg.mat_scale(den, r.matrix(a))
        assert all(type(c) is int for row in ri.matrix(a) for c in row)
    assert reps._integerize(r) is ri  # cached per module value


class _IntegerOnly:
    """Stands in for `linalg` inside `reps` and refuses a product or an
    elimination whose inputs are not all ints.  A product with no terms
    gives int zeros, so a module with a zero vertex passes no Fraction
    either."""

    def __getattr__(self, name):
        return getattr(linalg, name)

    @staticmethod
    def _ints(m):
        return all(type(x) is int for row in m for x in row)

    def mat_mul(self, a, b, bcols=None):
        assert self._ints(a) and self._ints(b), "Fraction product"
        out = linalg.mat_mul(a, b, bcols)
        assert self._ints(out), "Fraction product"
        return out

    def mat_vec(self, m, v):
        assert self._ints(m) and self._ints((v,)), "Fraction product"
        return linalg.mat_vec(m, v)

    def rank(self, rows, ncols=None):  # the End dimension's elimination
        assert self._ints(rows), "Fraction rows"
        return linalg.rank(rows, ncols)

    def echelon(self, rows, ncols=None):  # seeds, layers and closures
        assert self._ints(rows), "Fraction rows"
        return linalg.echelon(rows, ncols)

    def annihilator(self, rows, ncols):
        assert self._ints(rows), "Fraction rows"
        return linalg.annihilator(rows, ncols)


@pytest.mark.parametrize("kind,args", CATALOG)
def test_chamber_free_work_multiplies_ints_only(kind, args, monkeypatch):
    r = _scaled(_sheared(make_catalog_rep(kind, *args)))
    want = _fraction_candidates(r), _fraction_valid(r), _fraction_end_dim(r)
    monkeypatch.setattr(reps, "linalg", _IntegerOnly())
    assert (exact_subrep_candidates.__wrapped__(r), reps._valid.__wrapped__(r),
            reps._end_dim.__wrapped__(r)) == want


# --- the End dimension: one rank mod a large prime, then the exact rank ---------


def _direct_sum(a, b):
    """a + b with block-diagonal arrows."""
    def block(ma, mb, cols_a, cols_b):
        return [list(row) + [0] * cols_b for row in ma] + [[0] * cols_a + list(row) for row in mb]

    (a0, a1), (b0, b1) = a.dims, b.dims
    return rep((a0 + b0, a1 + b1), *(block(a.matrix(x), b.matrix(x), a0, b0) for x in "xz"),
               *(block(a.matrix(x), b.matrix(x), a1, b1) for x in "yw"))


def _end_dim_with_exact_ranks(r):
    """(_end_dim of an uncached run, the number of exact ranks it took)."""
    calls, exact = [], linalg.rank

    def counted(rows, ncols=None):
        calls.append(ncols)
        return exact(rows, ncols)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reps.linalg, "rank", counted)
        e = reps._end_dim.__wrapped__(r)
    return e, len(calls)


@pytest.mark.parametrize("a,b,want", [
    (("point", (1, 1)), ("point", (1, 1)), 4),
    (("vplus", (2,)), ("vplus", (2,)), 4),
    (("point", (1, 1)), ("point", (1, 2)), 2),
    (("point", (1, 1)), ("vplus", (2,)), 3),
])
def test_end_dim_above_one_takes_the_exact_rank(a, b, want):
    r = _direct_sum(make_catalog_rep(a[0], *a[1]), make_catalog_rep(b[0], *b[1]))
    assert check_rep(r) == {"relations_ok": True, "nilpotent": True}
    for module in (r, _sheared(r), _scaled(r)):
        assert _end_dim_with_exact_ranks(module) == (want, 1)
        assert _fraction_end_dim(module) == want


@pytest.mark.parametrize("r,nullity_mod_p", [
    # point(p : p) is S0 + S1 modulo p
    (make_catalog_rep("point", gfp.LARGE_PRIME, gfp.LARGE_PRIME), 2),
    # x of vplus(2) vanishes modulo p, where a copy of S1 splits off
    (scale_arrow(make_catalog_rep("vplus", 2), "x", gfp.LARGE_PRIME), 3),
])
def test_end_dim_when_the_large_prime_divides_an_arrow(r, nullity_mod_p):
    # modulo the prime the module splits, but over Q End is the scalars
    n = r.dims[0] ** 2 + r.dims[1] ** 2
    rows = tuple(zip(*reps.intertwiner_matrix(reps._integerize(r), reps._integerize(r))))
    assert n - gfp.rank(rows, n, gfp.LARGE_PRIME) == nullity_mod_p
    assert _end_dim_with_exact_ranks(r) == (1, 1)


@pytest.mark.parametrize("kind,args", CATALOG)
def test_end_dim_one_needs_no_exact_rank(kind, args):
    # every catalog module is a brick: End is the scalars, read off the rank
    # modulo the large prime alone
    r = make_catalog_rep(kind, *args)
    for module in (r, _sheared(r), _scaled(r)):
        assert _end_dim_with_exact_ranks(module) == (1, 0)


# --- per-module caches ----------------------------------------------------------


def _clear_module_caches():
    for cached in (reps._valid, exact_subrep_candidates, reps._end_dim, reps._integerize,
                   reps._radical_chain, reps._scan_Fp):
        cached.cache_clear()


@pytest.mark.parametrize("kind,args", CATALOG)
def test_module_caches_change_no_verdict(kind, args):
    r = make_catalog_rep(kind, *args)
    for module in (r, _sheared(r)):
        # each order starts from cleared caches, so its first verdict is the
        # cold one and its second reuses what the other chamber cached
        _clear_module_caches()
        plus_first = is_stable(module, CH1), is_stable(module, CH2)
        _clear_module_caches()
        minus_first = is_stable(module, CH2), is_stable(module, CH1)
        # StabilityVerdict equality compares the witness bases too
        assert plus_first == minus_first[::-1]


def test_equal_modules_share_cached_candidates():
    _clear_module_caches()
    a, b = make_catalog_rep("vplus", 3), make_catalog_rep("vplus", 3)
    assert a is not b and a == b
    first = exact_subrep_candidates(a)
    assert isinstance(first, tuple)
    assert exact_subrep_candidates(b) is first
    assert exact_subrep_candidates.cache_info().hits == 1


def test_validity_and_candidates_share_one_radical_chain():
    _clear_module_caches()
    r = _sheared(make_catalog_rep("vminus", 3))
    assert reps._valid(r)
    assert reps._radical_chain.cache_info()[:2] == (0, 1)  # (hits, misses)
    exact_subrep_candidates(r)
    assert reps._radical_chain.cache_info()[:2] == (1, 1)


def test_scans_are_cached_per_module_and_prime_as_fresh_lists():
    _clear_module_caches()
    r = make_catalog_rep("vplus", 3)
    first = subrep_scan_Fp(r, 2)
    first.append("a caller's own entry")
    again = subrep_scan_Fp(r, 2)
    assert again == first[:-1] == gfp.subrep_scan_Fp(reps._integerize(r), 2)
    assert type(again) is list and again is not first
    subrep_scan_Fp(make_catalog_rep("vplus", 3), 3)
    assert reps._scan_Fp.cache_info()[:2] == (1, 2)


def test_invalid_module_raises_on_every_call():
    _clear_module_caches()
    broken = rep((2, 2), [[1, 0], [0, 0]], [[0, 0], [1, 0]], [[0, 1], [0, 0]], [[0, 0], [0, 0]])
    for _ in range(2):
        with pytest.raises(ValueError, match="must satisfy the relations"):
            is_stable(broken, CH1)
    assert reps._valid.cache_info().hits == 1


# --- verdicts -----------------------------------------------------------------


def test_vplus2_stable_then_unstable():
    r = make_catalog_rep("vplus", 2)
    assert is_stable(r, CH1).is_stable()
    v = is_stable(r, CH2)
    assert v.kind == "unstable" and v.witness_dims == (0, 1)
    assert verify_witness(r, v.witness, CH2)


@pytest.mark.parametrize("m", [5, 8])
def test_verdicts_above_the_scan_cap(m):
    # chamber -1 finds an exact destabilizer before any scan; chamber +1
    # finds none and stops at the scan's dimension cap
    r = make_catalog_rep("vplus", m)
    v = is_stable(r, CH2)
    assert v.kind == "unstable" and v.witness_dims == (0, 1)
    assert verify_witness(r, v.witness, CH2)
    with pytest.raises(ValueError, match="vertex dimensions above 4 are not scanned"):
        is_stable(r, CH1)


def test_degenerate_points_stable_in_plus_chamber():
    for mu in ((1, 0), (0, 1), (1, 1), (1, 2)):
        assert is_stable(make_catalog_rep("point", *mu), CH1).is_stable()


def test_daggered_families_stable_after_flop():
    assert is_stable(make_catalog_rep("vplus_dag", 2), CH2).is_stable()
    assert is_stable(make_catalog_rep("point_flopped", 1, 1), CH2).is_stable()
    assert is_stable(make_catalog_rep("vplus_dag", 2), CH1).kind == "unstable"


def test_semistable_only_direct_sum():
    two = rep((0, 2), [[], []], [[], []], [], [])
    v = is_stable(two, CH1)
    assert v.kind == "semistable_only"
    assert v.witness_dims == (0, 1)


def test_twisted_form_is_not_reported_stable():
    # x = [[1,1],[0,1]], z = [[0,1],[1,0]]: no rational destabilizer, but the
    # endomorphism algebra is a quadratic field, so the module splits into two
    # equal-phase pieces after base change
    r = rep((2, 2), [[1, 1], [0, 1]], [[0, 1], [1, 0]], [[0, 0], [0, 0]], [[0, 0], [0, 0]])
    assert check_rep(r) == {"relations_ok": True, "nilpotent": True}
    v = is_stable(r, CH1)
    assert v.kind == "semistable_only"
    assert v.witness_dims == (1, 1)


def test_wall_rejected():
    wall = StabilityParams(QC(-1, 1), QC(-2, 2))
    with pytest.raises(ValueError):
        is_stable(make_catalog_rep("vplus", 2), wall)


def test_a_verdict_takes_the_sign_of_cross_z0_z1_once(monkeypatch):
    calls = []

    def counted(u, v):
        calls.append((u, v))
        return cross(u, v)

    monkeypatch.setattr(reps, "cross", counted)
    for kind, args in (("vplus", (2,)), ("vminus", (3,)), ("point", (1, 1)), ("vplus_dag", (3,))):
        for params in (CH1, CH2):
            calls.clear()
            is_stable(make_catalog_rep(kind, *args), params)
            assert calls == [(params.z0, params.z1)]


def test_preconditions_checked():
    bad = rep((1, 1), [[1]], [[1]], [[1]], [[1]])  # not nilpotent
    with pytest.raises(ValueError):
        is_stable(bad, CH1)


def test_rescaling_preserves_verdicts():
    r = make_catalog_rep("vplus", 2)
    s = scale_arrow(scale_arrow(r, "x", Fraction(3, 7)), "z", Fraction(-2, 5))
    assert check_rep(s) == check_rep(r)
    assert is_stable(s, CH1).kind == is_stable(r, CH1).kind
    assert is_stable(s, CH2).kind == is_stable(r, CH2).kind
    with pytest.raises(ValueError):
        scale_arrow(r, "x", 0)


# --- duality ---------------------------------------------------------------------
#
# The dual module's subrepresentations are the annihilator pairs of the
# module's, so its lattice is the module's turned upside down: a
# subrepresentation of dimension e becomes one of dimension d - e.  Flipping
# the chamber flips the sign of every phase comparison with d, so each
# verdict of the module is the verdict of its dual in the other chamber.


def _assert_duality_invariants(r):
    dual = _dual(r)
    assert _dual(dual) == r
    assert reps._valid(dual) == reps._valid(r)
    for p in (2, 3, 5):
        _assert_dual_counts(r, p)
    if r.is_zero() or not reps._valid(r):
        return
    for params, flipped in ((CH1, CH2), (CH2, CH1)):
        verdict = is_stable(dual, flipped)
        assert verdict.kind == is_stable(r, params).kind
        if verdict.kind == "unstable":
            assert verify_witness(dual, verdict.witness, flipped)


@pytest.mark.parametrize("kind,args", CATALOG)
def test_duality_invariants_on_catalog(kind, args):
    r = make_catalog_rep(kind, *args)
    for module in (r, _sheared(r), _scaled(r)):
        _assert_duality_invariants(module)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_quadruples())
def test_duality_invariants_on_quadruples(r):
    _assert_duality_invariants(r)


@pytest.mark.parametrize("seed", [None, 0, 1])
def test_exact_verdicts_swap_chambers_under_duality(seed):
    # the duality the GF(2) scan relies on, on exact verdicts: the catalog
    # modules (seed None) and the workload's conjugates of them
    if seed is None:
        modules = [make_catalog_rep(kind, *args) for kind, args in CATALOG]
    else:
        modules = [module for _, module in WORKLOADS._lattice_prepare(seed)]
    assert len(modules) == 19
    for r in modules:
        dual = _dual(r)
        for params, flipped in ((CH1, CH2), (CH2, CH1)):
            assert is_stable(r, params).kind == is_stable(dual, flipped).kind


# --- K-theory ------------------------------------------------------------------


def test_flop_K_examples():
    assert flop_K((1, 1)) == (1, 1)
    assert flop_K((1, 2)) == (3, 2)
    for m in range(1, 7):
        assert flop_K((m - 1, m)) == (m + 1, m)
    for d0 in range(-5, 6):
        for d1 in range(-5, 6):
            assert flop_K(flop_K((d0, d1))) == (d0, d1)


def test_stable_families_shape():
    fams = stable_families(3)
    assert (1, 1) in fams and (0, 1) in fams and (1, 0) in fams
    assert (2, 3) in fams and (3, 2) in fams
