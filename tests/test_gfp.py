
import pytest
from hypothesis import given, settings, strategies as st

from conifold_flop import gfp, reps
from conifold_flop.reps import make_catalog_rep
from test_reps import CATALOG, _all_four_arrows_act, _catalog_sums, _oracle_scan, _sheared


def _forward_rank(rows, ncols, p):
    """Rank over GF(p) by forward elimination: the body of the rank mod p
    that the scans and the GF(2) End dimension used before the two ranks
    were merged."""
    m = [[c % p for c in row] for row in rows]
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


PRIMES = (2, 3, 5, gfp.LARGE_PRIME)


@st.composite
def _int_matrices(draw):
    """(rows, ncols): small int entries, multiples of each prime, and rows
    that are sums of earlier rows, so that every rank deficiency occurs."""
    ncols = draw(st.integers(0, 6))
    entry = st.one_of(st.integers(-6, 6), st.sampled_from(PRIMES).flatmap(
        lambda p: st.integers(-2, 2).map(lambda k: k * p)))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=7))
    if len(rows) > 1 and draw(st.booleans()):
        rows.append([a + b for a, b in zip(rows[0], rows[1])])
    return rows, ncols


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_int_matrices(), st.sampled_from(PRIMES))
def test_rank_matches_forward_elimination(problem, p):
    rows, ncols = problem
    assert gfp.rank(rows, ncols, p) == _forward_rank(rows, ncols, p)


def test_rank_drops_modulo_a_dividing_prime():
    for p in PRIMES:
        assert gfp.rank([[p, 0], [0, 1]], 2, p) == 1
        assert gfp.rank([[1, 1], [1, p + 1]], 2, p) == 1
        assert gfp.rank([[1, 1], [1, p + 2]], 2, p) == 2
    assert gfp.rank([], 3, 5) == 0 and gfp.rank([[], []], 0, 2) == 0


@pytest.mark.parametrize("p", gfp.SCAN_PRIMES)
def test_lattice_lists_each_subspace_with_its_annihilator(p):
    for dim in range(gfp.MAX_SCAN_DIM + 1):
        lattice = gfp._lattice(dim, p)
        assert [w for w, _ in lattice] == gfp._subspaces_gfp(dim, p)
        assert gfp._lattice(dim, p) is lattice  # cached per (dim, p)
        for w, ann in lattice:
            assert len(ann) == dim - len(w)
            assert all(sum(a * b for a, b in zip(f, v)) % p == 0 for f in ann for v in w)
            assert _forward_rank(ann, dim, p) == len(ann)


def test_scan_refuses_entries_that_are_not_ints():
    # the point's arrows are Fractions of denominator 1; the scan reads
    # arrows as they are, so it takes the integer module only
    point = reps.make_catalog_rep("point", 1, 1)
    for p in gfp.SCAN_PRIMES:
        with pytest.raises(ValueError, match="arrow entries must be ints"):
            gfp.subrep_scan_Fp(point, p)
        got = gfp.subrep_scan_Fp(reps._integerize(point), p)
        assert got == reps.subrep_scan_Fp(point, p) == [((0, 0), 1), ((0, 1), 1), ((1, 1), 1)]


# --- one-sided scans: maps that vanish mod p are not read -----------------------

# arrows scaled by p: one arrow, the two out of a vertex, the two into it, all
SCALED_ARROWS = ("x", "w", "xz", "yw", "xzyw")


def _with_arrows_scaled(r, arrows, c):
    """The integer module of ``r`` with each of ``arrows`` multiplied by c."""
    ri = reps._integerize(r)
    return reps.Representation(r.dims, *(tuple(tuple(c * x for x in row) for row in ri.matrix(a))
                                         if a in arrows else ri.matrix(a) for a in "xzyw"))


def _scan_modules():
    """The catalog modules, sheared, and the direct sums of two of them
    with all four arrows acting."""
    mods = [_sheared(make_catalog_rep(kind, *args)) for kind, args in CATALOG]
    sums = [_sheared(r) for r in _catalog_sums() if _all_four_arrows_act(r)]
    assert len(sums) >= 5
    return mods + sums


@pytest.mark.parametrize("p", gfp.SCAN_PRIMES)
@pytest.mark.parametrize("arrows", SCALED_ARROWS)
def test_an_arrow_scaled_by_p_scans_like_a_zero_arrow(p, arrows):
    for r in _scan_modules():
        scaled = _with_arrows_scaled(r, arrows, p)
        got = gfp.subrep_scan_Fp(scaled, p)
        assert got == gfp.subrep_scan_Fp(_with_arrows_scaled(r, arrows, 0), p), (r, arrows)
        # the pairwise oracle where it is affordable
        if sum(r.dims) <= {2: 8, 3: 6, 5: 5}[p]:
            assert got == _oracle_scan(scaled, p), (r, arrows)


@pytest.mark.parametrize("p", gfp.SCAN_PRIMES)
def test_a_scan_takes_no_rank_of_maps_that_vanish_mod_p(p, monkeypatch):
    # U = 0 when both maps out of the scanned vertex vanish mod p, and P = V_t
    # when both maps into it do: then at most one rank per subspace W, and
    # none when all four vanish
    real, ranks = gfp.rank, []

    def counted(rows, ncols, q):
        ranks.append(rows)
        return real(rows, ncols, q)

    monkeypatch.setattr(gfp, "rank", counted)
    for r in _scan_modules():
        outs, ins = ("xz", "yw") if r.dims[0] <= r.dims[1] else ("yw", "xz")
        per_w = len(gfp._lattice(min(r.dims), p))
        for arrows, most in (("xzyw", 0), (outs, per_w), (ins, per_w)):
            ranks.clear()
            gfp.subrep_scan_Fp(_with_arrows_scaled(r, arrows, p), p)
            assert len(ranks) <= most and all(ranks), (r, arrows)
