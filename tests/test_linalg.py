from fractions import Fraction
from math import gcd, lcm

from hypothesis import given, settings, strategies as st

from conifold_flop import linalg


def _in_span_by_rank(basis, vec):
    """Membership by two ranks: the definition ``independent`` replaces."""
    if all(x == 0 for x in vec):
        return True
    if not basis:
        return False
    before = linalg.rank(basis, len(vec))
    return linalg.rank(tuple(basis) + (tuple(vec),), len(vec)) == before


def _greedy(basis, vectors):
    kept = []
    for v in vectors:
        if not _in_span_by_rank(tuple(basis) + tuple(kept), v):
            kept.append(v)
    return kept


@st.composite
def _problems(draw):
    """(basis, vectors, ncols) over small integers, with zero rows, repeated
    rows (the same tuple object again) and sums of earlier rows mixed in."""
    ncols = draw(st.integers(0, 4))
    row = st.tuples(*[st.integers(-2, 2).map(Fraction)] * ncols)
    pool = draw(st.lists(row, max_size=4))
    picks = [row, st.just(tuple(Fraction(0) for _ in range(ncols)))]
    if pool:
        picks.append(st.sampled_from(pool))
        picks.append(st.tuples(st.sampled_from(pool), st.sampled_from(pool), st.integers(-2, 2)).map(
            lambda t: tuple(x + t[2] * y for x, y in zip(t[0], t[1]))))
    pick = st.one_of(*picks)
    return draw(st.lists(pick, max_size=4)), draw(st.lists(pick, max_size=6)), ncols


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_problems())
def test_independent_matches_the_rank_greedy_filter(problem):
    basis, vectors, ncols = problem
    got = linalg.independent(basis, vectors, ncols)
    want = _greedy(basis, vectors)
    assert len(got) == len(want)
    # the kept vectors are the input tuples themselves, in input order
    assert all(g is w for g, w in zip(got, want))
    assert len(got) == (linalg.rank(tuple(basis) + tuple(vectors), ncols)
                        - linalg.rank(tuple(basis), ncols))


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_problems())
def test_in_span_agrees_with_the_rank_test(problem):
    basis, vectors, _ = problem
    for vec in vectors:
        assert linalg.in_span(tuple(basis), vec) == _in_span_by_rank(tuple(basis), vec)


def test_independent_edge_cases():
    e1, e2 = linalg.identity(2)
    zero = (Fraction(0), Fraction(0))
    assert linalg.independent((), (), 2) == ()
    assert linalg.independent((), ((), ()), 0) == ()
    assert linalg.independent((), (zero, e1, e1, e2), 2) == (e1, e2)
    assert linalg.independent((e1,), (e1, zero, e2), 2) == (e2,)
    assert linalg.independent((e1, e2), (e1, e2), 2) == ()
    twice = (Fraction(2), Fraction(4))
    assert linalg.independent((), (twice, (Fraction(1), Fraction(2))), 2)[0] is twice
    assert linalg.in_span((), zero) and not linalg.in_span((), e1)
    assert linalg.in_span((e1, e2), (Fraction(3), Fraction(-1)))


# --- integer-row elimination against the Fraction elimination it replaced ---

def _rref_by_fractions(rows, ncols=None):
    """Gauss-Jordan elimination over Fraction: the body ``rref`` had before
    it ran on integer rows."""
    m = [list(r) for r in rows]
    if not m:
        return (), ()
    cols = len(m[0]) if ncols is None else ncols
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [inv * x for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return tuple(tuple(row) for row in m[:r]), tuple(pivots)


def _nullspace_by_fractions(m, ncols):
    red, pivots = _rref_by_fractions(m, ncols)
    basis = []
    for j in (j for j in range(ncols) if j not in pivots):
        v = [Fraction(0)] * ncols
        v[j] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i][j]
        basis.append(tuple(v))
    return tuple(basis)


def _independent_by_fractions(basis, vectors, ncols):
    """The Fraction echelon form ``independent`` grew before it ran on
    integer rows: each stored row 1 at its pivot."""
    echelon = []

    def absorb(vec):
        v = list(vec)
        for p, row in echelon:
            f = v[p]
            if f != 0:
                v = [x - f * y for x, y in zip(v, row)]
        p = next((j for j in range(ncols) if v[j] != 0), None)
        if p is None:
            return False
        inv = Fraction(1) / v[p]
        echelon.append((p, [inv * x for x in v]))
        return True

    for vec in basis:
        absorb(vec)
    return tuple(vec for vec in vectors if absorb(vec))


# plain ints and Fractions with mixed denominators, side by side in one row
_ENTRY = st.one_of(st.integers(-3, 3),
                   st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3, 4, 6, 9])))


@st.composite
def _mixed_matrices(draw):
    """(rows, ncols) with ncols 0..5: rows of ints and Fractions, zero rows
    of either type, repeated rows (the same tuple object again) and
    rational combinations of two earlier rows."""
    ncols = draw(st.integers(0, 5))
    row = st.tuples(*[_ENTRY] * ncols)
    pool = draw(st.lists(row, max_size=4))
    picks = [row, st.just((0,) * ncols), st.just((Fraction(0),) * ncols)]
    if pool:
        picks.append(st.sampled_from(pool))
        picks.append(st.tuples(st.sampled_from(pool), st.sampled_from(pool), _ENTRY).map(
            lambda t: tuple(x + t[2] * y for x, y in zip(t[0], t[1]))))
    pick = st.one_of(*picks)
    return draw(st.lists(pick, max_size=6)), draw(st.lists(pick, max_size=5)), ncols


def _all_fractions(rows):
    return all(type(x) is Fraction for row in rows for x in row)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_mixed_matrices())
def test_integer_elimination_matches_the_fraction_elimination(problem):
    rows, vectors, ncols = problem
    rows = tuple(rows)
    want = _rref_by_fractions(rows, ncols)
    got = linalg.rref(rows, ncols)
    assert got == want and _all_fractions(got[0])
    if rows:
        assert linalg.rref(rows) == _rref_by_fractions(rows)
    assert linalg.rank(rows, ncols) == len(want[0])
    null = linalg.nullspace(rows, ncols)
    assert null == _nullspace_by_fractions(rows, ncols) and _all_fractions(null)
    kept = linalg.independent(rows, vectors, ncols)
    oracle = _independent_by_fractions(rows, vectors, ncols)
    assert len(kept) == len(oracle)
    assert all(k is o for k, o in zip(kept, oracle))


def _positive_multiple(ints, row):
    """``ints`` is c * ``row`` for one rational c > 0 (any c for a zero row)."""
    nz = [j for j, x in enumerate(row) if x != 0]
    if not nz:
        return all(x == 0 for x in ints)
    c = Fraction(ints[nz[0]]) / row[nz[0]]
    return c > 0 and all(Fraction(x) == c * y for x, y in zip(ints, row))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_mixed_matrices())
def test_integer_rows_are_primitive_positive_multiples(problem):
    rows, _, ncols = problem
    for row in rows:
        ints = linalg.integer_row(row)
        assert all(type(x) is int for x in ints)
        assert gcd(*ints) in (0, 1) and _positive_multiple(ints, row)
    # clearing one primitive row against another keeps the result primitive
    # and a positive multiple of a * row - f * pivot_row
    prim = [linalg.integer_row(row) for row in rows]
    for row, prow in zip(prim, prim[1:]):
        c = next((j for j in range(ncols) if prow[j] and row[j]), None)
        if c is None:
            continue
        a, f = prow[c], row[c]
        out = linalg._clear(row, prow, c)
        assert out[c] == 0 and all(type(x) is int for x in out)
        assert gcd(*out) in (0, 1)
        assert _positive_multiple(out, [a * x - f * y for x, y in zip(row, prow)])


def test_integer_elimination_edge_cases():
    assert linalg.rref(()) == ((), ())
    assert linalg.rref(((), ()), 0) == ((), ())
    assert linalg.rref(((0, 0), (Fraction(0), 0)), 2) == ((), ())
    # a row with large coprime denominators and a negative pivot
    row = (Fraction(-2, 7), Fraction(3, 11), 5)
    red, pivots = linalg.rref((row,), 3)
    assert pivots == (0,) and red == ((1, Fraction(-21, 22), Fraction(-35, 2)),)
    assert _all_fractions(red)
    assert linalg.nullspace((), 2) == linalg.identity(2)


# --- products keep ints; eliminations ignore an integer rescaling ------------

def _entries(m):
    return [x for row in m for x in row]


@st.composite
def _factors(draw):
    """(a, b) int matrices with a: r x k and b: k x c, r, k, c in 1..4."""
    r, k, c = (draw(st.integers(1, 4)) for _ in range(3))
    ints = st.integers(-5, 5)
    a = tuple(tuple(draw(ints) for _ in range(k)) for _ in range(r))
    b = tuple(tuple(draw(ints) for _ in range(c)) for _ in range(k))
    return a, b


def _sum_product(a, b):
    """a @ b by Fraction sums: the definition the products must meet."""
    return tuple(tuple(sum((Fraction(x) * y for x, y in zip(row, col)), Fraction(0))
                       for col in zip(*b)) for row in a)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_factors())
def test_products_keep_int_inputs_int(factors):
    a, b = factors
    got = linalg.mat_mul(a, b)
    assert got == _sum_product(a, b) and all(type(x) is int for x in _entries(got))
    vec = linalg.mat_vec(a, tuple(row[0] for row in b))
    assert vec == tuple(row[0] for row in got) and all(type(x) is int for x in vec)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_factors(), st.sampled_from(["a", "b", "both"]))
def test_products_with_a_fraction_factor_are_fractions(factors, which):
    a, b = factors
    if which in ("a", "both"):
        a = linalg.mat(a)
    if which in ("b", "both"):
        b = linalg.mat(b)
    got = linalg.mat_mul(a, b)
    assert got == _sum_product(a, b) and _all_fractions(got)
    vec = linalg.mat_vec(a, tuple(row[0] for row in b))
    assert all(type(x) is Fraction for x in vec)


def test_products_with_no_terms_are_fraction_zeros():
    for a in (((), ()), linalg.mat([[], []])):
        # a is 2 x 0 and b is 0 x 3: each entry is an empty sum
        assert linalg.mat_mul(a, (), bcols=3) == linalg.zeros(2, 3)
        assert _all_fractions(linalg.mat_mul(a, (), bcols=3))
        assert linalg.mat_vec(a, ()) == (Fraction(0), Fraction(0))
        assert all(type(x) is Fraction for x in linalg.mat_vec(a, ()))
    assert linalg.mat_mul((), ((1, 2),)) == ()
    assert linalg.mat_mul(((1,), (2,)), ((), )) == ((), ())


def _rescaled(m):
    """m times the lcm of its denominators: an int matrix."""
    den = lcm(*[Fraction(x).denominator for x in _entries(m)])
    return tuple(tuple(int(x * den) for x in row) for row in m)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_mixed_matrices())
def test_eliminations_ignore_an_integer_rescaling(problem):
    rows, vectors, ncols = problem
    rows, vectors = tuple(rows), tuple(vectors)
    ints = _rescaled(rows)
    assert all(type(x) is int for x in _entries(ints))
    assert linalg.rref(ints, ncols) == linalg.rref(rows, ncols)
    assert linalg.nullspace(ints, ncols) == linalg.nullspace(rows, ncols)
    # row by row scaling keeps a span, so a basis may be rescaled too
    basis = linalg.row_space(vectors, ncols)
    int_basis = tuple(tuple(linalg.integer_row(row)) for row in basis)
    assert linalg.row_space(int_basis, ncols) == basis
    assert _all_fractions(linalg.row_space(int_basis, ncols))
