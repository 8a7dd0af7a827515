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


def test_products_with_no_terms_are_int_zeros():
    for a in (((), ()), linalg.mat([[], []])):
        # a is 2 x 0 and b is 0 x 3: each entry is an empty sum, the int 0
        got = linalg.mat_mul(a, (), bcols=3)
        assert got == ((0, 0, 0), (0, 0, 0)) and all(type(x) is int for x in _entries(got))
        vec = linalg.mat_vec(a, ())
        assert vec == (0, 0) and all(type(x) is int for x in vec)
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


# --- integer echelon forms and annihilators -------------------------------------


def _is_echelon(ech, ncols):
    """Int rows, each primitive with a positive pivot, pivots ascending, and
    every pivot column zero in the other rows."""
    pivots = [next(j for j, x in enumerate(row) if x) for row in ech]
    return (all(type(x) is int for row in ech for x in row)
            and all(len(row) == ncols and gcd(*row) == 1 for row in ech)
            and all(row[p] > 0 for row, p in zip(ech, pivots))
            and pivots == sorted(set(pivots))
            and all(other[p] == 0 for row, p in zip(ech, pivots) for other in ech if other is not row))


@st.composite
def _span_pairs(draw):
    """(rows, others, ncols): ``others`` is the rows recombined (each row a
    nonzero rational multiple of itself plus a multiple of another row, the
    list reversed), so it spans the same space, or a second drawn matrix."""
    rows, _, ncols = draw(_mixed_matrices())
    if rows and draw(st.booleans()):
        nonzero = st.sampled_from([-3, -1, Fraction(1, 2), 2, Fraction(-5, 3)])
        k = len(rows)
        # row i becomes c_i row_i + t_i row_{i+1}, and the last row stays a
        # multiple of itself: a triangular, invertible recombination
        coeffs = [(draw(nonzero), draw(_ENTRY) if i + 1 < k else 0) for i in range(k)]
        others = [tuple(c * x + t * y for x, y in zip(rows[i], rows[(i + 1) % k]))
                  for i, (c, t) in enumerate(coeffs)]
        return rows, others[::-1], ncols
    return rows, draw(st.lists(st.tuples(*[_ENTRY] * ncols), max_size=5)), ncols


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_span_pairs())
def test_echelon_is_equal_exactly_when_the_spans_are(problem):
    rows, others, ncols = problem
    same_span = _rref_by_fractions(rows, ncols)[0] == _rref_by_fractions(others, ncols)[0]
    assert (linalg.echelon(rows, ncols) == linalg.echelon(others, ncols)) == same_span


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_mixed_matrices())
def test_echelon_rows_are_primitive_with_a_positive_pivot(problem):
    rows, _, ncols = problem
    ech = linalg.echelon(rows, ncols)
    assert _is_echelon(ech, ncols)
    assert len(ech) == len(_rref_by_fractions(rows, ncols)[0])
    # rref divides each echelon row by its pivot
    red, pivots = linalg.rref(rows, ncols)
    assert red == linalg.monic(ech) == _rref_by_fractions(rows, ncols)[0]
    assert pivots == tuple(next(j for j, x in enumerate(row) if x) for row in ech)
    assert all(row[p] == 1 for row, p in zip(red, pivots))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_mixed_matrices())
def test_annihilator_is_the_echelon_of_the_nullspace(problem):
    rows, _, ncols = problem
    ann = linalg.annihilator(rows, ncols)
    assert _is_echelon(ann, ncols)
    null = _nullspace_by_fractions(rows, ncols)
    assert linalg.monic(ann) == linalg.row_space(linalg.nullspace(rows, ncols), ncols)
    assert linalg.monic(ann) == _rref_by_fractions(null, ncols)[0]
    assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in rows for v in ann)


def test_echelon_edge_cases():
    assert linalg.echelon(()) == () and linalg.echelon(((), ()), 0) == ()
    assert linalg.echelon(((0, 0), (Fraction(0), 0)), 2) == ()
    # a negative pivot and a content of 2 are both divided out
    assert linalg.echelon(((-2, 4, 6),), 3) == ((1, -2, -3),)
    assert linalg.echelon(((Fraction(-2, 7), Fraction(3, 11), 5),), 3) == ((22, -21, -385),)
    assert linalg.annihilator((), 2) == ((1, 0), (0, 1))
    assert linalg.annihilator(((1, 1),), 2) == ((1, -1),)
    assert linalg.annihilator(((2, 3, 0),), 3) == ((3, -2, 0), (0, 0, 1))
    assert linalg.annihilator(((1, 0), (0, 1)), 2) == ()
    assert linalg.integer_matrix(((Fraction(1, 2), 1), (Fraction(2, 3), 0))) == ((3, 6), (4, 0))
    assert linalg.integer_matrix(()) == ()
