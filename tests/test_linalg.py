from fractions import Fraction

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
