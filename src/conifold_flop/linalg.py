"""Small dense exact linear algebra over the rationals.

Matrices are tuples of row tuples; the empty matrix keeps its shape
through explicit (rows, cols) arguments where it matters.  Entries are
ints or Fractions.  `mat_mul` and `mat_vec` keep int inputs as ints: an
entry of a product is a Fraction when one of its terms is, and the int 0
when it has no terms.  The program takes its matrix-vector products by
`combine`, over the nonzero entries of the vector and of the
`sparse_rows` of the matrix only; `mat_vec` serves the tests as its
oracle.

Every elimination runs on primitive integer rows: each row is first
scaled to the integer row with coprime entries on the same ray
(`integer_row`), and a row is cleared against a pivot row by
cross-multiplication, ``a * row - f * pivot_row``, followed by division by
its content (the gcd of its entries).  `echelon` returns the reduced
echelon form in that shape, each row primitive with a positive pivot,
which is canonical for the row span: two matrices have the same `echelon`
exactly when their rows span the same space.  `annihilator` is the
`echelon` of the kernel.  A reduced row echelon form is unique, so `rref`
divides each row of `echelon` by its pivot (`monic`) and returns the same
Fractions as elimination over Fraction would; `row_space` and `nullspace`
build on it, and `rank` counts the rows of `echelon`.  The program
compares spans as `echelon` forms; `row_space` and `in_span` serve the
tests as oracles.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

ZERO = Fraction(0)
ONE = Fraction(1)


def mat(rows):
    return tuple(tuple(Fraction(c) for c in row) for row in rows)


def zeros(nrows, ncols):
    return tuple(tuple(ZERO for _ in range(ncols)) for _ in range(nrows))


def identity(n):
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def shape(m, ncols=None):
    if m:
        return len(m), len(m[0])
    return 0, (0 if ncols is None else ncols)


def mat_mul(a, b, bcols=None):
    """a @ b; ``bcols`` supplies the width of b when b has no rows."""
    if not a:
        return ()
    if not b:
        return ((0,) * (0 if bcols is None else bcols),) * len(a)
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, ra, col)) for col in cols) for ra in a)


def mat_vec(m, v):
    return tuple(sum(map(mul, row, v)) for row in m)


def sparse_rows(m):
    """Each row of ``m`` as the (column, entry) pairs of its nonzero
    entries."""
    return tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in m)


def combine(vec, rows, n):
    """sum_i vec[i] * rows[i] over the nonzero vec[i], for `sparse_rows`
    ``rows`` of length ``n``, as a list: with the sparse rows of m that is
    vec . m, with those of its transpose m vec.  Ints give ints."""
    out = [0] * n
    for c, row in zip(vec, rows):
        if c:
            for j, x in row:
                out[j] += c * x
    return out


def transpose(m, ncols=None):
    r, c = shape(m, ncols)
    return tuple(tuple(m[i][j] for i in range(r)) for j in range(c))


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(s, m):
    s = Fraction(s)
    return tuple(tuple(s * x for x in row) for row in m)


def integer_row(row):
    """The integer row with coprime entries on the same ray as ``row`` (a
    positive multiple of it); a zero row stays zero.  Entries are ints or
    Fractions."""
    try:
        g = gcd(*row)  # an int row; gcd refuses a Fraction
        ints = row
    except TypeError:
        den = lcm(*[x.denominator for x in row])
        ints = [x.numerator * (den // x.denominator) for x in row]
        g = gcd(*ints)
    return list(ints) if g < 2 else [x // g for x in ints]


def integer_matrix(m):
    """``m`` times the lcm of the denominators of its entries: a matrix of
    ints."""
    den = lcm(*(c.denominator for row in m for c in row))
    return tuple(tuple(c.numerator * (den // c.denominator) for c in row) for row in m)


def _clear(row, pivot_row, c):
    """``a * row - f * pivot_row`` divided by its content, where ``a`` and
    ``f`` are the entries of ``pivot_row`` and ``row`` in column ``c``: the
    entry of ``row`` in the pivot column cleared.  Both must be nonzero."""
    a, f = pivot_row[c], row[c]
    out = [a * x - f * y for x, y in zip(row, pivot_row)]
    g = gcd(*out)
    return out if g < 2 else [x // g for x in out]


def _pivot(row):
    return next(j for j, x in enumerate(row) if x)


def echelon(rows, ncols=None):
    """The reduced row echelon form of ``rows`` (ints or Fractions) as
    tuples of ints, zero rows dropped: each row primitive, with a positive
    pivot entry and zeros in the pivot columns of the other rows."""
    m = [integer_row(r) for r in rows]
    if not m:
        return ()
    cols = len(m[0]) if ncols is None else ncols
    r = 0
    for c in range(cols):
        for pivot in range(r, len(m)):
            if m[pivot][c]:
                break
        else:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        if m[r][c] < 0:
            m[r] = [-x for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                m[i] = _clear(m[i], m[r], c)
        r += 1
        if r == len(m):
            break
    return tuple(tuple(row) for row in m[:r])


def monic(rows):
    """Each row of an `echelon` form divided by its pivot entry: the rows
    of the reduced row echelon form, as Fractions."""
    out = []
    for row in rows:
        a = row[_pivot(row)]
        out.append(tuple(Fraction(x, a) if x else ZERO for x in row))
    return tuple(out)


def rref(rows, ncols=None):
    """Reduced row echelon form; returns (rows_without_zero_rows, pivot_cols),
    the rows as tuples of Fractions."""
    ech = echelon(rows, ncols)
    return monic(ech), tuple(map(_pivot, ech))


def rank(rows, ncols=None):
    return len(echelon(rows, ncols))


def row_space(rows, ncols=None):
    return rref(rows, ncols)[0]


def nullspace(m, ncols=None):
    """Basis (as rows) of {v : m v = 0} for an (r x c) matrix."""
    r, c = shape(m, ncols)
    red, pivots = rref(m, c)
    free = [j for j in range(c) if j not in pivots]
    basis = []
    for j in free:
        v = [ZERO] * c
        v[j] = ONE
        for i, p in enumerate(pivots):
            v[p] = -red[i][j]
        basis.append(tuple(v))
    return tuple(basis)


def annihilator(rows, ncols):
    """The `echelon` of {v : row . v = 0 for every row}: the kernel of the
    matrix ``rows``, the row span of `nullspace`, in ints.

    One elimination gives it, on the columns taken in reverse order.  There
    the kernel vector of a free column j of the echelon form is nonzero at j
    and at pivot columns before j only.  Back in the given order, j is its
    first nonzero entry, and no other such vector is nonzero at j, so these
    vectors, each scaled to a primitive row with a positive leading entry,
    are the reduced echelon form of the kernel.
    """
    ech = echelon([row[::-1] for row in rows], ncols)
    pivots = [_pivot(row) for row in ech]
    out = []
    for j in reversed(range(ncols)):
        if j in pivots:
            continue
        # v[j] = l and v[p] = -row[j] * l / row[p] for each pivot p, with l
        # the lcm of the pivot entries that the division needs
        l = lcm(*(row[p] for row, p in zip(ech, pivots) if row[j]))
        v = [0] * ncols
        v[j] = l
        for row, p in zip(ech, pivots):
            if row[j]:
                v[p] = -row[j] * (l // row[p])
        g = gcd(*v)
        out.append(tuple(x // g for x in reversed(v)))
    return tuple(out)


def independent(basis, vectors, ncols):
    """The members of ``vectors``, in input order and as given, that lie
    outside the row span of ``basis`` and of the members kept before them.

    One echelon form of primitive integer rows, a list of (pivot column,
    row) pairs, grows as rows are accepted: each stored row is 0 at the
    pivots of the rows stored before it, so every query is a single
    reduction.
    """
    form = []

    def absorb(vec):
        v = integer_row(vec)
        for p, row in form:
            if v[p]:
                v = _clear(v, row, p)
        for p in range(ncols):
            if v[p]:
                form.append((p, v))
                return True
        return False

    for vec in basis:
        absorb(vec)
    return tuple(vec for vec in vectors if absorb(vec))


def in_span(basis, vec):
    """Membership of ``vec`` in the row span of ``basis``."""
    return not independent(basis, (vec,), len(vec))


def solve_matrix(a, b, ncols):
    """One solution x (as column list) of a x = b, or None; a is (r x ncols)."""
    r, _ = shape(a, ncols)
    aug = tuple(tuple(a[i][j] for j in range(ncols)) + (b[i],) for i in range(r))
    red, pivots = rref(aug, ncols + 1)
    if ncols in pivots:
        return None
    x = [ZERO] * ncols
    for i, p in enumerate(pivots):
        x[p] = red[i][ncols]
    return tuple(x)


def is_invertible(m):
    n = len(m)
    return n == 0 or (len(m[0]) == n and rank(m, n) == n)
