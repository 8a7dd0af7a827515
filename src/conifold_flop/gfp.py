"""Linear algebra over the prime fields GF(p), on int rows.

One rank mod p serves three callers: the interval counts of the
subrepresentation scans below (p = 2, 3, 5), the GF(2) End dimension of
the scan kernel in `scan`, and the Schur test `reps._end_dim`, which takes
the rank of an integer matrix modulo the large prime LARGE_PRIME first.  A
rank mod p is at most the rank over Q, so a nullity mod p bounds the
nullity over Q from above.

The subrepresentation scans count the arrow-closed subspace pairs of an
integer module, `reps._integerize(r)`, over GF(p).  They enumerate the
subspaces of the smaller vertex only, as reduced echelon bases
(`_subspaces_gfp`), and count the closed partners at the other vertex by
Gaussian binomials over an interval of subspaces (`_interval_counts`).
Each subspace is listed with its annihilator once per (dim, p), in
`_lattice`.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import mul

SCAN_PRIMES = (2, 3, 5)
MAX_SCAN_DIM = 4
# the Mersenne prime 2^31 - 1
LARGE_PRIME = 2 ** 31 - 1


def rank(rows, ncols, p):
    """Rank over GF(p) of integer rows.  Each row is reduced against the
    rows kept before it and kept when it is not zero."""
    form = []  # (pivot column, row, inverse of its pivot entry)
    for row in rows:
        v = [c % p for c in row]
        for j, u, inv in form:
            if v[j]:
                f = v[j] * inv
                v = [(a - f * b) % p for a, b in zip(v, u)]
        for j in range(ncols):
            if v[j]:
                form.append((j, v, pow(v[j], -1, p)))
                break
    return len(form)


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


@lru_cache(maxsize=None)
def _lattice(dim, p):
    """Each subspace W of `_subspaces_gfp(dim, p)` with its annihilator, one
    functional per non-pivot column of W.  The scans ask for at most
    (MAX_SCAN_DIM + 1) * len(SCAN_PRIMES) keys."""
    out = []
    for w in _subspaces_gfp(dim, p):
        pivots = [next(j for j, c in enumerate(row) if c) for row in w]
        ann = []
        for j in range(dim):
            if j not in pivots:
                f = [0] * dim
                f[j] = 1
                for row, pc in zip(w, pivots):
                    f[pc] = -row[j] % p
                ann.append(tuple(f))
        out.append((w, tuple(ann)))
    return tuple(out)


@lru_cache(maxsize=None)
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

    The images of a basis vector and the conditions of a functional are
    computed once per call, and zero ones are dropped.
    """
    images, conditions = {}, {}
    outs, ins = (out_a, out_b), (tuple(zip(*in_c)), tuple(zip(*in_d)))

    def nonzero(rows):
        return [row for row in rows if any(row)]

    def image(v):
        if v not in images:
            images[v] = nonzero([sum(map(mul, row, v)) % p for row in m] for m in outs)
        return images[v]

    def condition(f):
        if f not in conditions:
            conditions[f] = nonzero([sum(map(mul, f, col)) % p for col in m] for m in ins)
        return conditions[f]

    for w, ann in _lattice(ds, p):
        imgs = [u for v in w for u in image(v)]
        cond = [g for f in ann for g in condition(f)]
        if any(sum(map(mul, g, u)) % p for g in cond for u in imgs):
            continue  # U is not inside P
        lo = rank(imgs, dt, p)
        hi = dt - rank(cond, dt, p)
        for j in range(hi - lo + 1):
            yield (len(w), lo + j), _gaussian_binomial(hi - lo, j, p)


def subrep_scan_Fp(r, p: int):
    """Exhaustive count of arrow-closed subspace pairs over GF(p) of the
    `reps.Representation` ``r``, whose arrows hold ints (`reps.subrep_scan_Fp`
    passes the cached integer module `reps._integerize(r)`).

    The arrows are read as they are: `_interval_counts` reduces every sum
    mod p, and an entry that is not an int raises ValueError.  A pair
    (W0, W1) is closed exactly when x(W0) + z(W0) <= W1 and W1 lies in
    the common preimage of W0 under y and w, so the scan
    enumerates the subspaces of the smaller vertex only and counts the
    closed partners at the other vertex by Gaussian binomials over that
    interval.  Returns the sorted list of realized (dim vector, count)
    pairs, the zero and full pairs included: a list, not a tuple, as the
    subrep-lattice workload tells scans from verdicts (tuples) by type.
    """
    if p not in SCAN_PRIMES:
        raise ValueError("p must be one of %r" % (SCAN_PRIMES,))
    d0, d1 = r.dims
    if d0 > MAX_SCAN_DIM or d1 > MAX_SCAN_DIM:
        raise ValueError("vertex dimensions above %d are not scanned" % MAX_SCAN_DIM)
    if any(type(c) is not int for m in (r.mx, r.mz, r.my, r.mw) for row in m for c in row):
        raise ValueError("arrow entries must be ints")
    counts = {}
    if d0 <= d1:
        found = _interval_counts(r.mx, r.mz, r.my, r.mw, d0, d1, p)
    else:
        found = (((k0, k1), n)
                 for (k1, k0), n in _interval_counts(r.my, r.mw, r.mx, r.mz, d1, d0, p))
    for key, n in found:
        counts[key] = counts.get(key, 0) + n
    return sorted(counts.items())
