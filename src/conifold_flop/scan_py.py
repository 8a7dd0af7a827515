"""The exhaustive GF(2) representation scan.

Matrices over GF(2) are packed into integers (row-major bit layout) and
multiplied through small precomputed composition tables.  For each
dimension vector the scan enumerates all four-matrix tuples satisfying
the relations, filters by nilpotency, and tests stability by running over
all arrow-closed subspace pairs; destabilizing sub-dimension vectors are
supplied by the caller.  Slope-stable tuples whose endomorphism algebra
is bigger than GF(2) are discarded: those are Galois-twisted forms that
split after a field extension, so they do not witness a stable dimension
vector of the classification the scan reproduces.

The group G = GL(V0) x GL(V1) acts on the tuples by change of basis and
preserves the relations, nilpotency, stability and the endomorphism
algebra.  So ``y`` runs only over its rank normal forms, one per rank,
and count mode weights each fibre by the number of matrices of that rank.
Exists mode visits the ranks in the order where witnesses sit: ascending
when the vertex-0 simple destabilizes (chamber +1, where x and z carry the
module and y is small), descending otherwise (chamber -1, where y and w
carry it).  The order changes how soon a witness is found, never a result.

The loop order prunes aggressively: the relation xyz = zyx constrains
(x, z) given y alone, so its solution table is reused across all w.
"""

from __future__ import annotations

from .reps import _subspaces_gfp


def _rows_of(code, r, c):
    mask = (1 << c) - 1
    return tuple((code >> (i * c)) & mask for i in range(r))


def _mul_rows(a_rows, b_rows):
    """(a.b) given packed rows; a is (p x q), b is (q x r)."""
    out = []
    for ra in a_rows:
        acc = 0
        k = 0
        while ra:
            if ra & 1:
                acc ^= b_rows[k]
            ra >>= 1
            k += 1
        out.append(acc)
    return tuple(out)


def _pack(rows, width):
    code = 0
    for i, row in enumerate(rows):
        code |= row << (i * width)
    return code


class _Tables:
    """Composition tables for one dimension vector (d0, d1)."""

    def __init__(self, d0, d1):
        self.d0, self.d1 = d0, d1
        self.codesA = range(1 << (d1 * d0))  # x, z : V0 -> V1
        self.codesB = range(1 << (d0 * d1))  # y, w : V1 -> V0
        rowsA = [_rows_of(a, d1, d0) for a in self.codesA]
        rowsB = [_rows_of(b, d0, d1) for b in self.codesB]
        self.rowsA, self.rowsB = rowsA, rowsB
        # a.b lands in End(V1), b.a in End(V0); only reachable products matter
        self.pab = [[_pack(_mul_rows(rowsA[a], rowsB[b]), d1) for b in self.codesB]
                    for a in self.codesA]
        self.pba = [[_pack(_mul_rows(rowsB[b], rowsA[a]), d0) for a in self.codesA]
                    for b in self.codesB]
        self._qa, self._qb = {}, {}

    def qa(self, c):
        """(End V1 code c) . (A code) -> A code, memoized per c."""
        tab = self._qa.get(c)
        if tab is None:
            rows_c = _rows_of(c, self.d1, self.d1)
            tab = [_pack(_mul_rows(rows_c, ra), self.d0) for ra in self.rowsA]
            self._qa[c] = tab
        return tab

    def qb(self, c):
        tab = self._qb.get(c)
        if tab is None:
            rows_c = _rows_of(c, self.d0, self.d0)
            tab = [_pack(_mul_rows(rows_c, rb), self.d1) for rb in self.rowsB]
            self._qb[c] = tab
        return tab


def _subspaces(dim):
    """All subspaces of GF(2)^dim: (dim, membership mask over vectors, basis),
    the reduced-echelon bases of ``reps._subspaces_gfp`` packed into bits."""
    subs = []
    for rows in _subspaces_gfp(dim, 2):
        basis = tuple(sum(c << j for j, c in enumerate(row)) for row in rows)
        span = {0}
        for b in basis:
            span |= {s ^ b for s in span}
        subs.append((len(basis), sum(1 << v for v in span), basis))
    return subs


def _apply_tables(rows, src_dim, tgt_dim):
    """Image vector of every source vector under a packed-row matrix."""
    out = []
    for v in range(1 << src_dim):
        img = 0
        for i in range(tgt_dim):
            img |= (bin(rows[i] & v).count("1") & 1) << i
        out.append(img)
    return out


def _nilpotent(ax, az, ay, aw, d0, d1):
    """Image chain on basis bitsets; GF(2) Gaussian on packed vectors."""
    u0 = [1 << i for i in range(d0)]
    u1 = [1 << i for i in range(d1)]
    for _ in range(d0 + d1 + 1):
        if not u0 and not u1:
            return True
        n0 = _reduce_basis([ay[v] for v in u1] + [aw[v] for v in u1])
        n1 = _reduce_basis([ax[v] for v in u0] + [az[v] for v in u0])
        u0, u1 = n0, n1
    return not u0 and not u1


def _reduce_basis(vectors):
    basis = []
    for v in vectors:
        for b in basis:
            low = b & -b
            if v & low:
                v ^= b
        if v:
            basis.append(v)
            basis.sort(key=lambda t: t & -t)
    return basis


def _stable(ax, az, ay, aw, pairs_by_dims, destab):
    """No arrow-closed subspace pair with a destabilizing dimension vector."""
    for e0, e1 in destab:
        for m0, b0, m1, b1 in pairs_by_dims[(e0, e1)]:
            ok = True
            for v in b0:
                if not (m1 >> ax[v]) & 1 or not (m1 >> az[v]) & 1:
                    ok = False
                    break
            if ok:
                for v in b1:
                    if not (m0 >> ay[v]) & 1 or not (m0 >> aw[v]) & 1:
                        ok = False
                        break
            if ok:
                return False
    return True


def _end_dim(rx, rz, ry, rw, d0, d1):
    """dim over GF(2) of the endomorphism algebra of the representation.

    Unknowns are the entries of p0 (d0 x d0) and p1 (d1 x d1); the
    intertwining equations p1.M = M.p0 (x, z) and p0.M = M.p1 (y, w) are
    assembled as GF(2) rows over the packed unknown vector.
    """
    n0, n1 = d0 * d0, d1 * d1
    rows = []

    def eq_rows(m_rows, mr, mc, left_off, left_n, right_off):
        # p_left . M - M . p_right = 0, with M an (mr x mc) matrix
        for i in range(mr):
            for j in range(mc):
                row = 0
                # (p_left . M)[i, j] = sum_k p_left[i, k] M[k, j]
                for k in range(mr):
                    if (m_rows[k] >> j) & 1:
                        row ^= 1 << (left_off + i * left_n + k)
                # (M . p_right)[i, j] = sum_k M[i, k] p_right[k, j]
                kk = m_rows[i]
                k = 0
                while kk:
                    if kk & 1:
                        row ^= 1 << (right_off + k * mc + j)
                    kk >>= 1
                    k += 1
                if row:
                    rows.append(row)

    eq_rows(rx, d1, d0, n0, d1, 0)
    eq_rows(rz, d1, d0, n0, d1, 0)
    eq_rows(ry, d0, d1, 0, d0, n0)
    eq_rows(rw, d0, d1, 0, d0, n0)
    return (n0 + n1) - len(_reduce_basis(rows))


def _rank_forms(d0, d1, ascending):
    """Rank normal forms of y : V1 -> V0 with the sizes of their orbits.

    Under (g0, g1) : y -> g0 y g1^-1 the orbit of a d0 x d1 matrix over
    GF(2) is fixed by its rank r; the representative has the unit vector
    1 << i as row i for i < r and zero rows below.  The orbit holds every
    rank-r matrix: prod_{i<r} (2^d0 - 2^i)(2^d1 - 2^i) / (2^r - 2^i).
    """
    forms = []
    for r in range(min(d0, d1) + 1):
        code = sum(1 << (i * (d1 + 1)) for i in range(r))
        size = 1
        for i in range(r):
            size = size * ((1 << d0) - (1 << i)) * ((1 << d1) - (1 << i)) // ((1 << r) - (1 << i))
        forms.append((code, size))
    return forms if ascending else forms[::-1]


def scan_dims(d0, d1, destab, count_all=True):
    """Number of stable relation-satisfying nilpotent tuples over GF(2).

    With ``count_all`` false, stops at the first stable representation.
    """
    if d0 == 0 or d1 == 0:
        # only the zero-matrix tuple exists; it is nilpotent and satisfies
        # the relations, and is stable iff there is no destabilizing
        # sub-dimension vector (every (e0, e1) <= (d0, d1) is realized)
        stable = not destab
        return 1 if stable else 0

    t = _Tables(d0, d1)
    subs0 = _subspaces(d0)
    subs1 = _subspaces(d1)
    pairs_by_dims = {}
    for e0, e1 in destab:
        pairs_by_dims[(e0, e1)] = [
            (m0, b0, m1, b1)
            for k0, m0, b0 in subs0 if k0 == e0
            for k1, m1, b1 in subs1 if k1 == e1
        ]

    count = 0
    codesA, codesB = t.codesA, t.codesB
    pab, pba = t.pab, t.pba
    # witnesses sit at low rank of y when the vertex-0 simple destabilizes
    for y, orbit in _rank_forms(d0, d1, ascending=(1, 0) in destab):
        pba_y = pba[y]
        ay = _apply_tables(t.rowsB[y], d1, d0)
        fibre = 0
        # rel xyz = zyx depends on (x, y, z) only; index solutions by z
        s1 = {}
        for x in codesA:
            qx = t.qa(pab[x][y])
            for z in codesA:
                if qx[z] == t.qa(pab[z][y])[x]:
                    s1.setdefault(z, []).append(x)
        for w in codesB:
            pba_w = pba[w]
            aw = _apply_tables(t.rowsB[w], d1, d0)
            # rel wxy = yxw: prune x given (y, w)
            x4 = [False] * len(codesA)
            for x in codesA:
                if t.qb(pba_w[x])[y] == t.qb(pba_y[x])[w]:
                    x4[x] = True
            # rel yzw = wzy: prune z given (y, w)
            for z in codesA:
                if t.qb(pba_y[z])[w] != t.qb(pba_w[z])[y]:
                    continue
                qzw = t.qa(pab[z][w])
                for x in s1.get(z, ()):
                    if not x4[x]:
                        continue
                    if qzw[x] != t.qa(pab[x][w])[z]:
                        continue
                    ax = _apply_tables(t.rowsA[x], d0, d1)
                    az = _apply_tables(t.rowsA[z], d0, d1)
                    if not _nilpotent(ax, az, ay, aw, d0, d1):
                        continue
                    if not _stable(ax, az, ay, aw, pairs_by_dims, destab):
                        continue
                    if _end_dim(t.rowsA[x], t.rowsA[z], t.rowsB[y], t.rowsB[w], d0, d1) != 1:
                        continue  # twisted form: splits after field extension
                    if not count_all:
                        return 1
                    fibre += 1
        count += orbit * fibre
    return count
