"""The exhaustive GF(2) representation scan.

Matrices over GF(2) are packed into integers (row-major bit layout) and
multiplied through small precomputed composition tables.  For each
dimension vector the kernel ``scan_dims`` enumerates all four-matrix
tuples satisfying the relations, filters by nilpotency, and tests
stability by running over all arrow-closed subspace pairs; the
destabilizing sub-dimension vectors come from the chamber.  Slope-stable
tuples whose endomorphism algebra is bigger than GF(2) are discarded:
those are Galois-twisted forms that split after a field extension, so
they do not witness a stable dimension vector of the classification the
scan reproduces.  ``scan_stable_dimvectors`` runs the kernel over every
dimension vector up to a bound.

The stability test needs each arrow as a map on vectors: ``_Tables``
builds, once per code, the image of every source vector under that
matrix (``imgA`` for x and z, ``imgB`` for y and w), and the kernel
looks the images of each tuple it tests up there.  Its composition
tables (``pab``, ``pba`` and the memoized ``qa``/``qb``) are filled by
linearity: a product of GF(2) matrices is linear in each factor, so each
row is spanned from the products with the unit codes 1 << k, one XOR per
entry.  The subspaces of each GF(2)^dim are listed once (``_subspaces``);
the tables of a dimension vector, with their memos, live for one call.

Nilpotency is read off the four loops yx, yz, wx and wz at vertex 0,
entries of the composition table ``pba``: a tuple satisfying the
relations is nilpotent exactly when these four d0 x d0 matrices are.
The relations yzw = wzy, zwx = xwz, wxy = yxw and xyz = zyx make the
loops commute pairwise:

    yx.yz = y(xyz) = y(zyx) = yz.yx        wx.wz = w(xwz) = w(zwx) = wz.wx
    yx.wx = (yxw)x = (wxy)x = wx.yx        yz.wz = (yzw)z = (wzy)z = wz.yz
    yx.wz = (yxw)z = w(xyz) = w(zyx) = wz.yx
    yz.wx = (yzw)x = w(zyx) = w(xyz) = wx.yz

Commuting nilpotent matrices are triangular in one common basis, so any
product of d0 of them is zero, and every path of length at least
2 d0 + 2 passes through d0 loops at vertex 0.

The group G = GL(V0) x GL(V1) acts on the tuples by change of basis and
preserves the relations, nilpotency, stability and the endomorphism
algebra.  So ``y`` runs only over its rank normal forms, one per rank,
and count mode weights each fibre by the number of matrices of that rank.
The ranks run from high to low, where the witnesses of chamber -1 sit: y
and w carry the module there.  The order changes how soon a witness is
found, never a result.

Both chambers are scanned with the destabilizing pairs of chamber -1,
which changes no count.  The dual module on the same quiver, x' = y^T,
z' = w^T, y' = x^T, w' = z^T, is an involution that keeps the dims; it
transposes each relation into another (yzw = wzy into z'w'x' = x'w'z')
and each path into a path, so it is a bijection on relation-satisfying
nilpotent tuples.  It keeps dim End: (f0, f1) intertwines a tuple exactly
when (f0^T, f1^T) intertwines its dual.  It maps a closed pair (U0, U1)
of dims e to the closed pair (U0^perp, U1^perp) of dims d - e, which
flips the sign of e0 d1 - e1 d0.  So a tuple is stable in chamber +1
exactly when its dual is stable in chamber -1, and count(+1, d) =
count(-1, d) in every cell.  ``scan_dims`` stays correct for any
destabilizing set; the tests enumerate chamber +1 with it directly.

The loop order prunes aggressively: the relation xyz = zyx constrains
(x, z) given y alone, so its solution table is reused across all w.

Four sub-dimension vectors are decided on one pair of arrows out of one
vertex.  A closed pair of dims (1, 0) is a common kernel vector of x and
z; (0, 1) one of y and w; (d0, d1 - 1) is a hyperplane of V1 holding the
images of x and z, so it exists exactly when im x + im z != V1; and
(d0 - 1, d1) exists exactly when im y + im w != V0.  When (0, 1) or
(d0 - 1, d1) destabilizes, as in chamber -1, the kernel drops a w against
y whose ``_simple_masks`` meet before it tests the relations: ``_stable``
would find that closed pair, so no count changes.  By counting
dimensions, two maps V0 -> V1 share a kernel vector and two maps V1 -> V0
miss part of V0 once d0 > 2 d1; then, or in the mirror case d1 > 2 d0,
``scan_dims`` returns 0 before it builds the tables.
"""

from __future__ import annotations

import sys
from functools import lru_cache

from .gfp import _subspaces_gfp, rank
from .reps import Representation, _destab_sign, intertwiner_matrix


def backend_name() -> str:
    """Always "pure": this module holds the only kernel.  Kept because
    ``perfbench/worker.py`` records it and the CLI and criterion 6 report
    it."""
    return "pure"


def get_backends():
    """Always [("pure", this module)].  Kept because ``perfbench/tracing.py``
    looks the kernel up here to trace it."""
    return [("pure", sys.modules[__name__])]


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


def _products(rows, factor_rows, width):
    """``rows`` times every code of the other factor, packed at ``width``;
    ``factor_rows`` holds the packed rows of every code of that factor.  The
    product is linear in the factor, so code c maps to the XOR of the
    products with the unit codes 1 << k of its bits: one product per unit
    code, then one XOR per entry."""
    t = [0]
    for k in range(len(factor_rows).bit_length() - 1):
        u = _pack(_mul_rows(rows, factor_rows[1 << k]), width)
        t += [v ^ u for v in t]
    return t


class _Tables:
    """Composition tables for one dimension vector (d0, d1)."""

    def __init__(self, d0, d1):
        self.d0, self.d1 = d0, d1
        self.codesA = range(1 << (d1 * d0))  # x, z : V0 -> V1
        self.codesB = range(1 << (d0 * d1))  # y, w : V1 -> V0
        rowsA = [_rows_of(a, d1, d0) for a in self.codesA]
        rowsB = [_rows_of(b, d0, d1) for b in self.codesB]
        self.rowsA, self.rowsB = rowsA, rowsB
        self.imgA = [_apply_tables(rows, d0, d1) for rows in rowsA]
        self.imgB = [_apply_tables(rows, d1, d0) for rows in rowsB]
        # a.b lands in End(V1), b.a in End(V0); only reachable products matter
        self.pab = [_products(ra, rowsB, d1) for ra in rowsA]
        self.pba = [_products(rb, rowsA, d0) for rb in rowsB]
        self._qa, self._qb, self._nil = {}, {}, {}

    def qa(self, c):
        """(End V1 code c) . (A code) -> A code, memoized per c."""
        tab = self._qa.get(c)
        if tab is None:
            tab = self._qa[c] = _products(_rows_of(c, self.d1, self.d1), self.rowsA, self.d0)
        return tab

    def qb(self, c):
        tab = self._qb.get(c)
        if tab is None:
            tab = self._qb[c] = _products(_rows_of(c, self.d0, self.d0), self.rowsB, self.d1)
        return tab

    def nil(self, c):
        """Whether End V0 code c is nilpotent, c^d0 = 0, memoized per c."""
        ok = self._nil.get(c)
        if ok is None:
            rows_c = power = _rows_of(c, self.d0, self.d0)
            for _ in range(self.d0 - 1):
                power = _mul_rows(power, rows_c)
            ok = self._nil[c] = not any(power)
        return ok


@lru_cache(maxsize=None)
def _subspaces(dim):
    """All subspaces of GF(2)^dim: (dim, membership mask over vectors, basis),
    the reduced-echelon bases of ``gfp._subspaces_gfp`` packed into bits.
    Cached per dimension, so the value is a tuple."""
    subs = []
    for rows in _subspaces_gfp(dim, 2):
        basis = tuple(sum(c << j for j, c in enumerate(row)) for row in rows)
        span = {0}
        for b in basis:
            span |= {s ^ b for s in span}
        subs.append((len(basis), sum(1 << v for v in span), basis))
    return tuple(subs)


def _apply_tables(rows, src_dim, tgt_dim):
    """Image vector of every source vector under a packed-row matrix."""
    out = []
    for v in range(1 << src_dim):
        img = 0
        for i in range(tgt_dim):
            img |= (bin(rows[i] & v).count("1") & 1) << i
        out.append(img)
    return out


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
    """dim over GF(2) of the endomorphism algebra of the representation:
    the packed rows unpacked into 0/1 matrices, and the nullity mod 2 of
    their ``reps.intertwiner_matrix``."""
    def unpack(rows, ncols):
        return tuple(tuple((row >> j) & 1 for j in range(ncols)) for row in rows)

    r = Representation((d0, d1), unpack(rx, d0), unpack(rz, d0), unpack(ry, d1), unpack(rw, d1))
    rows = [row for row in intertwiner_matrix(r, r) if any(row)]
    return d0 * d0 + d1 * d1 - rank(rows, 4 * d0 * d1, 2)


def _rank_forms(d0, d1):
    """Rank normal forms of y : V1 -> V0 with the sizes of their orbits,
    from the highest rank to 0.

    Under (g0, g1) : y -> g0 y g1^-1 the orbit of a d0 x d1 matrix over
    GF(2) is fixed by its rank r; the representative has the unit vector
    1 << i as row i for i < r and zero rows below.  The orbit holds every
    rank-r matrix: prod_{i<r} (2^d0 - 2^i)(2^d1 - 2^i) / (2^r - 2^i).
    """
    forms = []
    for r in range(min(d0, d1), -1, -1):
        code = sum(1 << (i * (d1 + 1)) for i in range(r))
        size = 1
        for i in range(r):
            size = size * ((1 << d0) - (1 << i)) * ((1 << d1) - (1 << i)) // ((1 << r) - (1 << i))
        forms.append((code, size))
    return forms


def _simple_masks(img, src, tgt, kernel, cokernel):
    """One bitmask per code from its image table ``img``: with ``kernel``,
    the nonzero source vectors it sends to 0 (bits 1 .. 2^src - 1); with
    ``cokernel``, the nonzero functionals on the target that vanish on the
    images of the unit vectors (shifted past them).  Two codes of one side
    have a common kernel vector, or images spanning less than the target,
    exactly when their masks meet."""
    masks = []
    for im in img:
        cols = [im[1 << i] for i in range(src)]
        mask = 0
        if kernel:
            mask |= sum(1 << v for v in range(1, 1 << src) if not im[v])
        if cokernel:
            mask |= sum(1 << f for f in range(1, 1 << tgt)
                        if not any(bin(f & c).count("1") & 1 for c in cols)) << (1 << src)
        masks.append(mask)
    return masks


def scan_dims(d0, d1, destab, count_all=True):
    """Number of stable relation-satisfying nilpotent tuples over GF(2).

    With ``count_all`` false, stops at the first stable representation.
    """
    # a simple sub or quotient forced by counting dimensions (module docstring)
    if (d0 > 2 * d1 and ((1, 0) in destab or (d0 - 1, d1) in destab)
            or d1 > 2 * d0 and ((0, 1) in destab or (d0, d1 - 1) in destab)):
        return 0
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
    pab, pba, nil = t.pab, t.pba, t.nil
    imgA, imgB = t.imgA, t.imgB
    # a pair (y, w) whose masks meet has a closed pair of dims (0, 1) or
    # (d0 - 1, d1), whichever of them destabilize
    maskB = _simple_masks(imgB, d1, d0, (0, 1) in destab, (d0 - 1, d1) in destab)
    for y, orbit in _rank_forms(d0, d1):
        pba_y = pba[y]
        ay, my = imgB[y], maskB[y]
        fibre = 0
        # rel xyz = zyx depends on (x, y, z) only; index solutions by z
        s1 = {}
        for x in codesA:
            qx = t.qa(pab[x][y])
            for z in codesA:
                if qx[z] == t.qa(pab[z][y])[x]:
                    s1.setdefault(z, []).append(x)
        for w in codesB:
            if my & maskB[w]:
                continue
            pba_w = pba[w]
            aw = imgB[w]
            # rel wxy = yxw and the loops yx, wx: prune x given (y, w)
            x4 = [t.qb(pba_w[x])[y] == t.qb(pba_y[x])[w] and nil(pba_y[x]) and nil(pba_w[x])
                  for x in codesA]
            # rel yzw = wzy and the loops yz, wz: prune z given (y, w)
            for z in codesA:
                if t.qb(pba_y[z])[w] != t.qb(pba_w[z])[y] or not (nil(pba_y[z]) and nil(pba_w[z])):
                    continue
                qzw = t.qa(pab[z][w])
                for x in s1.get(z, ()):
                    if not x4[x]:
                        continue
                    if qzw[x] != t.qa(pab[x][w])[z]:
                        continue
                    # all four relations hold and all four loops are nilpotent
                    if not _stable(imgA[x], imgA[z], ay, aw, pairs_by_dims, destab):
                        continue
                    if _end_dim(t.rowsA[x], t.rowsA[z], t.rowsB[y], t.rowsB[w], d0, d1) != 1:
                        continue  # twisted form: splits after field extension
                    if not count_all:
                        return 1
                    fibre += 1
        count += orbit * fibre
    return count


def destabilizing_pairs(chamber: int, d0: int, d1: int):
    """Proper nonzero sub-dimension vectors of phase >= the total phase,
    by the slope rule of the stability verdicts (`reps._destab_sign`), which
    depends on the chamber only through its sign.  Sorted small-first so
    witnesses are found early.
    """
    out = []
    for e0 in range(d0 + 1):
        for e1 in range(d1 + 1):
            e = (e0, e1)
            if e not in ((0, 0), (d0, d1)) and _destab_sign(e, (d0, d1), -chamber) <= 0:
                out.append(e)
    return sorted(out, key=lambda p: (p[0] + p[1], p))


def scan_stable_dimvectors(chamber: int, bound: int, with_counts=False):
    """Exhaustive GF(2) scan over all dimension vectors d0 + d1 <= bound.

    Returns {dims: number of stable representations} (dims with at least
    one).  ``with_counts=False`` stops each dimension vector at the first
    stable representation, which does not change the returned key set.
    Both chambers are scanned as chamber -1 (module docstring).
    """
    if chamber not in (1, -1):
        raise ValueError("chamber must be +1 or -1")
    if not 1 <= bound <= 5:
        raise ValueError("bound must be in 1..5")
    results = {}
    for total in range(1, bound + 1):
        for d0 in range(total + 1):
            d1 = total - d0
            n = scan_dims(d0, d1, destabilizing_pairs(-1, d0, d1), count_all=with_counts)
            if n:
                results[(d0, d1)] = n
    return results
