import itertools

import pytest
from hypothesis import given, settings, strategies as st

from conifold_flop import scan
from conifold_flop.reps import stability_params

CH1 = stability_params(-1, 2, 1, 1)
CH2 = stability_params(1, 1, -1, 2)

EXPECTED5 = {(0, 1), (1, 0), (1, 1), (1, 2), (2, 1), (2, 3), (3, 2)}


def test_destabilizing_pairs():
    assert scan.destabilizing_pairs(1, 1, 2) == [(1, 0), (1, 1)]
    assert scan.destabilizing_pairs(-1, 1, 2) == [(0, 1), (0, 2)]
    assert (1, 1) in scan.destabilizing_pairs(1, 2, 2)
    # the slope rule stated on its own: the sign of e0 * d1 - e1 * d0 times the chamber
    for chamber, d0, d1 in itertools.product((1, -1), range(8), range(8)):
        want = [(e0, e1) for e0 in range(d0 + 1) for e1 in range(d1 + 1)
                if (e0, e1) not in ((0, 0), (d0, d1)) and chamber * (e0 * d1 - e1 * d0) >= 0]
        assert scan.destabilizing_pairs(chamber, d0, d1) == sorted(want, key=lambda p: (sum(p), p))


def test_scan_bound_4_pure():
    got = scan.scan_stable_dimvectors(1, 4, with_counts=True)
    assert got == {(0, 1): 1, (1, 0): 1, (1, 1): 3, (1, 2): 6, (2, 1): 6}


def test_scan_bound_5_exists_mode():
    assert set(scan.scan_stable_dimvectors(CH1.chamber(), 5)) == EXPECTED5
    assert set(scan.scan_stable_dimvectors(CH2.chamber(), 5)) == EXPECTED5


def test_degenerate_dims():
    # a zero vertex space leaves only the zero-matrix tuple: nilpotent,
    # satisfying the relations, and stable iff nothing destabilizes
    assert scan.scan_dims(0, 1, []) == 1
    assert scan.scan_dims(0, 2, [(0, 1)]) == 0
    for k, chamber, count_all in itertools.product(range(1, 6), (1, -1), (True, False)):
        for d0, d1 in ((0, k), (k, 0)):
            destab = scan.destabilizing_pairs(chamber, d0, d1)
            assert scan.scan_dims(d0, d1, destab, count_all=count_all) == (0 if destab else 1)


def test_counts_are_group_orbit_sizes():
    # |GL(1)| * |GL(2)| = 6 over GF(2): the chain module has a free orbit
    got = scan.scan_stable_dimvectors(1, 3, with_counts=True)
    assert got[(1, 2)] == 6 and got[(2, 1)] == 6
    assert got[(1, 1)] == 3  # the three point modules


def test_bad_arguments():
    with pytest.raises(ValueError):
        scan.scan_stable_dimvectors(0, 4)
    with pytest.raises(ValueError):
        scan.scan_stable_dimvectors(1, 6)
    with pytest.raises(ValueError, match=r"bound must be in 1\.\.5"):
        scan.scan_stable_dimvectors(CH1.chamber(), 6)


def test_schur_filter_blocks_twisted_forms():
    # without the endomorphism filter the twisted (2, 2) forms would count
    destab = scan.destabilizing_pairs(1, 2, 2)
    assert scan.scan_dims(2, 2, destab) == 0


def _gl_order(d):
    """|GL(d, F2)|."""
    out = 1
    for i in range(d):
        out *= (1 << d) - (1 << i)
    return out


_CELLS5 = [(d0, t - d0) for t in range(1, 6) for d0 in range(t + 1)]


def _scan_chamber(chamber, bound, with_counts):
    """The kernel run directly with the destabilizing pairs of ``chamber``
    on every cell d0 + d1 <= bound: for chamber +1 an enumeration of its
    own, independent of the duality that ``scan_stable_dimvectors`` uses."""
    out = {}
    for d0, d1 in _CELLS5:
        if d0 + d1 <= bound:
            n = scan.scan_dims(d0, d1, scan.destabilizing_pairs(chamber, d0, d1), count_all=with_counts)
            if n:
                out[(d0, d1)] = n
    return out


@pytest.fixture(scope="module")
def counts4():
    return {ch: _scan_chamber(ch, 4, True) for ch in (1, -1)}


@pytest.mark.parametrize("with_counts", [True, False])
def test_chamber_plus_oracle_matches_the_scan(with_counts):
    # every cell of bound 5, chamber +1 enumerated directly, against the
    # scan of either chamber; both leave out the cells that count 0
    oracle = _scan_chamber(1, 5, with_counts)
    for chamber in (1, -1):
        assert scan.scan_stable_dimvectors(chamber, 5, with_counts=with_counts) == oracle


@pytest.mark.parametrize("chamber", [1, -1])
def test_orbit_reduction_matches_full_enumeration(chamber, counts4, monkeypatch):
    # every y code as its own form with weight 1 is the unreduced scan
    def every_y(d0, d1):
        return [(y, 1) for y in range(1 << (d0 * d1))]

    monkeypatch.setattr(scan, "_rank_forms", every_y)
    assert _scan_chamber(chamber, 4, True) == counts4[chamber]


@pytest.mark.parametrize("chamber", [1, -1])
def test_pure_count_at_2_3(chamber):
    # one iso class with a free orbit: |GL2(F2)| * |GL3(F2)| = 6 * 168
    destab = scan.destabilizing_pairs(chamber, 2, 3)
    assert scan.scan_dims(2, 3, destab, count_all=True) == 1008


def test_chamber_duality(counts4):
    # swapping x <-> y and z <-> w swaps the vertices and maps W to -W
    swapped = {(d1, d0): n for (d0, d1), n in counts4[1].items()}
    assert counts4[-1] == swapped
    # the module duality keeps the dims and swaps the chambers
    assert counts4[1] == counts4[-1]


def test_counts_divisible_by_group_order(counts4):
    # End = F2 leaves a trivial stabilizer, so G = GL(d0) x GL(d1) acts freely
    for counts in counts4.values():
        for (d0, d1), n in counts.items():
            assert n % (_gl_order(d0) * _gl_order(d1)) == 0


@pytest.mark.parametrize("d0,d1", _CELLS5)
def test_image_tables_match_apply_tables(d0, d1):
    t = scan._Tables(d0, d1)
    assert len(t.imgA) == len(t.imgB) == 1 << (d0 * d1)
    for c in range(1 << (d0 * d1)):
        assert t.imgA[c] == scan._apply_tables(scan._rows_of(c, d1, d0), d0, d1)
        assert t.imgB[c] == scan._apply_tables(scan._rows_of(c, d0, d1), d1, d0)


@pytest.mark.parametrize("d0,d1", _CELLS5)
def test_composition_tables_match_direct_products(d0, d1):
    # the tables are spanned from unit codes; each entry is one product
    t = scan._Tables(d0, d1)
    pack, mul = scan._pack, scan._mul_rows
    for a in t.codesA:
        for b in t.codesB:
            assert t.pab[a][b] == pack(mul(t.rowsA[a], t.rowsB[b]), d1)
            assert t.pba[b][a] == pack(mul(t.rowsB[b], t.rowsA[a]), d0)
    # every End code up to dimension 3; above it, every code the scan can
    # pass in (a product in pab or pba): End(GF(2)^5) alone has 2^25 codes
    for d, width, table, q, rows in ((d1, d0, t.pab, t.qa, t.rowsA), (d0, d1, t.pba, t.qb, t.rowsB)):
        codes = range(1 << (d * d)) if d <= 3 else sorted({c for row in table for c in row})
        for c in codes:
            rows_c = scan._rows_of(c, d, d)
            assert q(c) == [pack(mul(rows_c, r), width) for r in rows]


@pytest.mark.parametrize("dim", range(5))
def test_subspaces_cached_value_is_immutable(dim):
    subs = scan._subspaces(dim)
    assert scan._subspaces(dim) is subs
    assert isinstance(subs, tuple)
    assert all(isinstance(s, tuple) and isinstance(s[2], tuple) for s in subs)
    with pytest.raises((TypeError, AttributeError)):
        subs[0] = None
    with pytest.raises(AttributeError):
        subs.append(None)


@pytest.mark.parametrize("d0,d1", [(1, 1), (2, 3), (3, 2), (2, 2), (1, 4)])
def test_rank_forms_partition_all_matrices(d0, d1):
    forms = scan._rank_forms(d0, d1)
    assert len(forms) == min(d0, d1) + 1
    assert sum(size for _, size in forms) == 1 << (d0 * d1)
    # from the highest rank down to 0
    for r, (code, _) in zip(range(min(d0, d1), -1, -1), forms):
        rows = scan._rows_of(code, d0, d1)
        assert len(_reduce_basis(list(rows))) == r


# --- oracle: nilpotency by the radical chain on packed vectors ---------------


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


def _relations_hold(rx, rz, ry, rw):
    """yzw = wzy, zwx = xwz, wxy = yxw and xyz = zyx on packed rows."""
    def word(*rows):
        out = rows[0]
        for r in rows[1:]:
            out = scan._mul_rows(out, r)
        return out

    return (word(ry, rz, rw) == word(rw, rz, ry) and word(rz, rw, rx) == word(rx, rw, rz)
            and word(rw, rx, ry) == word(ry, rx, rw) and word(rx, ry, rz) == word(rz, ry, rx))


def _simple_destabilizes(images, d0, d1, destab, sides=("xz", "yw")):
    """Whether a closed pair of dims (1, 0), (0, 1), (d0, d1 - 1) or
    (d0 - 1, d1) lies in ``destab``: a common kernel vector of x and z, or
    of y and w, or images of x and z (of y and w) spanning less than V1
    (than V0).  ``sides`` limits the test to the pairs of those arrows.
    Ranks by Gaussian elimination on the image vectors."""
    ax, az, ay, aw = images

    def common_kernel(a, b, src):
        return any(not a[v] and not b[v] for v in range(1, 1 << src))

    def rank(a, b, src):
        return len(_reduce_basis([m[1 << i] for m in (a, b) for i in range(src)]))

    return ("xz" in sides and ((1, 0) in destab and common_kernel(ax, az, d0)
                               or (d0, d1 - 1) in destab and rank(ax, az, d0) < d1)
            or "yw" in sides and ((0, 1) in destab and common_kernel(ay, aw, d1)
                                  or (d0 - 1, d1) in destab and rank(ay, aw, d1) < d0))


def _forced(d0, d1, destab):
    """The cells where ``scan_dims`` returns 0 before the tables."""
    return (d0 > 2 * d1 and ((1, 0) in destab or (d0 - 1, d1) in destab)
            or d1 > 2 * d0 and ((0, 1) in destab or (d0, d1 - 1) in destab))


@pytest.mark.parametrize("chamber", [1, -1])
def test_loop_rule_matches_radical_chain(chamber, monkeypatch):
    # the kernel hands every tuple passing its relation, loop and simple
    # filters to _stable; those must be exactly the relation-satisfying
    # tuples (y in its rank forms) of the cells it does not decide early
    # that the radical chain finds nilpotent and that have no destabilizing
    # simple sub or quotient on the side of y and w
    seen = set()

    def record(ax, az, ay, aw, pairs_by_dims, destab):
        seen.add((tuple(ax), tuple(az), tuple(ay), tuple(aw)))
        return False

    monkeypatch.setattr(scan, "_stable", record)
    assert _scan_chamber(chamber, 4, True) == {}
    expected, satisfying, simple = set(), 0, 0
    for total in range(1, 5):
        for d0 in range(total + 1):
            d1 = total - d0
            destab = scan.destabilizing_pairs(chamber, d0, d1)
            if _forced(d0, d1, destab):
                continue
            rows_a = [scan._rows_of(c, d1, d0) for c in range(1 << (d0 * d1))]
            rows_b = [scan._rows_of(c, d0, d1) for c in range(1 << (d0 * d1))]
            for y, _ in scan._rank_forms(d0, d1):
                ry = rows_b[y]
                for rx, rz, rw in itertools.product(rows_a, rows_a, rows_b):
                    if not _relations_hold(rx, rz, ry, rw):
                        continue
                    satisfying += 1
                    images = (scan._apply_tables(rx, d0, d1), scan._apply_tables(rz, d0, d1),
                              scan._apply_tables(ry, d1, d0), scan._apply_tables(rw, d1, d0))
                    if not _nilpotent(*images, d0, d1):
                        continue
                    if _simple_destabilizes(images, d0, d1, destab, sides=("yw",)):
                        simple += 1
                    else:
                        expected.add(tuple(map(tuple, images)))
    assert len(expected) + simple < satisfying  # the rule has tuples to reject
    # and so has the simple filter, in chamber -1 only: in chamber +1, (0, 1)
    # and (d0 - 1, d1) destabilize only in the cells decided early
    assert bool(simple) == (chamber < 0)
    assert seen == expected


@pytest.fixture(scope="module")
def nilpotent_tuples4():
    """{(d0, d1): every relation-satisfying nilpotent code tuple (x, z, y, w)}
    for d0 + d1 <= 4, y over all codes, and the cell's image tables."""
    out = {}
    for total in range(1, 5):
        for d0 in range(total + 1):
            d1 = total - d0
            t = scan._Tables(d0, d1)
            tuples = [(x, z, y, w) for x, z, y, w in itertools.product(t.codesA, t.codesA, t.codesB, t.codesB)
                      if _relations_hold(t.rowsA[x], t.rowsA[z], t.rowsB[y], t.rowsB[w])
                      and _nilpotent(t.imgA[x], t.imgA[z], t.imgB[y], t.imgB[w], d0, d1)]
            out[(d0, d1)] = (t, tuples)
    return out


@pytest.mark.parametrize("chamber", [1, -1])
def test_simple_filter_drops_only_unstable_tuples(chamber, nilpotent_tuples4):
    # the kernel's masks on (y, w) meet exactly on the tuples with a
    # destabilizing simple sub or quotient on that side, and _stable rejects
    # each of them; in the cells that return before the tables, every tuple
    # has a destabilizing simple sub or quotient, on one side or the other
    dropped = 0
    for (d0, d1), (t, tuples) in nilpotent_tuples4.items():
        destab = scan.destabilizing_pairs(chamber, d0, d1)
        forced = _forced(d0, d1, destab)
        mask_b = scan._simple_masks(t.imgB, d1, d0, (0, 1) in destab, (d0 - 1, d1) in destab)
        pairs = {(e0, e1): [(m0, b0, m1, b1) for k0, m0, b0 in scan._subspaces(d0) if k0 == e0
                            for k1, m1, b1 in scan._subspaces(d1) if k1 == e1]
                 for e0, e1 in destab}
        for x, z, y, w in tuples:
            images = (t.imgA[x], t.imgA[z], t.imgB[y], t.imgB[w])
            masked = bool(mask_b[y] & mask_b[w])
            assert masked == _simple_destabilizes(images, d0, d1, destab, sides=("yw",))
            assert _simple_destabilizes(images, d0, d1, destab) or not forced
            if masked or forced:
                dropped += 1
                assert not scan._stable(*images, pairs, destab)
    assert dropped


def test_forced_cells_return_before_the_tables(monkeypatch):
    class Built(Exception):
        pass

    def no_tables(d0, d1):
        raise Built

    # every cell that reaches the tables calls the patched class
    monkeypatch.setattr(scan, "_Tables", no_tables)
    for chamber in (1, -1):
        early = set()
        for d0, d1 in _CELLS5:
            try:
                assert scan.scan_dims(d0, d1, scan.destabilizing_pairs(chamber, d0, d1)) == 0
            except Built:
                continue
            early.add((d0, d1))
        assert early == {(0, 2), (0, 3), (0, 4), (0, 5), (2, 0), (3, 0), (4, 0), (5, 0),
                         (1, 3), (3, 1), (1, 4), (4, 1)}


# --- oracle: the GF(2) End dimension from packed intertwining equations --------


def _oracle_end_dim(rx, rz, ry, rw, d0, d1):
    """dim End over GF(2) from the equations p1.M = M.p0 (x, z) and
    p0.M = M.p1 (y, w), assembled as packed bit rows over the entries of
    p0 (d0 x d0) and p1 (d1 x d1)."""
    n0, n1 = d0 * d0, d1 * d1
    rows = []

    def eq_rows(m_rows, mr, mc, left_off, left_n, right_off):
        # p_left . M - M . p_right = 0, with M an (mr x mc) matrix
        for i in range(mr):
            for j in range(mc):
                row = 0
                for k in range(mr):
                    if (m_rows[k] >> j) & 1:
                        row ^= 1 << (left_off + i * left_n + k)
                kk, k = m_rows[i], 0
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


@pytest.mark.parametrize("d0,d1", [(1, 1), (1, 2), (2, 1)])
def test_end_dim_matches_oracle_exhaustively(d0, d1):
    rows_a = list(itertools.product(range(1 << d0), repeat=d1))  # x, z : V0 -> V1
    rows_b = list(itertools.product(range(1 << d1), repeat=d0))  # y, w : V1 -> V0
    for rx, rz, ry, rw in itertools.product(rows_a, rows_a, rows_b, rows_b):
        assert scan._end_dim(rx, rz, ry, rw, d0, d1) == _oracle_end_dim(rx, rz, ry, rw, d0, d1)


@st.composite
def _packed_quadruple(draw):
    d0, d1 = draw(st.sampled_from([(2, 2), (2, 3), (3, 2)]))
    a, b = st.integers(0, (1 << d0) - 1), st.integers(0, (1 << d1) - 1)
    return (tuple(draw(a) for _ in range(d1)), tuple(draw(a) for _ in range(d1)),
            tuple(draw(b) for _ in range(d0)), tuple(draw(b) for _ in range(d0)), d0, d1)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_packed_quadruple())
def test_end_dim_matches_oracle_on_quadruples(args):
    assert scan._end_dim(*args) == _oracle_end_dim(*args)
