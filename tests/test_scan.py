import pytest

from conifold_flop import scan, scan_py
from conifold_flop.reps import stability_params, stable_dimvector_scan

CH1 = stability_params(-1, 2, 1, 1)
CH2 = stability_params(1, 1, -1, 2)

EXPECTED5 = {(0, 1), (1, 0), (1, 1), (1, 2), (2, 1), (2, 3), (3, 2)}


def test_destabilizing_pairs():
    assert scan.destabilizing_pairs(1, 1, 2) == [(1, 0), (1, 1)]
    assert scan.destabilizing_pairs(-1, 1, 2) == [(0, 1), (0, 2)]
    assert (1, 1) in scan.destabilizing_pairs(1, 2, 2)


def test_scan_bound_4_pure():
    got = scan.scan_stable_dimvectors(1, 4, with_counts=True)
    assert got == {(0, 1): 1, (1, 0): 1, (1, 1): 3, (1, 2): 6, (2, 1): 6}


def test_scan_bound_5_exists_mode():
    assert stable_dimvector_scan(CH1, 5) == EXPECTED5
    assert stable_dimvector_scan(CH2, 5) == EXPECTED5


def test_degenerate_dims():
    # a zero vertex space leaves only the zero-matrix tuple
    assert scan_py.scan_dims(0, 1, []) == 1
    assert scan_py.scan_dims(0, 2, [(0, 1)]) == 0


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
    with pytest.raises(ValueError):
        stable_dimvector_scan(CH1, 6)


def test_schur_filter_blocks_twisted_forms():
    # without the endomorphism filter the twisted (2, 2) forms would count
    destab = scan.destabilizing_pairs(1, 2, 2)
    assert scan_py.scan_dims(2, 2, destab) == 0


def _gl_order(d):
    """|GL(d, F2)|."""
    out = 1
    for i in range(d):
        out *= (1 << d) - (1 << i)
    return out


@pytest.fixture(scope="module")
def counts4():
    return {ch: scan.scan_stable_dimvectors(ch, 4, with_counts=True)
            for ch in (1, -1)}


@pytest.mark.parametrize("chamber", [1, -1])
def test_orbit_reduction_matches_full_enumeration(chamber, counts4, monkeypatch):
    # every y code as its own form with weight 1 is the unreduced scan
    def every_y(d0, d1, ascending):
        return [(y, 1) for y in range(1 << (d0 * d1))]

    monkeypatch.setattr(scan_py, "_rank_forms", every_y)
    assert scan.scan_stable_dimvectors(chamber, 4, with_counts=True) == counts4[chamber]


@pytest.mark.parametrize("chamber", [1, -1])
def test_pure_count_at_2_3(chamber):
    # one iso class with a free orbit: |GL2(F2)| * |GL3(F2)| = 6 * 168
    destab = scan.destabilizing_pairs(chamber, 2, 3)
    assert scan_py.scan_dims(2, 3, destab, count_all=True) == 1008


def test_chamber_duality(counts4):
    # swapping x <-> y and z <-> w swaps the vertices and maps W to -W
    swapped = {(d1, d0): n for (d0, d1), n in counts4[1].items()}
    assert counts4[-1] == swapped


def test_counts_divisible_by_group_order(counts4):
    # End = F2 leaves a trivial stabilizer, so G = GL(d0) x GL(d1) acts freely
    for counts in counts4.values():
        for (d0, d1), n in counts.items():
            assert n % (_gl_order(d0) * _gl_order(d1)) == 0


@pytest.mark.parametrize("d0,d1", [(1, 1), (2, 3), (3, 2), (2, 2), (1, 4)])
def test_rank_forms_partition_all_matrices(d0, d1):
    forms = scan_py._rank_forms(d0, d1, ascending=True)
    assert len(forms) == min(d0, d1) + 1
    assert sum(size for _, size in forms) == 1 << (d0 * d1)
    for r, (code, _) in enumerate(forms):
        rows = scan_py._rows_of(code, d0, d1)
        assert len(scan_py._reduce_basis(list(rows))) == r
    assert scan_py._rank_forms(d0, d1, ascending=False) == forms[::-1]
