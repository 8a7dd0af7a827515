import random

import pytest

from conifold_flop.ainfty import (TABLE, AInftyTable, B_PAIRS, BRANES, DEGREE, GENERATORS,
                                  StasheffReport, _tuples, deformed, mc_expand, mc_matches_relations,
                                  stasheff_check)
from conifold_flop.paths import POTENTIAL, FreePathElement, cyclic_derivative, fpe


def test_generator_degrees():
    assert DEGREE["unit0"] == 0 and DEGREE["pt1"] == 3
    assert all(DEGREE[g] == 1 for g in "XYZW")
    assert all(DEGREE[g + "bar"] == 2 for g in "XYZW")
    assert len(GENERATORS) == 12


def test_m2_pairings():
    assert TABLE.apply(("X", "Xbar")) == (-1, "pt0")
    assert TABLE.apply(("Zbar", "Z")) == (1, "pt1")
    assert TABLE.apply(("Ybar", "Y")) == (1, "pt0")
    assert TABLE.apply(("W", "Wbar")) == (-1, "pt1")
    assert TABLE.apply(("X", "Zbar")) is None


def test_unit_axioms():
    assert TABLE.apply(("unit0", "X")) == (1, "X")
    assert TABLE.apply(("X", "unit1")) == (-1, "X")
    assert TABLE.apply(("unit0", "unit0")) == (1, "unit0")
    assert TABLE.apply(("unit0", "X", "Y")) is None


def test_coefficient_rule_reverses_words():
    # m3(xX, yY, Z) = yx m3(X, Y, Z) = yx Wbar and m3(xX, wW, Z) = wx m3(X, W, Z) = -wx Ybar
    assert deformed(("Z",)) == {"Wbar": fpe("yx"), "Ybar": FreePathElement({"wx": -1})}


def test_apply_rejects_non_composable_branes():
    with pytest.raises(ValueError):
        TABLE.apply(("X", "Z"))  # X ends on sphere 1, Z starts on sphere 0


def test_stasheff_passes():
    report = stasheff_check(6)
    assert report.ok
    assert report.checked > 100000


def test_stasheff_catches_mutation():
    t = AInftyTable()
    t.m3 = dict(t.m3)
    t.m3[("X", "Y", "Z")] = (2, "Wbar")
    report = stasheff_check(6, t)
    assert not report.ok
    arity, gens, residual = report.violation
    assert arity == 4
    assert set(gens) <= set("XYZW")


def _dense_stasheff_check(max_arity, table):
    """The sweep ``stasheff_check`` replaced: every composable tuple of
    arity 2..max_arity, every inner operation at every slot."""
    checked = 0
    for arity in range(2, max_arity + 1):
        for gens in _tuples(arity):
            residual = {}
            for s in (2, 3):
                outer_arity = arity - s + 1
                if outer_arity < 1 or outer_arity > 3:
                    continue
                for r in range(0, arity - s + 1):
                    inner = table.apply(gens[r:r + s])
                    if inner is None:
                        continue
                    sign_in, gen_in = inner
                    spliced = gens[:r] + (gen_in,) + gens[r + s:]
                    if len(spliced) == 1:
                        continue  # m1 = 0
                    if not table.composable(spliced):
                        continue
                    outer = table.apply(spliced)
                    if outer is None:
                        continue
                    sign_out, gen_out = outer
                    koszul = sum(DEGREE[g] - 1 for g in gens[:r])
                    term = sign_in * sign_out * (-1) ** (koszul % 2)
                    residual[gen_out] = residual.get(gen_out, 0) + term
            checked += 1
            residual = {g: c for g, c in residual.items() if c != 0}
            if residual:
                return StasheffReport(False, checked, (arity, gens, residual))
    return StasheffReport(True, checked)


def _report(rep):
    return rep.ok, rep.checked, rep.violation


@pytest.mark.parametrize("max_arity", range(2, 7))
def test_stasheff_counts_composable_tuples(max_arity):
    report = stasheff_check(max_arity)
    assert report.ok
    assert report.checked == {2: 72, 3: 504, 4: 3096, 5: 18648, 6: 111960}[max_arity]
    assert _report(report) == _report(_dense_stasheff_check(max_arity, AInftyTable()))


def _mutated_table(rng):
    """The default table with one to three entries of m2/m3 changed: a
    sign flipped or doubled, an entry deleted, or its output moved to a
    generator whose branes differ from those of the input tuple."""
    t = AInftyTable()
    t.m2, t.m3 = dict(t.m2), dict(t.m3)
    for _ in range(rng.randint(1, 3)):
        m = rng.choice((t.m2, t.m3))
        key = rng.choice(sorted(m))
        sign, gen = m[key]
        kind = rng.choice(("flip", "double", "delete", "wrong_branes"))
        if kind == "flip":
            m[key] = (-sign, gen)
        elif kind == "double":
            m[key] = (2 * sign, gen)
        elif kind == "delete":
            del m[key]
        else:
            branes = (BRANES[key[0]][0], BRANES[key[-1]][1])
            m[key] = (sign, rng.choice([g for g in GENERATORS if BRANES[g] != branes]))
    return t


def test_stasheff_matches_dense_sweep_on_mutations():
    rng = random.Random(20171)
    failures = 0
    for _ in range(120):
        table = _mutated_table(rng)
        max_arity = rng.randint(2, 6)
        got = stasheff_check(max_arity, table)
        assert _report(got) == _report(_dense_stasheff_check(max_arity, table))
        failures += not got.ok
    assert 0 < failures < 120


def test_mc_components():
    comps = mc_expand()
    assert comps["Wbar"] == FreePathElement({"zyx": 1, "xyz": -1})
    assert comps["Xbar"] == FreePathElement({"wzy": 1, "yzw": -1})
    assert comps["Ybar"] == FreePathElement({"xwz": 1, "zwx": -1})
    assert comps["Zbar"] == FreePathElement({"yxw": 1, "wxy": -1})
    assert set(comps) == {"Xbar", "Ybar", "Zbar", "Wbar"}


def test_mc_equals_minus_cyclic_derivatives():
    assert mc_matches_relations()
    comps = mc_expand()
    for arrow, bar in zip("xyzw", ("Xbar", "Ybar", "Zbar", "Wbar")):
        assert comps[bar] == -cyclic_derivative(POTENTIAL, arrow)


def test_mc_ideal_membership_both_ways():
    # the deformation components span the same degree-3 ideal slice as the
    # relations: mutual membership after reduction
    from conifold_flop.truncated import truncated_algebra
    from conifold_flop.paths import relations

    A = truncated_algebra(8)
    comps = mc_expand()
    rels = relations()
    for c in comps.values():
        assert A.is_zero(c)  # the relations generate: each component reduces to 0
    for r in rels:
        # conversely each relation is (minus) a component
        assert any((r + c).is_zero() or (r - c).is_zero() for c in comps.values())


def test_b_pairs_match_arrows():
    assert B_PAIRS == (("x", "X"), ("y", "Y"), ("z", "Z"), ("w", "W"))
