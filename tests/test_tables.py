from fractions import Fraction

import pytest

from conifold_flop import cli, tables
from conifold_flop.freecomplex import (FCGen, FreeComplex, ModuleSlices, StabilizationError,
                                       d_squared_ideal_check, extend_resolution)
from conifold_flop.homalg import free_complex_cohomology, iso_check
from conifold_flop.paths import FreePathElement, fpe
from conifold_flop.reps import make_catalog_rep
from conifold_flop.tables import catalog_tables, table_sphere, table_sphere_m, table_torus
from conifold_flop.truncated import truncated_algebra


def _row(fc, name):
    return {out: coeff for coeff, out in fc.diff[name]}


# The sphere tables as they were written out by hand before `table_sphere`
# derived them from the A-infinity structure: the generators as (name,
# vertex, degree, internal degree) and the rows {input: {output: {word: coeff}}}.
HAND_SPHERES = {
    0: ([("unit", 0, 0, 4), ("Y", 1, 1, 3), ("W", 1, 1, 3), ("Xbar", 1, 2, 1), ("Zbar", 1, 2, 1),
         ("pt", 0, 3, 0)],
        {"unit": {"Y": {"y": 1}, "W": {"w": 1}},
         "Y": {"Zbar": {"xw": 1}, "Xbar": {"zw": -1}},
         "W": {"Xbar": {"zy": 1}, "Zbar": {"xy": -1}},
         "Xbar": {"pt": {"x": 1}},
         "Zbar": {"pt": {"z": 1}}}),
    1: ([("unit", 1, 0, 4), ("X", 0, 1, 3), ("Z", 0, 1, 3), ("Ybar", 0, 2, 1), ("Wbar", 0, 2, 1),
         ("pt", 1, 3, 0)],
        {"unit": {"X": {"x": 1}, "Z": {"z": 1}},
         "X": {"Wbar": {"yz": 1}, "Ybar": {"wz": -1}},
         "Z": {"Ybar": {"wx": 1}, "Wbar": {"yx": -1}},
         "Ybar": {"pt": {"y": 1}},
         "Wbar": {"pt": {"w": 1}}}),
}


def _hand_sphere(v):
    """The hand table of vertex ``v``, its unit and point class named as in
    the A-infinity algebra (unit0, pt0, ...)."""
    gens, rows = HAND_SPHERES[v]

    def name(g):
        return g + str(v) if g in ("unit", "pt") else g

    return FreeComplex([FCGen(name(g), *rest) for g, *rest in gens],
                       {name(g): [(FreePathElement(c), name(h)) for h, c in row.items()]
                        for g, row in rows.items()})


@pytest.mark.parametrize("v", (0, 1))
def test_sphere_rows_match_the_hand_rows_up_to_one_sign_per_degree(v):
    hand, fc = _hand_sphere(v), table_sphere(v)
    assert fc.gens == hand.gens
    signs = {}
    for g in fc.gens:
        row, want = _row(fc, g.name), _row(hand, g.name)
        assert set(row) == set(want)
        for out, coeff in want.items():
            sign = signs.setdefault(g.degree, 1 if row[out] == coeff else -1)
            assert row[out] == sign * coeff
    # a sign per degree is a change of generator signs: the complexes are isomorphic
    assert signs == {0: {0: -1, 1: 1, 2: -1}, 1: {0: -1, 1: -1, 2: -1}}[v]


@pytest.mark.parametrize("v", (0, 1))
def test_sphere_tables_agree_with_the_hand_tables(v):
    hand, fc = _hand_sphere(v), table_sphere(v)
    simple = make_catalog_rep("simple", v)
    for cutoff in (6, 7, 8):
        assert d_squared_ideal_check(fc, cutoff)
        h = free_complex_cohomology(fc, cutoff)
        assert h == free_complex_cohomology(hand, cutoff)
        assert set(h) == {0} and iso_check(h[0], simple)


def test_sphere_vertex_range():
    with pytest.raises(ValueError):
        table_sphere(2)


def test_d_squared_entries_of_sphere0():
    fc = table_sphere(0)
    entries = fc.d_squared_entries()
    # d(d(unit0)) lands on the degree-2 generators with relation coefficients
    assert entries[("unit0", "Xbar")] == FreePathElement({"yzw": 1, "wzy": -1})
    assert entries[("unit0", "Zbar")] == FreePathElement({"wxy": 1, "yxw": -1})
    # and d(d(Y)), d(d(W)) push relation combinations onto the point class
    assert entries[("Y", "pt0")] == FreePathElement({"zwx": 1, "xwz": -1})


def test_d_squared_check_all_catalog():
    for name, fc in catalog_tables(rho=2, ms=(2, 3)).items():
        assert d_squared_ideal_check(fc, 8), name


def test_d_squared_check_rejects_sign_flip():
    fc = table_sphere(0)
    diff = {g.name: list(fc.diff[g.name]) for g in fc.gens}
    diff["Xbar"] = [(fpe("x"), "pt0")]  # the derived row is -x pt0
    mutated = FreeComplex(fc.gens, diff)
    assert not d_squared_ideal_check(mutated, 8)


def test_torus_rows():
    fc = table_torus(Fraction(2))
    assert _row(fc, "b11") == {"a11": FreePathElement({"x": 2, "z": -1})}
    assert _row(fc, "a01") == {"a11": FreePathElement({"wz": -1})}
    assert _row(fc, "a10") == {"a11": fpe("yx")}
    assert _row(fc, "a00") == {"a01": fpe("yx"), "a10": fpe("wz")}
    fc1 = table_torus(1)
    assert _row(fc1, "b11") == {"a11": FreePathElement({"x": 1, "z": -1})}


def test_torus_needs_nonzero_ratio():
    with pytest.raises(ValueError):
        table_torus(0)


def test_sphere_m_row_shapes():
    fc2 = table_sphere_m(2)
    names2 = {g.name for g in fc2.gens if g.degree == 2}
    assert names2 == {"p1", "p2", "q1", "q2"}  # one top class: no consecutive rows
    fc3 = table_sphere_m(3)
    rows3 = [n for n in ("r1", "r2") if n in fc3.by_name]
    assert rows3 == ["r1"]  # exactly one consecutive row for two top classes
    assert _row(fc3, "r1") == {"c1": fpe("z"), "c2": FreePathElement({"x": -1})}
    assert _row(fc3, "p1") == {"c1": fpe("yx")}
    assert _row(fc3, "q2") == {"c1": fpe("wz")}
    assert _row(fc3, "p3") == {"c2": fpe("yz")}
    assert _row(fc3, "q1") == {"c1": fpe("wx")}


@pytest.mark.parametrize("m", range(2, 9))
def test_sphere_m_closed_form_matches_syzygy_completion(m):
    # the oracle: the top rows completed downward by computed minimal
    # syzygies; the same generators, names, order and rows
    want = extend_resolution(FreeComplex(*tables._sphere_m_top(m)),
                             cutoff=10 if m <= 6 else 12, s_cap=7)
    if m <= tables.SM_MAX:
        got = table_sphere_m(m)
    else:  # beyond SM_MAX: the closed form itself, below the same top rows
        top_gens, top_diff = tables._sphere_m_top(m)
        low_gens, low_diff = tables._sphere_m_syzygies(m)
        got = FreeComplex(top_gens + low_gens, {**top_diff, **low_diff})
    assert got.gens == want.gens
    assert got.diff == want.diff


def test_sphere_m_range():
    with pytest.raises(ValueError):
        table_sphere_m(1)
    with pytest.raises(ValueError):
        table_sphere_m(7)


def test_cli_table_names_reach_the_table_functions():
    named = {"sphere0": table_sphere(0), "L0": table_sphere(0), "sphere1": table_sphere(1),
             "L1": table_sphere(1), "torus": table_torus(1), "torus:3": table_torus(3),
             "sphere:5": table_sphere_m(5)}
    for name, want in named.items():
        got = cli._table_by_name(name)
        assert (got.gens, got.diff) == (want.gens, want.diff)
    assert cli.main(["psi", "--object", "table:nonsense"]) == 2


@pytest.mark.slow
def test_sphere_m_larger_indices_cohere():
    fc = table_sphere_m(4)
    assert d_squared_ideal_check(fc, 8)
    h = free_complex_cohomology(fc, 6)
    assert set(h) == {0}
    assert iso_check(h[0], make_catalog_rep("vplus", 4))


def test_internal_grading_is_validated():
    # coefficient x needs internal(a) = internal(b) + 1
    with pytest.raises(ValueError):
        FreeComplex([FCGen("a", 1, 0, 0), FCGen("b", 0, 1, 0)],
                    {"a": [(fpe("x"), "b")]})
    FreeComplex([FCGen("a", 1, 0, 1), FCGen("b", 0, 1, 0)],
                {"a": [(fpe("x"), "b")]})


def test_arrow_image_past_the_window_raises():
    slices = ModuleSlices(truncated_algebra(2), [FCGen("g", 0, 0, 0)], 2)
    n = slices.slice_dim(2, 0)  # paths of length 2 from vertex 0 back to 0
    assert n > 0
    vec = (Fraction(1),) + (Fraction(0),) * (n - 1)
    with pytest.raises(StabilizationError, match="left the window"):
        slices.arrow_image("x", 2, 0, vec)
