from fractions import Fraction

import pytest

from conifold_flop import cli, tables
from conifold_flop.freecomplex import (FCGen, FreeComplex, ModuleSlices, StabilizationError,
                                       d_squared_ideal_check, extend_resolution)
from conifold_flop.paths import FreePathElement, fpe
from conifold_flop.tables import (catalog_tables, table_sphere0, table_sphere1, table_sphere_m,
                                  table_torus)
from conifold_flop.truncated import truncated_algebra


def _row(fc, name):
    return {out: coeff for coeff, out in fc.diff[name]}


def test_sphere0_rows_match_the_computed_differential():
    fc = table_sphere0()
    assert _row(fc, "unit") == {"Y": fpe("y"), "W": fpe("w")}
    assert _row(fc, "Y") == {"Zbar": fpe("xw"), "Xbar": FreePathElement({"zw": -1})}
    assert _row(fc, "W") == {"Xbar": fpe("zy"), "Zbar": FreePathElement({"xy": -1})}
    assert _row(fc, "Xbar") == {"pt": fpe("x")}
    assert _row(fc, "Zbar") == {"pt": fpe("z")}
    assert _row(fc, "pt") == {}


def test_d_squared_entries_of_sphere0():
    fc = table_sphere0()
    entries = fc.d_squared_entries()
    # d(d(unit)) lands on the degree-2 generators with relation coefficients
    assert entries[("unit", "Xbar")] == FreePathElement({"wzy": 1, "yzw": -1})
    assert entries[("unit", "Zbar")] == FreePathElement({"yxw": 1, "wxy": -1})
    # and d(d(Y)), d(d(W)) push relation combinations onto the point class
    assert entries[("Y", "pt")] == FreePathElement({"xwz": 1, "zwx": -1})


def test_d_squared_check_all_catalog():
    for name, fc in catalog_tables(rho=2, ms=(2, 3)).items():
        assert d_squared_ideal_check(fc, 8), name


def test_d_squared_check_rejects_sign_flip():
    fc = table_sphere0()
    diff = {g.name: list(fc.diff[g.name]) for g in fc.gens}
    diff["Xbar"] = [(FreePathElement({"x": -1}), "pt")]
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
    named = {"sphere0": table_sphere0(), "L0": table_sphere0(), "sphere1": table_sphere1(),
             "L1": table_sphere1(), "torus": table_torus(1), "torus:3": table_torus(3),
             "sphere:5": table_sphere_m(5)}
    for name, want in named.items():
        got = cli._table_by_name(name)
        assert (got.gens, got.diff) == (want.gens, want.diff)
    assert cli.main(["psi", "--object", "table:nonsense"]) == 2


@pytest.mark.slow
def test_sphere_m_larger_indices_cohere():
    from conifold_flop.homalg import free_complex_cohomology, iso_check
    from conifold_flop.reps import make_catalog_rep

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
