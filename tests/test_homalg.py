from fractions import Fraction

import pytest

from conifold_flop import homalg
from conifold_flop.homalg import (ExtensionDatum, build_extension, ext1, ext1_dim, ext_dims,
                                  flop_point_analysis, free_complex_cohomology, hom, hom_dim,
                                  is_module_map, iso_check, psi_sphere)
from conifold_flop.reps import is_stable, make_catalog_rep, scale_arrow, stability_params
from conifold_flop.tables import table_sphere0, table_sphere1, table_sphere_m, table_torus

CH1 = stability_params(-1, 2, 1, 1)
CH2 = stability_params(1, 1, -1, 2)

S0 = make_catalog_rep("simple", 0)
S1 = make_catalog_rep("simple", 1)


def test_hom_dims():
    assert hom_dim(S0, S0) == 1
    assert hom_dim(S0, S1) == 0
    assert hom_dim(make_catalog_rep("vplus", 2), make_catalog_rep("vplus", 2)) == 1
    assert hom_dim(make_catalog_rep("point", 1, 0), make_catalog_rep("point", 0, 1)) == 0


def test_hom_solutions_are_module_maps():
    r = make_catalog_rep("vplus", 3)
    for phi in hom(r, r):
        assert is_module_map(r, r, phi.phi0, phi.phi1)


def test_ext1_dims():
    assert ext1_dim(S0, S1) == 2
    assert ext1_dim(S0, S0) == 0
    assert ext1_dim(make_catalog_rep("point", 1, -1), make_catalog_rep("vplus", 2)) == 1


def test_ext1_invariant_under_rescaling():
    m = make_catalog_rep("point", 1, -1)
    n = make_catalog_rep("vplus", 2)
    assert ext1_dim(scale_arrow(m, "x", Fraction(5, 3)), n) == 1
    assert ext1_dim(m, scale_arrow(n, "z", Fraction(-7, 2))) == 1


def test_build_extension_point():
    xi = ExtensionDatum({"x": ((Fraction(1),),), "z": ((Fraction(1),),), "y": (), "w": ()})
    e, incl, proj = build_extension(S0, S1, xi)
    assert e.dims == (1, 1)
    assert iso_check(e, make_catalog_rep("point", 1, 1))
    assert is_module_map(S1, e, incl.phi0, incl.phi1)
    assert is_module_map(e, S0, proj.phi0, proj.phi1)


def test_build_extension_zero_class_is_direct_sum():
    xi = ExtensionDatum({"x": ((Fraction(0),),), "z": ((Fraction(0),),), "y": (), "w": ()})
    e, _, _ = build_extension(S0, S1, xi)
    assert not iso_check(e, make_catalog_rep("point", 1, 1))


def test_build_extension_rejects_non_cocycle():
    m = make_catalog_rep("point", 1, -1)
    n = make_catalog_rep("vplus", 2)
    bad = ExtensionDatum({
        "x": tuple((Fraction(1 if i == 0 else 0),) for i in range(2)),
        "z": tuple((Fraction(0),) for _ in range(2)),
        "y": ((Fraction(0), Fraction(0)),),
        "w": ((Fraction(0), Fraction(1)),),
    })
    with pytest.raises(ValueError):
        build_extension(m, n, bad)


def test_build_extension_raises_when_maps_fail(monkeypatch):
    # the check must survive python -O, so it is a raise, not an assert
    monkeypatch.setattr(homalg, "is_module_map", lambda *args: False)
    xi = ExtensionDatum({"x": ((Fraction(1),),), "z": ((Fraction(1),),), "y": (), "w": ()})
    with pytest.raises(RuntimeError, match="not a module map"):
        build_extension(S0, S1, xi)


def test_extension_of_point_by_chain_is_the_next_chain():
    m = make_catalog_rep("point", 1, -1)
    n = make_catalog_rep("vplus", 2)
    (cls,) = ext1(m, n)
    e, _, _ = build_extension(m, n, cls)
    assert iso_check(e, make_catalog_rep("vplus", 3))


def test_iso_check_examples():
    assert iso_check(make_catalog_rep("vplus", 2), make_catalog_rep("vplus", 2))
    assert not iso_check(make_catalog_rep("point", 1, 1), make_catalog_rep("point", 1, 2))
    assert iso_check(make_catalog_rep("point", 1, 1), make_catalog_rep("point", 2, 2))
    assert not iso_check(S0, S1)


def test_psi_sphere_catalog():
    assert psi_sphere(0) == S0
    assert psi_sphere(1) == S1
    assert psi_sphere(3).dims == (2, 3)
    assert iso_check(psi_sphere(3), make_catalog_rep("vplus", 3))
    assert psi_sphere(-2).dims == (3, 2)
    assert iso_check(psi_sphere(-2), make_catalog_rep("vminus", 2))
    with pytest.raises(ValueError):
        psi_sphere(6)


def test_psi_sphere_stability_both_chambers():
    for k in (-3, -2, 2, 3, 4):
        r = psi_sphere(k)
        assert is_stable(r, CH1).is_stable()
        assert is_stable(r, CH2).kind == "unstable"


def test_ext_dims_totals():
    assert ext_dims(0, S0) == (1, 0, 0, 1)
    assert ext_dims(0, S1) == (0, 2, 2, 0)
    assert ext_dims(1, S1) == (1, 0, 0, 1)
    assert ext_dims(1, S0) == (0, 2, 2, 0)


def test_ext_dims_match_hom_and_ext1():
    for a in (S0, S1):
        for b in (S0, S1):
            v = 0 if a.dims == (1, 0) else 1
            d = ext_dims(v, b)
            assert d[0] == hom_dim(a, b)
            assert d[1] == ext1_dim(a, b)


def test_ext_dims_against_point():
    pt = make_catalog_rep("point", 1, 1)
    d = ext_dims(0, pt)
    assert d[0] == hom_dim(S0, pt)
    assert d[1] == ext1_dim(S0, pt)
    assert d[0] - d[1] + d[2] - d[3] == 0


def test_cohomology_of_catalog_tables():
    for cutoff in (6, 7):
        h = free_complex_cohomology(table_sphere0(), cutoff)
        assert set(h) == {0} and iso_check(h[0], S0)
        h = free_complex_cohomology(table_sphere1(), cutoff)
        assert set(h) == {0} and iso_check(h[0], S1)
        h = free_complex_cohomology(table_torus(2), cutoff)
        assert set(h) == {0} and iso_check(h[0], make_catalog_rep("point", 1, 2))
        for m in (2, 3):
            h = free_complex_cohomology(table_sphere_m(m), cutoff)
            assert set(h) == {0} and iso_check(h[0], make_catalog_rep("vplus", m))


def test_cohomology_ratio_tracks_rho():
    h = free_complex_cohomology(table_torus(Fraction(3, 2)), 6)
    assert iso_check(h[0], make_catalog_rep("point", 1, Fraction(3, 2)))
    assert iso_check(h[0], make_catalog_rep("point", 2, 3))


def test_cohomology_stable_through_cutoff_eight():
    for fc, target in ((table_sphere0(), S0), (table_torus(2), make_catalog_rep("point", 1, 2))):
        h = free_complex_cohomology(fc, 8)
        assert set(h) == {0} and iso_check(h[0], target)


def test_flop_point_analysis():
    report = flop_point_analysis(make_catalog_rep("point", 1, 1), CH2)
    assert report["k_image"] == (1, 1)
    assert report["verdict"].kind == "unstable"
    assert report["verdict"].witness_dims == (0, 1)
    assert report["witness_phase_exceeds_total"]
    assert report["triangle"]["sub"] == S1
    assert report["triangle"]["quotient"] == S0


def test_flop_point_analysis_rejects_wrong_chamber():
    with pytest.raises(ValueError):
        flop_point_analysis(make_catalog_rep("point", 1, 1), CH1)
    with pytest.raises(ValueError):
        flop_point_analysis(make_catalog_rep("point_flopped", 1, 1), CH2)


def test_new_points_stable_after_flop():
    assert is_stable(make_catalog_rep("point_flopped", 1, 1), CH2).is_stable()
