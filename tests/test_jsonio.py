from fractions import Fraction

import pytest

from conifold_flop import jsonio
from conifold_flop.arcs import DEFAULT_SCENE, catalog_arc
from conifold_flop.paths import FreePathElement
from conifold_flop.reps import is_stable, make_catalog_rep, stability_params


def test_fpe_to_json():
    e = FreePathElement({"xyz": Fraction(1, 2), "zyx": Fraction(-3)})
    assert jsonio.fpe_to_json(e) == [{"word": "xyz", "coeff": "1/2"}, {"word": "zyx", "coeff": "-3"}]


def test_rep_roundtrip():
    r = make_catalog_rep("vplus", 3)
    assert jsonio.rep_from_json(jsonio.rep_to_json(r)) == r
    p = make_catalog_rep("point", Fraction(2, 3), -1)
    assert jsonio.rep_from_json(jsonio.rep_to_json(p)) == p


def test_verdict_serialization():
    ch2 = stability_params(1, 1, -1, 2)
    v = is_stable(make_catalog_rep("vplus", 2), ch2)
    data = jsonio.verdict_to_json(v)
    assert data["verdict"] == "unstable"
    assert data["witness_dims"] == [0, 1]
    assert "basis1" in data["witness"]


def test_arc_roundtrip():
    arc = catalog_arc("S", 2, DEFAULT_SCENE)
    back = jsonio.arc_from_json(jsonio.arc_to_json(arc))
    assert back == arc


@pytest.mark.parametrize("orientation", [True, 1.0, -1.0])
def test_arc_orientation_must_be_an_int(orientation):
    # each compares equal to 1 or -1, so only the type tells them apart
    data = jsonio.arc_to_json(catalog_arc("S", 1, DEFAULT_SCENE))
    data["orientation"] = orientation
    with pytest.raises(ValueError, match="orientation"):
        jsonio.arc_from_json(data)
    data["orientation"] = int(orientation)
    assert jsonio.arc_from_json(data).orientation == int(orientation)


def test_scene_from_json():
    data = {"a": "-4", "b": "-2", "r1": "3/2", "r2": "5/2", "eps": "1/8"}
    assert jsonio.scene_from_json(data) == DEFAULT_SCENE
    with pytest.raises(ValueError, match="eps"):
        jsonio.scene_from_json({k: v for k, v in data.items() if k != "eps"})


def test_dumps_is_canonical():
    payload = {"b": 1, "a": [2, 3]}
    assert jsonio.dumps(payload) == jsonio.dumps({"a": [2, 3], "b": 1})


@pytest.mark.parametrize("text", ["1e10000000", "1E5", "2.5e-3", "1/1e3"])
def test_parse_frac_rejects_exponents(text):
    # Fraction would expand the exponent into all of its digits
    with pytest.raises(ValueError):
        jsonio.parse_frac(text)


def test_parse_frac_accepts_rationals():
    assert jsonio.parse_frac("-3/4") == Fraction(-3, 4)
    assert jsonio.parse_frac("2.5") == Fraction(5, 2)
    assert jsonio.parse_frac(7) == 7
