"""Value semantics of the record classes, and an import of the package that
loads no code-generating machinery."""

import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import conifold_flop
from conifold_flop.ainfty import AInftyTable, StasheffReport
from conifold_flop.arcs import ArcInvariants, PLArc, SceneConfig
from conifold_flop.exactcx import QC
from conifold_flop.freecomplex import FCGen
from conifold_flop.homalg import ExtensionDatum, ModuleMap
from conifold_flop.reps import Representation, StabilityParams, StabilityVerdict

# (class, every field of one value by name, in order; frozen; hashable)
_CASES = [
    (QC, {"re": F(1), "im": F(2)}, True, True),
    (SceneConfig, {"a": F(-4), "b": F(-2), "r1": F(3, 2), "r2": F(5, 2), "eps": F(1, 8)}, True, True),
    (PLArc, {"points": ((F(-4), F(0)), (F(-2), F(1))), "orientation": -1}, True, True),
    (ArcInvariants, {"ray_crossings": 1, "seg_crossings": 2, "start": "a"}, True, True),
    (FCGen, {"name": "e0", "vertex": 0, "degree": 1, "internal": 2}, True, True),
    (ModuleMap, {"phi0": ((1,),), "phi1": ((2,),)}, True, True),
    (ExtensionDatum, {"xi": {"x": ((1,),), "z": ((0,),), "y": (), "w": ()}}, True, False),
    (Representation, {"dims": (1, 1), "mx": ((1,),), "mz": ((2,),), "my": ((0,),), "mw": ((0,),)},
     True, True),
    (StabilityParams, {"z0": QC(-1, 2), "z1": QC(1, 1)}, True, True),
    (StabilityVerdict, {"kind": "stable", "primes": (2,), "witness_dims": None, "witness": None,
                        "flagged": ()}, True, True),
    (AInftyTable, {"m2": {("X", "Xbar"): (-1, "pt0")}, "m3": {}}, False, False),
    (StasheffReport, {"ok": True, "checked": 3, "violation": None}, False, False),
]
_IDS = [case[0].__name__ for case in _CASES]


@pytest.mark.parametrize("cls,fields,frozen,hashable", _CASES, ids=_IDS)
def test_equal_fields_give_equal_values(cls, fields, frozen, hashable):
    args = tuple(fields.values())
    a, b = cls(*args), cls(*args)
    assert a == b and not a != b
    assert tuple(getattr(a, name) for name in fields) == args
    if hashable:
        # the hash of the field tuple: sets of values iterate as before
        assert hash(a) == hash(b) == hash(args)
    else:
        with pytest.raises(TypeError):
            hash(a)


@pytest.mark.parametrize("cls,fields,frozen,hashable", _CASES, ids=_IDS)
def test_equal_fields_in_another_class_differ(cls, fields, frozen, hashable):
    args = tuple(fields.values())
    other = type(cls.__name__ + "Copy", (cls,), {})
    a, b = cls(*args), other(*args)
    assert a != b and b != a
    assert a.__eq__(b) is NotImplemented and a.__eq__(args) is NotImplemented
    assert a != args


@pytest.mark.parametrize("cls,fields,frozen,hashable", _CASES, ids=_IDS)
def test_assignment_refused_on_frozen_values(cls, fields, frozen, hashable):
    args = tuple(fields.values())
    a = cls(*args)
    name = next(iter(fields))
    if frozen:
        with pytest.raises(AttributeError):
            setattr(a, name, args[0])
        with pytest.raises(AttributeError):
            delattr(a, name)
    else:
        setattr(a, name, args[0])
        assert a == cls(*args)


@pytest.mark.parametrize("cls,fields,frozen,hashable", _CASES, ids=_IDS)
def test_constructor_takes_exactly_the_fields(cls, fields, frozen, hashable):
    args = tuple(fields.values())
    with pytest.raises(TypeError):
        cls(*args, args[-1])
    with pytest.raises(TypeError):
        cls(*args, unknown=1)
    assert cls(**fields) == cls(*args)
    if cls is not AInftyTable:
        with pytest.raises(TypeError):
            cls()


def test_defaults():
    v = StabilityVerdict("stable")
    assert (v.primes, v.witness_dims, v.witness, v.flagged) == ((), None, None, ())
    assert PLArc(((0, 0), (1, 1))).orientation == 1
    assert QC(3).im == 0 and type(QC(3).im) is F
    assert StasheffReport(True, 0).violation is None
    a, b = AInftyTable(), AInftyTable()
    assert a == b and a.m2 is not b.m2 and a.m3 is not b.m3
    assert a.apply(("X", "Xbar")) == (-1, "pt0") and a.apply(("X", "Y", "Z")) == (1, "Wbar")


def test_stasheff_report_truth():
    assert StasheffReport(True, 3)
    assert not StasheffReport(False, 3, (2, ("X", "Y"), {}))


def test_reprs():
    r = Representation((1, 1), ((1,),), ((2,),), ((0,),), ((0,),))
    hash(r)  # the cached hash is no field
    assert repr(r) == "Representation(dims=(1, 1), mx=((1,),), mz=((2,),), my=((0,),), mw=((0,),))"
    v = StabilityVerdict("unstable", witness_dims=(1, 0), witness=(((1,),), ()))
    assert repr(v) == ("StabilityVerdict(kind='unstable', primes=(), witness_dims=(1, 0), "
                       "witness=(((1,),), ()), flagged=())")
    assert repr(FCGen("e0", 0, 1, 2)) == "FCGen(name='e0', vertex=0, degree=1, internal=2)"
    assert repr(ArcInvariants(1, 2, "a")) == "ArcInvariants(ray_crossings=1, seg_crossings=2, start='a')"
    assert repr(QC(F(1, 2), -1)) == "QC(1/2, -1)"


def test_validation_kept():
    with pytest.raises(ValueError, match="must be 1x1"):
        Representation((1, 1), ((1, 2),), ((2,),), ((0,),), ((0,),))
    with pytest.raises(ValueError, match="orientation"):
        PLArc(((0, 0), (1, 1)), 2)
    with pytest.raises(ValueError, match="need a < b < 0"):
        SceneConfig(-2, -4, 3, 4, 1)
    with pytest.raises(ValueError, match="phase in"):
        StabilityParams(QC(1, 0), QC(1, 1))


_GENERATORS = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def _modules_after(statement):
    env = dict(os.environ, PYTHONPATH=str(Path(conifold_flop.__file__).resolve().parents[1]))
    probe = "import sys; %s; import json; print(json.dumps(sorted(sys.modules)))" % statement
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    return set(json.loads(out))


def test_import_loads_no_code_generator():
    # the interpreter's site start-up loads modules of its own: compare
    # against a bare run
    added = _modules_after("import conifold_flop, conifold_flop.cli") - _modules_after("pass")
    assert "conifold_flop.cli" in added
    assert added.isdisjoint(_GENERATORS), sorted(added.intersection(_GENERATORS))
