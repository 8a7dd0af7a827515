"""Lossless JSON forms: rationals as "p/q" strings, complex values as
[re, im] pairs, words over "xyzw".  Encoders sort everything so equal
inputs give byte-identical output.  The representation, arc and scene
decoders read outside input: a missing key or a value of the wrong shape
raises ValueError."""

from __future__ import annotations

import json
from fractions import Fraction

from .arcs import PLArc, SceneConfig
from .paths import FreePathElement
from .reps import Representation, StabilityVerdict


def frac_str(x) -> str:
    return str(Fraction(x))


def parse_frac(s) -> Fraction:
    # Fraction expands a decimal exponent into all of its digits, so a short
    # entry such as "1e10000000" would stall the decoder
    if isinstance(s, str) and ("e" in s or "E" in s):
        raise ValueError("expected a rational p/q without an exponent, got %r" % (s,))
    if isinstance(s, bool):  # Fraction reads true and false as 1 and 0
        raise ValueError("expected a rational p/q, got %r" % (s,))
    try:
        return Fraction(s)
    except (TypeError, ZeroDivisionError, OverflowError):  # OverflowError: an infinite float
        raise ValueError("expected a rational p/q, got %r" % (s,)) from None


def _field(data, key):
    if not isinstance(data, dict):
        raise ValueError("expected a JSON object, got %r" % (data,))
    if key not in data:
        raise ValueError("missing key %r" % key)
    return data[key]


def _seq(data, what, length=None):
    if not isinstance(data, (list, tuple)) or length not in (None, len(data)):
        raise ValueError("%s must be a list%s, got %r"
                         % (what, "" if length is None else " of %d" % length, data))
    return data


def fpe_to_json(e: FreePathElement):
    return [{"word": w, "coeff": frac_str(e.coeffs[w])} for w in e.words()]


def matrix_to_json(m):
    return [[frac_str(c) for c in row] for row in m]


def matrix_from_json(rows):
    rows = _seq(rows, "matrix")
    width = len(_seq(rows[0], "matrix row")) if rows else 0
    return tuple(tuple(parse_frac(c) for c in _seq(row, "matrix row", width)) for row in rows)


def rep_to_json(r: Representation):
    return {"dims": list(r.dims), "x": matrix_to_json(r.mx), "z": matrix_to_json(r.mz),
            "y": matrix_to_json(r.my), "w": matrix_to_json(r.mw)}


def rep_from_json(data) -> Representation:
    dims = tuple(_seq(_field(data, "dims"), "dims", 2))
    if not all(type(d) is int and d >= 0 for d in dims):
        raise ValueError("dims must be two nonnegative integers, got %r" % (dims,))
    return Representation(dims, *(matrix_from_json(_field(data, a)) for a in "xzyw"))


def verdict_to_json(v: StabilityVerdict):
    out = {"verdict": v.kind, "primes": list(v.primes)}
    if v.witness_dims is not None:
        out["witness_dims"] = list(v.witness_dims)
    if v.witness is not None:
        out["witness"] = {"basis0": matrix_to_json(v.witness[0]),
                          "basis1": matrix_to_json(v.witness[1])}
    if v.flagged:
        out["flagged"] = [list(d) for d in v.flagged]
    return out


def arc_to_json(arc: PLArc):
    return {"points": [[frac_str(x), frac_str(y)] for x, y in arc.points],
            "orientation": arc.orientation}


def arc_from_json(data) -> PLArc:
    points = _seq(_field(data, "points"), "points")
    orientation = data.get("orientation", 1)
    if type(orientation) is not int:  # True == 1 and 1.0 == 1 would pass PLArc
        raise ValueError("orientation must be the integer 1 or -1, got %r" % (orientation,))
    return PLArc(tuple((parse_frac(x), parse_frac(y))
                       for x, y in (_seq(p, "point", 2) for p in points)),
                 orientation)


def scene_from_json(data) -> SceneConfig:
    return SceneConfig(*(parse_frac(_field(data, k)) for k in ("a", "b", "r1", "r2", "eps")))


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
