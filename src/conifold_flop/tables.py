"""Catalog of deformed differential tables.

Each table is the endomorphism-deformed Floer complex of a catalog object
(the two spheres, the holonomy tori, the higher spheres), shipped as a
FreeComplex whose top rows follow the computed differentials, with all
area weights specialized to 1.  The sphere and torus tables are complete
minimal resolutions of their cohomology modules: the two sphere tables
resolve the vertex simples, and `homalg.ext_dims` reads its higher Ext
groups off them.  The higher-sphere tables
ship the characteristic top rows

    d(r_i) = z c_i - x c_{i+1},   d(p_i) = yx c_i,   d(q_i) = wz c_i

together with the two boundary loop rows, and are completed downward by
exact syzygies so the cohomology is concentrated in one degree.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .freecomplex import FCGen, FreeComplex, extend_resolution
from .paths import FreePathElement, fpe

SM_MAX = 6


def _f(d):
    return FreePathElement(d)


def table_sphere0() -> FreeComplex:
    """Complex of the sphere at vertex 0; cohomology is the vertex simple."""
    gens = [
        FCGen("unit", 0, 0, 4),
        FCGen("Y", 1, 1, 3), FCGen("W", 1, 1, 3),
        FCGen("Xbar", 1, 2, 1), FCGen("Zbar", 1, 2, 1),
        FCGen("pt", 0, 3, 0),
    ]
    diff = {
        "unit": [(fpe("y"), "Y"), (fpe("w"), "W")],
        "Y": [(_f({"xw": 1}), "Zbar"), (_f({"zw": -1}), "Xbar")],
        "W": [(_f({"zy": 1}), "Xbar"), (_f({"xy": -1}), "Zbar")],
        "Xbar": [(fpe("x"), "pt")],
        "Zbar": [(fpe("z"), "pt")],
    }
    return FreeComplex(gens, diff)


def table_sphere1() -> FreeComplex:
    """Mirror-image complex of the sphere at vertex 1 (swap x<->y, z<->w)."""
    gens = [
        FCGen("unit", 1, 0, 4),
        FCGen("X", 0, 1, 3), FCGen("Z", 0, 1, 3),
        FCGen("Ybar", 0, 2, 1), FCGen("Wbar", 0, 2, 1),
        FCGen("pt", 1, 3, 0),
    ]
    diff = {
        "unit": [(fpe("x"), "X"), (fpe("z"), "Z")],
        "X": [(_f({"yz": 1}), "Wbar"), (_f({"wz": -1}), "Ybar")],
        "Z": [(_f({"wx": 1}), "Ybar"), (_f({"yx": -1}), "Wbar")],
        "Ybar": [(fpe("y"), "pt")],
        "Wbar": [(fpe("w"), "pt")],
    }
    return FreeComplex(gens, diff)


def table_torus(rho) -> FreeComplex:
    """Complex of the torus with holonomy ratio ``rho`` (nonzero rational).

    The cohomology is the point module with x-weight : z-weight = 1 : rho,
    generated by the top class a11 with rho * x a11 = z a11.
    """
    rho = Fraction(rho)
    if rho == 0:
        raise ValueError("holonomy ratio must be nonzero")
    c = _f({"x": rho, "z": -1})   # rho x - z
    cm = _f({"x": -rho, "z": 1})  # z - rho x
    gens = [
        FCGen("b00", 1, 0, 5),
        FCGen("a00", 0, 1, 4), FCGen("b01", 1, 1, 3), FCGen("b10", 1, 1, 3),
        FCGen("a01", 0, 2, 2), FCGen("a10", 0, 2, 2), FCGen("b11", 1, 2, 1),
        FCGen("a11", 0, 3, 0),
    ]
    diff = {
        "b00": [(c, "a00"), (_f({"xy": 1}), "b01"), (_f({"zw": 1}), "b10")],
        "b01": [(cm, "a01"), (_f({"zw": -1}), "b11")],
        "b10": [(cm, "a10"), (_f({"xy": 1}), "b11")],
        "b11": [(c, "a11")],
        "a00": [(_f({"yx": 1}), "a01"), (_f({"wz": 1}), "a10")],
        "a01": [(_f({"wz": -1}), "a11")],
        "a10": [(_f({"yx": 1}), "a11")],
    }
    return FreeComplex(gens, diff)


def _sphere_m_top(m: int):
    """Top two levels of the higher-sphere complex: m-1 top classes c_i,
    the consecutive rows r_i, and the loop rows p_j, q_j."""
    gens = [FCGen("c%d" % i, 0, 3, 0) for i in range(1, m)]
    diff = {}
    for i in range(1, m - 1):
        gens.append(FCGen("r%d" % i, 1, 2, 1))
        diff["r%d" % i] = [(fpe("z"), "c%d" % i), (_f({"x": -1}), "c%d" % (i + 1))]
    # p_j kills the y-action on f_j, q_j the w-action on f_j
    for j in range(1, m + 1):
        pj = "p%d" % j
        qj = "q%d" % j
        gens.append(FCGen(pj, 0, 2, 2))
        gens.append(FCGen(qj, 0, 2, 2))
        diff[pj] = [(_f({"yx": 1}), "c%d" % j)] if j <= m - 1 else [(_f({"yz": 1}), "c%d" % (m - 1))]
        diff[qj] = [(_f({"wx": 1}), "c1")] if j == 1 else [(_f({"wz": 1}), "c%d" % (j - 1))]
    return gens, diff


@lru_cache(maxsize=None)
def table_sphere_m(m: int) -> FreeComplex:
    """Complex of the m-th sphere (2 <= m <= 6); cohomology in the top
    degree is the chain module with dims (m-1, m)."""
    if not 2 <= m <= SM_MAX:
        raise ValueError("sphere index must be in 2..%d" % SM_MAX)
    gens, diff = _sphere_m_top(m)
    top = FreeComplex(gens, diff)
    return extend_resolution(top, cutoff=10, s_cap=7)


def m1b_table(target: str, rho=None, m=None) -> FreeComplex:
    """Catalog lookup: sphere0 | sphere1 | torus (rho) | sphere_m (m)."""
    if target == "sphere0":
        return table_sphere0()
    if target == "sphere1":
        return table_sphere1()
    if target == "torus":
        if rho is None:
            raise ValueError("torus table needs the holonomy ratio rho")
        return table_torus(rho)
    if target == "sphere_m":
        if m is None:
            raise ValueError("sphere_m table needs the index m")
        return table_sphere_m(m)
    raise ValueError("unknown catalog target %r" % target)


def catalog_tables(rho=2, ms=(2, 3)):
    """The shipped tables exercised by the verification suite."""
    out = {"sphere0": table_sphere0(), "sphere1": table_sphere1(),
           "torus(%s)" % Fraction(rho): table_torus(rho)}
    for m in ms:
        out["sphere_%d" % m] = table_sphere_m(m)
    return out
