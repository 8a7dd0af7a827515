"""Catalog of deformed differential tables.

Each table is the endomorphism-deformed Floer complex of a catalog object
(the two spheres, the holonomy tori, the higher spheres) as a
FreeComplex, with all area weights specialized to 1.  The two sphere
tables are derived: `table_sphere` reads each row off the b-deformed
operation `ainfty.deformed`, so they rest on the A-infinity structure
constants, and they are the minimal projective resolutions of the vertex
simples, which the tests read Ext off as an oracle for `homalg.ext_dims`.
The torus tables are shipped as complete minimal resolutions of their
cohomology modules.  The higher-sphere tables ship the characteristic
top rows

    d(r_i) = z c_i - x c_{i+1},   d(p_i) = yx c_i,   d(q_i) = wz c_i

together with the two boundary loop rows, and their lower rows in closed
form, so the cohomology is concentrated in one degree.  The lower rows
are the minimal syzygies that `freecomplex.extend_resolution` computes
from the top rows, generator for generator; the tests keep that
completion as the oracle.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .ainfty import BRANES, DEGREE, GENERATORS, deformed
from .freecomplex import FCGen, FreeComplex
from .paths import FreePathElement, fpe

SM_MAX = 6


def _f(d):
    return FreePathElement(d)


@lru_cache(maxsize=None)
def table_sphere(v: int) -> FreeComplex:
    """Complex CF(L0 + L1, L_v) of the sphere at vertex v with the deformed
    differential m1^{b,0}; its cohomology is the vertex simple.  The
    generators are the A-infinity generators g whose branes end at v,
    sorted by degree; g sits at vertex BRANES[g][0] with internal degree
    (4, 3, 1, 0)[degree], the length of its paths down to the point class,
    and its row is `ainfty.deformed((g,))`."""
    if v not in (0, 1):
        raise ValueError("sphere vertex must be 0 or 1")
    names = sorted((g for g in GENERATORS if BRANES[g][1] == v), key=DEGREE.get)
    gens = [FCGen(g, BRANES[g][0], DEGREE[g], (4, 3, 1, 0)[DEGREE[g]]) for g in names]
    return FreeComplex(gens, {g: [(c, h) for h, c in deformed((g,)).items()] for g in names})


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


def _sphere_m_syzygies(m: int):
    """Lower two levels of the higher-sphere complex, named syz{degree}_{i}
    in the order of the syzygy completion, each row sorted by output name.

    Degree 1, vertex 1: P_j = -z p_j + x p_{j+1} (+ xy r_j for j <= m-2)
    and Q_j = -z q_j + x q_{j+1} (+ zw r_{j-1} for j >= 2), j = 1..m-1.
    Degree 1, vertex 0: A = -wx p_1 + yx q_1 and B_j = -wz p_j + yz q_j
    (- wzy r_{j-1} for 2 <= j <= m-1), j = 1..m.  Degree 0, vertex 1:
    -z A + x B_1, then zw P_j - zy Q_j - z B_j + x B_{j+1}, j = 1..m-1.
    """
    gens, diff = [], {}

    def add(vertex, degree, internal, *entries):
        name = "syz%d_%d" % (degree, sum(g.degree == degree for g in gens))
        gens.append(FCGen(name, vertex, degree, internal))
        diff[name] = [(_f({word: c}), out) for out, word, c in sorted(entries)]
        return name

    P, Q, B = {}, {}, {}  # [entry] * cond: the entry only where cond holds
    for j in range(1, m):
        P[j] = add(1, 1, 3, ("p%d" % j, "z", -1), ("p%d" % (j + 1), "x", 1),
                   *[("r%d" % j, "xy", 1)] * (j <= m - 2))
        Q[j] = add(1, 1, 3, ("q%d" % j, "z", -1), ("q%d" % (j + 1), "x", 1),
                   *[("r%d" % (j - 1), "zw", 1)] * (j >= 2))
    A = add(0, 1, 4, ("p1", "wx", -1), ("q1", "yx", 1))
    for j in range(1, m + 1):
        B[j] = add(0, 1, 4, ("p%d" % j, "wz", -1), ("q%d" % j, "yz", 1),
                   *[("r%d" % (j - 1), "wzy", -1)] * (2 <= j <= m - 1))
    add(1, 0, 5, (A, "z", -1), (B[1], "x", 1))
    for j in range(1, m):
        add(1, 0, 5, (P[j], "zw", 1), (Q[j], "zy", -1), (B[j], "z", -1), (B[j + 1], "x", 1))
    return gens, diff


@lru_cache(maxsize=None)
def table_sphere_m(m: int) -> FreeComplex:
    """Complex of the m-th sphere (2 <= m <= 6); cohomology in the top
    degree is the chain module with dims (m-1, m).  The top rows of
    `_sphere_m_top` with the closed-form syzygies of `_sphere_m_syzygies`
    below them: a minimal projective resolution."""
    if not 2 <= m <= SM_MAX:
        raise ValueError("sphere index must be in 2..%d" % SM_MAX)
    gens, diff = _sphere_m_top(m)
    low_gens, low_diff = _sphere_m_syzygies(m)
    return FreeComplex(gens + low_gens, {**diff, **low_diff})


def catalog_tables(rho=2, ms=(2, 3)):
    """The shipped tables exercised by the verification suite."""
    out = {"sphere0": table_sphere(0), "sphere1": table_sphere(1),
           "torus(%s)" % Fraction(rho): table_torus(rho)}
    for m in ms:
        out["sphere_%d" % m] = table_sphere_m(m)
    return out
