"""The acceptance checks, one callable per criterion.

Each check returns (ok, detail); ``run_all`` executes every criterion and
reports a table.  The same functions back the test suite and the CLI
``verify-all`` subcommand, so a shipped binary can re-certify itself.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from . import scan
from .ainfty import mc_expand, mc_matches_relations, stasheff_check
from .arcs import DEFAULT_SCENE, catalog_arc, dehn_twist_map, flop_map, invariants
from .exactcx import QC, admissible, cross, phase_lt
from .freecomplex import d_squared_ideal_check
from .homalg import ext_dims, flop_point_analysis, free_complex_cohomology, hom, iso_check, psi_spheres
from .paths import FreePathElement
from .reps import (flop_K, is_stable, make_catalog_rep, scale_arrow, stability_params,
                   stable_families, verify_witness)
from .tables import catalog_tables, table_sphere, table_sphere_m, table_torus
from .truncated import truncated_algebra

CHAMBER_PLUS = stability_params(-1, 2, 1, 1)    # arg z0 > arg z1
CHAMBER_MINUS = stability_params(1, 1, -1, 2)   # flopped

EXPECTED_SCAN = {(0, 1), (1, 0), (1, 1), (1, 2), (2, 1), (2, 3), (3, 2)}

STABLE_FAMILY = ([("vplus", (m,)) for m in (1, 2, 3)]
                 + [("vminus", (n,)) for n in (0, 1, 2)]
                 + [("point", p) for p in ((1, 1), (1, 0), (0, 1), (1, 2))])


def check_mc_relations():
    """Deformation equation output equals the relation polynomials."""
    comps = mc_expand()
    expected = {
        "Wbar": FreePathElement({"zyx": 1, "xyz": -1}),
        "Xbar": FreePathElement({"wzy": 1, "yzw": -1}),
        "Ybar": FreePathElement({"xwz": 1, "zwx": -1}),
        "Zbar": FreePathElement({"yxw": 1, "wxy": -1}),
    }
    if comps != expected:
        return False, "components differ: %r" % (comps,)
    if not mc_matches_relations():
        return False, "components are not minus the cyclic derivatives"
    return True, "four components, each equal to minus a cyclic derivative"


def check_ainfty_soundness():
    rep = stasheff_check(6)
    return rep.ok, "%d composable tuples checked" % rep.checked


def check_cohomology():
    expect = {
        "sphere0": make_catalog_rep("simple", 0),
        "torus": make_catalog_rep("point", 1, 2),
        "sphere_2": make_catalog_rep("vplus", 2),
        "sphere_3": make_catalog_rep("vplus", 3),
    }
    tables = {"sphere0": table_sphere(0), "torus": table_torus(2),
              "sphere_2": table_sphere_m(2), "sphere_3": table_sphere_m(3)}
    for cutoff in (6, 7):
        for name, fc in tables.items():
            h = free_complex_cohomology(fc, cutoff)
            if set(h) != {0}:
                return False, "%s at N=%d has degrees %r" % (name, cutoff, sorted(h))
            if not iso_check(h[0], expect[name]):
                return False, "%s cohomology at N=%d is not the expected module" % (name, cutoff)
    return True, "sphere0, torus(2), sphere_2, sphere_3 at N in {6, 7}"


def check_d_squared():
    for name, fc in catalog_tables(rho=2, ms=(2, 3)).items():
        if not d_squared_ideal_check(fc, 8):
            return False, "%s fails" % name
    return True, "all shipped tables at N=8"


def check_stability_classification():
    for kind, args in STABLE_FAMILY:
        r = make_catalog_rep(kind, *args)
        v = is_stable(r, CHAMBER_PLUS)
        if not v.is_stable():
            return False, "%s%r not stable in the plus chamber: %s" % (kind, args, v.kind)
        if r.total_dim() > 1:
            v2 = is_stable(r, CHAMBER_MINUS)
            if v2.kind != "unstable":
                return False, "%s%r not unstable after the flop: %s" % (kind, args, v2.kind)
            if not verify_witness(r, v2.witness, CHAMBER_MINUS):
                return False, "witness for %s%r does not verify" % (kind, args)
    return True, "10 catalog modules, both chambers, exact witnesses"


def check_scan(bound=5):
    # one scan covers both chambers: they agree in every cell (scan docstring)
    got = set(scan.scan_stable_dimvectors(CHAMBER_MINUS.chamber(), bound))
    if got != EXPECTED_SCAN:
        return False, "scan gave %r" % (sorted(got),)
    return True, "bound %d, both chambers, backend %s" % (bound, scan.backend_name())


def check_ext_totals():
    s0 = make_catalog_rep("simple", 0)
    s1 = make_catalog_rep("simple", 1)
    for v, same, other in ((0, s0, s1), (1, s1, s0)):
        d_same = ext_dims(same, same)
        d_other = ext_dims(same, other)
        if d_same != (1, 0, 0, 1):
            return False, "Ext(S%d, S%d) = %r" % (v, v, d_same)
        if d_other != (0, 2, 2, 0):
            return False, "Ext(S%d, S%d) = %r" % (v, 1 - v, d_other)
    return True, "both simples: totals 2 and 4, alternating sums 0"


def check_cone_pipeline():
    # each chain raises if the SES check of one of its steps fails
    for k, r in itertools.chain(psi_spheres(-3), psi_spheres(4)):
        target = make_catalog_rep("vplus", k) if k >= 1 else make_catalog_rep("vminus", -k)
        if not iso_check(r, target):
            return False, "sphere %d does not match the catalog module" % k
    return True, "k in -3..4, SES maps verified at each step"


def check_flop_k():
    pts = [(d0, d1) for d0 in range(-6, 7) for d1 in range(-6, 7)]
    if any(flop_K(flop_K(d)) != d for d in pts):
        return False, "not an involution"
    if flop_K((1, 1)) != (1, 1):
        return False, "(1, 1) moves"

    def norm(d):
        return d if d >= (0, 0) else (-d[0], -d[1])

    image = {norm(flop_K(d)) for d in stable_families(6)}
    if not stable_families(5) <= image:
        return False, "image misses %r" % sorted(stable_families(5) - image)
    if not image <= stable_families(7):
        return False, "image escapes the classification: %r" % sorted(image - stable_families(7))
    report = flop_point_analysis(make_catalog_rep("point", 1, 1), CHAMBER_MINUS)
    if report["k_image"] != (1, 1):
        return False, "K-class of the point moved"
    v = report["verdict"]
    if v.kind != "unstable" or v.witness_dims != (0, 1):
        return False, "point verdict %s/%r" % (v.kind, v.witness_dims)
    if not report["witness_phase_exceeds_total"]:
        return False, "witness phase does not exceed the total phase"
    return True, "involution, fixes (1,1), perverse point unstable via (0,1)"


def check_arcs():
    cfg = DEFAULT_SCENE
    for k in range(-2, 4):
        s = catalog_arc("S", k, cfg)
        f1 = flop_map(s, cfg)
        if invariants(f1, cfg).tuple() != invariants(catalog_arc("Sp", -k, cfg), cfg).tuple():
            return False, "flop of sphere %d misses the straightened catalog" % k
        f2 = invariants(flop_map(f1, cfg), cfg)
        tw = invariants(dehn_twist_map(s, cfg, inverse=True), cfg)
        if f2.tuple() != tw.tuple():
            return False, "flop^2 vs inverse twist differ at %d" % k
    for m in (1, 2, 3):
        if invariants(catalog_arc("S", m, cfg), cfg).seg_crossings != m - 1:
            return False, "interval crossings of sphere %d off" % m
    return True, "flop^2 = inverse twist and flop = straightened family, k in -2..3"


def _random_admissible(rng):
    while True:
        re = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
        im = Fraction(rng.randint(0, 50), rng.randint(1, 20))
        u = QC(re, im)
        if admissible(u):
            return u


def check_property_suites(samples=1000, seed=0):
    # Schur property of every stable verdict
    for kind, args in STABLE_FAMILY:
        r = make_catalog_rep(kind, *args)
        if is_stable(r, CHAMBER_PLUS).is_stable() and len(hom(r, r)) != 1:
            return False, "stable %s%r has endomorphisms beyond scalars" % (kind, args)
    # arrow rescaling invariance
    rng = random.Random(seed)
    for kind, args in (("vplus", (2,)), ("point", (1, 2)), ("vminus", (1,))):
        r = make_catalog_rep(kind, *args)
        base = is_stable(r, CHAMBER_PLUS).kind, is_stable(r, CHAMBER_MINUS).kind
        for _ in range(3):
            s = r
            for a in "xzyw":
                s = scale_arrow(s, a, Fraction(rng.randint(1, 9), rng.randint(1, 9)))
            if (is_stable(s, CHAMBER_PLUS).kind, is_stable(s, CHAMBER_MINUS).kind) != base:
                return False, "rescaling changed the verdict of %s%r" % (kind, args)
    # strict-weak-order laws and float agreement
    us = [_random_admissible(rng) for _ in range(samples)]
    for i in range(samples):
        u = us[i]
        if phase_lt(u, u):
            return False, "irreflexivity fails"
        v = us[(i + 1) % samples]
        t = us[(i + 7) % samples]
        uv = phase_lt(u, v)
        if uv and phase_lt(v, u):
            return False, "asymmetry fails"
        if uv and phase_lt(v, t) and not phase_lt(u, t):
            return False, "transitivity fails"
        fu = math.atan2(float(u.im), float(u.re)) or math.pi
        fv = math.atan2(float(v.im), float(v.re)) or math.pi
        if abs(fu - fv) > 1e-9 and uv != (fu < fv):
            return False, "disagrees with floating point at %r, %r" % (u, v)
    # Hilbert value of the length-4 loop component
    if truncated_algebra(8).dim(0, 0, 4) != 9:
        return False, "length-4 loop component is not 9-dimensional"
    return True, "Schur, rescaling invariance, %d comparator samples, Hilbert value" % samples


CRITERIA = (
    ("1 deformation equation = relations", check_mc_relations),
    ("2 A-infinity identities", check_ainfty_soundness),
    ("3 deformed cohomology", check_cohomology),
    ("4 d^2 in the relation ideal", check_d_squared),
    ("5 stability classification", check_stability_classification),
    ("6 exhaustive chamber scan", check_scan),
    ("7 Ext totals", check_ext_totals),
    ("8 cone pipeline", check_cone_pipeline),
    ("9 K-theory flop and points", check_flop_k),
    ("10 arc-level flop relation", check_arcs),
    ("11 property suites", check_property_suites),
)


def run_all(verbose=True):
    """Run every criterion; returns the list of (name, ok, detail)."""
    results = []
    for name, fn in CRITERIA:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failure with its message
            ok, detail = False, "%s: %s" % (type(exc).__name__, exc)
        results.append((name, ok, detail))
        if verbose:
            print("%-4s %-38s %s" % ("PASS" if ok else "FAIL", name, detail))
    return results
