import collections
import hashlib
import math
import random
from bisect import bisect_left
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conifold_flop import arcs, jsonio, verify
from conifold_flop.arcs import (CATALOG_RANGE, DEFAULT_SCENE, DegenerateArc, PLArc,
                                SceneConfig, SPHERE_INVARIANTS, _orient, _segments_cross,
                                catalog_arc, dehn_twist_map, flop_map, invariants, make_arc)

F = Fraction
CFG = DEFAULT_SCENE


def _segments_cross_by_on_seg(p1, q1, p2, q2):
    """Crossing test with an on-segment check for every endpoint: the
    definition the straddle test with a bounding box replaces."""
    o1, o2 = _orient(p1, q1, p2), _orient(p1, q1, q2)
    o3, o4 = _orient(p2, q2, p1), _orient(p2, q2, q1)
    if o1 != o2 and o3 != o4:
        return True

    def on_seg(p, q, r):
        return (_orient(p, q, r) == 0 and min(p[0], q[0]) <= r[0] <= max(p[0], q[0])
                and min(p[1], q[1]) <= r[1] <= max(p[1], q[1]))

    return on_seg(p1, q1, p2) or on_seg(p1, q1, q2) or on_seg(p2, q2, p1) or on_seg(p2, q2, q1)


def _crosses(p1, q1, p2, q2):
    """Intersection of any two closed segments: `_segments_cross` behind
    the bounding-box test that `validate_arc` runs before it."""
    boxes_meet = all(min(p1[i], q1[i]) <= max(p2[i], q2[i]) and min(p2[i], q2[i]) <= max(p1[i], q1[i])
                     for i in (0, 1))
    return boxes_meet and _segments_cross(p1, q1, p2, q2)


# coordinates in -2..2 make collinear, touching and overlapping segments common
_POINT = st.tuples(st.integers(-2, 2), st.integers(-2, 2))


@settings(max_examples=2000, derandomize=True, deadline=None)
@given(_POINT, _POINT, _POINT, _POINT)
def test_segments_cross_agrees_with_the_on_segment_test(p1, q1, p2, q2):
    assert _crosses(p1, q1, p2, q2) == _segments_cross_by_on_seg(p1, q1, p2, q2)


def _sq_dist(p, q=(0, 0)):
    return (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2


def _segment_clearance_ok(p, q, eps):
    """Minimal distance of segment pq to the origin is at least eps: the
    nearest point at the clamped parameter, in Fractions."""
    dx, dy = q[0] - p[0], q[1] - p[1]
    t = -(p[0] * dx + p[1] * dy) / (dx * dx + dy * dy)
    t = max(F(0), min(F(1), t))
    closest = (p[0] + t * dx, p[1] + t * dy)
    return _sq_dist(closest) >= eps * eps


def _validate_by_fractions(arc, cfg):
    """The body ``validate_arc`` had before it ran on integer vertices:
    every test on the Fraction vertices."""
    pts = arc.points
    if {pts[0], pts[-1]} != {(cfg.a, F(0)), (cfg.b, F(0))}:
        raise ValueError("arc endpoints must be the two marked points")
    segs = arc.segments()
    for p, q in segs:
        if p == q:
            raise ValueError("degenerate segment")
        if not _segment_clearance_ok(p, q, cfg.eps):
            raise ValueError("arc passes within eps of the origin")
    for i, (p1, q1) in enumerate(segs):
        if i + 1 < len(segs):
            q2 = segs[i + 1][1]
            if _orient(p1, q1, q2) == 0 and ((q1[0] - p1[0]) * (q2[0] - q1[0])
                                             + (q1[1] - p1[1]) * (q2[1] - q1[1])) < 0:
                raise ValueError("consecutive segments fold back")
        for p2, q2 in segs[i + 2:]:
            if _crosses(p1, q1, p2, q2):
                raise ValueError("arc is not simple")
    return True


def _verdict(validate, arc, cfg):
    try:
        return validate(arc, cfg)
    except ValueError as exc:
        return str(exc)


# the default scene and one whose marked points have denominators 2 and 3
_SCENES = (CFG, SceneConfig(F(-7, 2), F(-4, 3), F(7, 6), F(2), F(1, 8)))


def _random_arc(rng, cfg):
    """An arc between the marked points (rarely a wrong endpoint) whose
    interior vertices have denominators 1 to 6, built to make collinear
    overlaps, touches and fold-backs common: a vertex is a fresh grid
    point, an earlier vertex again, a point on an earlier segment, a point
    back on the last segment (a fold-back) or the last segment prolonged."""
    ends = [(cfg.a, F(0)), (cfg.b, F(0))]
    rng.shuffle(ends)
    pts = [ends[0]]
    for _ in range(rng.randint(0, 7)):
        moves = ("fresh", "fresh", "repeat", "on-earlier", "fold-back", "prolong")
        move = rng.choice(moves if len(pts) > 1 else ("fresh",))
        if move == "fresh":
            den = rng.choice((1, 2, 3, 6))
            pts.append((F(rng.randint(-6 * den, -den), den), F(rng.randint(-2 * den, 2 * den), den)))
            continue
        if move == "repeat":
            pts.append(rng.choice(pts[:-1]))
            continue
        j, ts = {"on-earlier": (rng.randrange(len(pts) - 1), (0, F(1, 3), F(1, 2), F(2, 3), 1)),
                 "fold-back": (len(pts) - 2, (F(-1, 3), F(1, 3), F(1, 2), F(2, 3))),
                 "prolong": (len(pts) - 2, (F(4, 3), F(3, 2), 2))}[move]
        p, q, t = pts[j], pts[j + 1], rng.choice(ts)
        pts.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    pts.append(ends[1] if rng.random() > 0.05 else (cfg.b - 1, F(0)))
    return PLArc(tuple(pts))


def _near_origin_arc(rng, cfg):
    """An arc from one marked point round a far corner and back through
    vertices near the origin: multiples of eps / 4 within 3 eps, points at
    distance exactly eps, or a pair on a line tangent to the eps circle."""
    ends = [(cfg.a, F(0)), (cfg.b, F(0))]
    rng.shuffle(ends)
    e = cfg.eps
    pts = [ends[0], (ends[0][0], F(3)), (F(2), F(3))]
    for _ in range(rng.randint(1, 3)):
        move = rng.choice(("grid", "grid", "circle", "tangent"))
        sx, sy = rng.choice((1, -1)), rng.choice((1, -1))
        if move == "grid":
            pts.append((e * F(rng.randint(-12, 12), 4), e * F(rng.randint(-12, 12), 4)))
        elif move == "circle":
            pts.append(rng.choice(((sx * e, F(0)), (F(0), sy * e), (sx * e * F(3, 5), sy * e * F(4, 5)))))
        else:
            t = F(rng.randint(1, 8), 4)
            pts += [(sx * e, -t), (sx * e, t)] if rng.random() < 0.5 else [(-t, sy * e), (t, sy * e)]
    pts.append(ends[1])
    return PLArc(tuple(pts))


def test_integer_pair_loop_matches_the_fraction_pair_loop():
    rng = random.Random(20171)
    seen = collections.Counter()
    for _ in range(3000):
        cfg = rng.choice(_SCENES)
        arc = _random_arc(rng, cfg)
        want = _verdict(_validate_by_fractions, arc, cfg)
        assert _verdict(arcs.validate_arc.__wrapped__, arc, cfg) == want, arc
        seen[want] += 1
    near = collections.Counter()
    for _ in range(400):
        cfg = rng.choice(_SCENES)
        arc = _near_origin_arc(rng, cfg)
        want = _verdict(_validate_by_fractions, arc, cfg)
        assert _verdict(arcs.validate_arc.__wrapped__, arc, cfg) == want, arc
        near[want] += 1
    assert near["arc passes within eps of the origin"] >= 30 and near[True] >= 30, near
    # the flop images of S:k for k != 0 have 31 to 39 vertices with large
    # denominators; one vertex moved onto another one, or a fold-back
    # inserted, spoils them
    for k in (-3, -2, -1, 1, 2, 3):
        pts = flop_map(catalog_arc("S", k, CFG), CFG).points
        i, j = sorted(rng.sample(range(1, len(pts) - 1), 2))
        mid = ((pts[i - 1][0] + pts[i][0]) / 2, (pts[i - 1][1] + pts[i][1]) / 2)
        for variant in (pts, pts[:i] + (pts[j],) + pts[i + 1:], pts[:i + 1] + (mid,) + pts[i + 1:]):
            arc = PLArc(variant)
            want = _verdict(_validate_by_fractions, arc, CFG)
            assert _verdict(arcs.validate_arc.__wrapped__, arc, CFG) == want, arc
    # every verdict of the pair loop, and of the checks before it, is met
    for verdict in (True, "arc is not simple", "consecutive segments fold back",
                    "degenerate segment", "arc endpoints must be the two marked points"):
        assert seen[verdict] >= 30, seen


def test_clearance_at_exactly_eps_passes():
    e = CFG.eps
    # a horizontal segment tangent to the eps circle, nearest at its inside
    # point (0, eps), then a vertex at distance eps, nearest to both of its
    # segments; each passes, and moved inwards each fails
    for shrink, want in ((1, True), (F(8, 9), "arc passes within eps of the origin")):
        tangent = ((CFG.b, F(0)), (F(-1), e * shrink), (F(1), e * shrink), (F(1), F(2)),
                   (CFG.a, F(2)), (CFG.a, F(0)))
        vertex = ((CFG.b, F(0)), (F(-1), F(2)), (e * shrink * F(3, 5), e * shrink * F(4, 5)),
                  (F(1), F(2)), (F(1), F(4)), (CFG.a, F(4)), (CFG.a, F(0)))
        for pts in (tangent, vertex):
            arc = PLArc(pts)
            assert _verdict(_validate_by_fractions, arc, CFG) == want
            assert _verdict(arcs.validate_arc.__wrapped__, arc, CFG) == want


def test_scene_validation():
    with pytest.raises(ValueError):
        SceneConfig(F(-2), F(-4), F(1), F(2), F(1, 8))  # a < b violated
    with pytest.raises(ValueError):
        SceneConfig(F(-4), F(-2), F(1, 2), F(5, 2), F(1, 8))  # r1 too small
    with pytest.raises(ValueError):
        SceneConfig(F(-4), F(-2), F(3, 2), F(4), F(1, 8))  # origin inside


def test_straight_segment_invariants():
    s0 = catalog_arc("S", 0, CFG)
    inv = invariants(s0, CFG)
    assert inv.tuple() == (0, 0) and inv.start == "a"


@pytest.mark.parametrize("k", list(CATALOG_RANGE))
def test_catalog_invariants(k):
    assert invariants(catalog_arc("S", k, CFG), CFG).tuple() == SPHERE_INVARIANTS[k]
    assert invariants(catalog_arc("Sp", k, CFG), CFG).tuple() == SPHERE_INVARIANTS[-k]


def test_seg_crossings_count_interval_hits():
    for m in (1, 2, 3):
        assert invariants(catalog_arc("S", m, CFG), CFG).seg_crossings == m - 1


def test_orientation_reversal_flips_ray_sign():
    s1 = catalog_arc("S", 1, CFG)
    assert invariants(s1, CFG).ray_crossings == 1
    assert invariants(s1.reversed(), CFG).ray_crossings == -1
    assert invariants(s1.reversed(), CFG).seg_crossings == 0


def test_degenerate_vertex_refused():
    # vertex exactly on the positive axis, reached well away from the origin
    arc = PLArc(((CFG.a, F(0)), (F(-4), F(3)), (F(4), F(3)), (F(3), F(0)),
                 (F(4), F(-3)), (F(-4), F(-3)), (CFG.b, F(0))))
    with pytest.raises(DegenerateArc):
        invariants(arc, CFG)
    # vertex inside the open interval with a transverse approach
    arc2 = PLArc(((CFG.a, F(0)), (F(-3), F(1)), (F(-3), F(0)), (CFG.b, F(0))))
    with pytest.raises(DegenerateArc):
        invariants(arc2, CFG)


def test_validation_rejects_bad_arcs():
    with pytest.raises(ValueError):
        invariants(PLArc(((CFG.a, F(0)), (F(1), F(1)))), CFG)  # wrong endpoint
    near_origin = PLArc(((CFG.a, F(0)), (F(0), F(1, 100)), (CFG.b, F(0))))
    with pytest.raises(ValueError):
        invariants(near_origin, CFG)
    crossing = PLArc(((CFG.a, F(0)), (F(-3), F(2)), (F(-2), F(-2)), (F(-4), F(1)),
                      (CFG.b, F(0))))
    for _ in range(2):  # an invalid arc is not cached: it raises on every call
        with pytest.raises(ValueError, match="arc is not simple"):
            invariants(crossing, CFG)
    # the first and the last segment run along the axis and overlap on [a, b];
    # no other pair of segments meets
    overlap = PLArc(((CFG.a, F(0)), (F(-1), F(0)), (F(-1), F(1)), (F(-5), F(1)),
                     (F(-5), F(0)), (CFG.b, F(0))))
    with pytest.raises(ValueError, match="arc is not simple"):
        invariants(overlap, CFG)
    # the fourth segment ends at the end of the first
    touching = PLArc(((CFG.a, F(0)), (F(-3), F(1)), (F(-3), F(2)), (F(-4), F(2)),
                      (F(-3), F(1)), (CFG.b, F(0))))
    with pytest.raises(ValueError, match="arc is not simple"):
        invariants(touching, CFG)
    fold_back = PLArc(((CFG.a, F(0)), (F(-3), F(1)), (F(-7, 2), F(1, 2)), (CFG.b, F(0))))
    with pytest.raises(ValueError, match="consecutive segments fold back"):
        invariants(fold_back, CFG)
    # the second segment covers the first and runs on past its start; then
    # the same fold-back reflected in the vertical line through (a + b) / 2
    for pts in (((-4, 0), (-3, 0), (-5, 0), (-5, 1), (-2, 1), (-2, 0)),
                ((-2, 0), (-3, 0), (-1, 0), (-1, 1), (-4, 1), (-4, 0))):
        past_start = PLArc(tuple((F(x), F(y)) for x, y in pts))
        with pytest.raises(ValueError, match="consecutive segments fold back"):
            invariants(past_start, CFG)
    repeated = PLArc(((CFG.a, F(0)), (F(-3), F(1)), (F(-3), F(1)), (CFG.b, F(0))))
    with pytest.raises(ValueError, match="degenerate segment"):
        invariants(repeated, CFG)


def test_check_arcs_validates_each_arc_once(monkeypatch):
    cached = arcs.validate_arc
    cached.cache_clear()
    calls = collections.Counter()

    def spy(arc, cfg):
        calls[arc, cfg] += 1
        return cached(arc, cfg)

    monkeypatch.setattr(arcs, "validate_arc", spy)
    assert verify.check_arcs()[0]
    assert cached.cache_info().misses == len(calls) < sum(calls.values())


def _subdivide_by_recomputed_levels(arc, cfg, radii2):
    """The body ``_subdivide_for_zones`` had before it carried ring levels:
    the levels of both ends of every segment recomputed on every pass."""
    def ring_level(p):
        return bisect_left(radii2, _sq_dist(p, (cfg.center, 0)))

    pts = list(arc.points)
    for _ in range(24):
        out = [pts[0]]
        changed = False
        for p, q in zip(pts[:-1], pts[1:]):
            if abs(ring_level(p) - ring_level(q)) > 1:
                out.append(((p[0] + q[0]) / 2, (p[1] + q[1]) / 2))
                changed = True
            out.append(q)
        pts = out
        if not changed:
            return pts, [ring_level(p) for p in pts]
    raise RuntimeError("could not refine the arc across the annulus")


def test_subdivision_matches_recomputed_levels(monkeypatch):
    # every arc the staircase refines in criterion 10, at every ring count it tries
    tried = []
    staircase_once = arcs._staircase_once

    def spy(arc, cfg, total_turns, rings):
        tried.append((arc, cfg, rings))
        return staircase_once(arc, cfg, total_turns, rings)

    monkeypatch.setattr(arcs, "_staircase_once", spy)
    assert verify.check_arcs()[0]
    assert len({rings for _, _, rings in tried}) > 1
    for arc, cfg, rings in tried:
        radii2 = arcs._ring_radii2(cfg, rings)
        assert (arcs._subdivide_for_zones(arc.points, cfg.center, radii2)
                == _subdivide_by_recomputed_levels(arc, cfg, radii2))


def refine(arc: PLArc, pieces: int = 2) -> PLArc:
    """Subdivide every segment into equal rational pieces; the invariants
    are unchanged."""
    pts = [arc.points[0]]
    for p, q in arc.segments():
        for i in range(1, pieces):
            t = F(i, pieces)
            pts.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
        pts.append(q)
    return PLArc(tuple(pts), arc.orientation)


@pytest.mark.parametrize("pieces", [3, 5, 7])
@pytest.mark.parametrize("k", list(CATALOG_RANGE))
def test_refinement_preserves_invariants(pieces, k):
    # odd counts keep subdivision vertices off the reference sets; an even
    # count can land a vertex exactly on the axis, which is the degenerate
    # situation the invariants refuse by design
    arc = catalog_arc("S", k, CFG)
    assert invariants(refine(arc, pieces), CFG).tuple() == invariants(arc, CFG).tuple()


def test_flop_exchanges_endpoints():
    s0 = catalog_arc("S", 0, CFG)
    out = flop_map(s0, CFG)
    assert invariants(out, CFG).start == "b"
    assert invariants(flop_map(out, CFG), CFG).start == "a"


@pytest.mark.parametrize("k", range(-2, 4))
def test_flop_matches_straightened_catalog(k):
    got = invariants(flop_map(catalog_arc("S", k, CFG), CFG), CFG).tuple()
    assert got == invariants(catalog_arc("Sp", -k, CFG), CFG).tuple()


@pytest.mark.parametrize("k", range(-2, 4))
def test_flop_squared_is_inverse_twist(k):
    s = catalog_arc("S", k, CFG)
    twice = invariants(flop_map(flop_map(s, CFG), CFG), CFG)
    inv_tw = invariants(dehn_twist_map(s, CFG, inverse=True), CFG)
    assert twice.tuple() == inv_tw.tuple()
    assert twice.start == inv_tw.start == "a"


def test_staircase_images_are_pinned():
    # flop, twist and inverse twist of both catalog families; the inverse
    # twist of S:-2 needs the second staircase (16 rings)
    digest = hashlib.sha256()
    for label in ("S", "Sp"):
        for k in CATALOG_RANGE:
            arc = catalog_arc(label, k, CFG)
            for img in (flop_map(arc, CFG), dehn_twist_map(arc, CFG),
                        dehn_twist_map(arc, CFG, inverse=True)):
                digest.update(jsonio.dumps(jsonio.arc_to_json(img)).encode())
    assert digest.hexdigest() == "18e6db28ba0e58dace08ce267fc723ab8c25f8ffda823571a3d00262b61589b3"


def test_twist_fixes_inner_arc():
    s0 = catalog_arc("S", 0, CFG)
    assert invariants(dehn_twist_map(s0, CFG), CFG).tuple() == (0, 0)


def test_twist_then_inverse_restores_invariants():
    s2 = catalog_arc("S", 2, CFG)
    once = dehn_twist_map(s2, CFG)
    back = dehn_twist_map(once, CFG, inverse=True)
    assert invariants(back, CFG).tuple() == invariants(s2, CFG).tuple()


def test_map_identity_outside_untouched_region():
    # an arc that never meets the annulus of a far-away scene is fixed
    far = SceneConfig(F(-40), F(-38), F(3, 2), F(5, 2), F(1, 8))
    arc = make_arc(far, 0, 0)
    out = dehn_twist_map(arc, far)
    assert invariants(out, far).tuple() == invariants(arc, far).tuple()


def _fraction_rotation(t):
    """The Fraction body ``_pythagorean_rotation`` had before it returned
    integers: (cos, sin) from u = 4t / (3(1 - t) + 1)."""
    u = F(4) * t / (3 * (1 - t) + 1)
    den = 1 + u * u
    return (1 - u * u) / den, 2 * u / den


def _seeded_points(rng, cfg, radii2):
    """Points with denominators 1 to 12 around the annulus, and points at
    exactly each ring radius: on the horizontal through the centre, and at
    (3/5, 4/5) of the radius when the radius is rational."""
    pts = []
    for _ in range(300):
        den = rng.choice((1, 2, 3, 5, 7, 12))
        pts.append((F(rng.randint(-8 * den, 2 * den), den), F(rng.randint(-4 * den, 4 * den), den)))
    for r2 in radii2:
        r = F(math.isqrt(r2.numerator), math.isqrt(r2.denominator))
        if r * r == r2:
            pts += [(cfg.center + r, F(0)), (cfg.center - r, F(0)),
                    (cfg.center + r * F(3, 5), -r * F(4, 5))]
    return pts


@pytest.mark.parametrize("cfg", _SCENES)
def test_integer_ring_level_and_rotation_match_the_fraction_formulas(cfg):
    rng = random.Random(1917)
    for rings in (8, 16):
        radii2 = arcs._ring_radii2(cfg, rings)
        pts = _seeded_points(rng, cfg, radii2)
        on_ring = 0
        for p in pts:
            d2 = _sq_dist(p, (cfg.center, 0))
            on_ring += d2 in radii2
            assert arcs._subdivide_for_zones([p], cfg.center, radii2) == ([p], [bisect_left(radii2, d2)])
        assert on_ring >= 2 * len(radii2)
        for total_turns in (F(1), F(2), F(-2)):
            for level in range(rings + 1):
                t = abs(total_turns) * F(rings - level, rings)
                whole = int(t)
                c, s = _fraction_rotation(t - whole)
                if whole % 2 == 1:
                    c, s = -c, -s
                if total_turns < 0:
                    s = -s
                ci, si, q = arcs._pythagorean_rotation(t - whole)
                ci, si = (-ci, -si) if whole % 2 == 1 else (ci, si)
                rot = (ci, -si if total_turns < 0 else si, q)
                assert (F(rot[0], q), F(rot[1], q)) == (c, s)
                for p in pts[:40]:
                    dx, dy = p[0] - cfg.center, p[1]
                    want = (cfg.center + c * dx - s * dy, s * dx + c * dy)
                    got = arcs._rotate_about(cfg.center, p, rot)
                    assert got == want and all(type(x) is F for x in got)


def test_pruned_pair_loop_matches_the_fraction_pair_loop_on_staircase_images():
    # every flop, twist and inverse twist image of both catalog families is
    # simple, and both pair loops must find it so
    for label in ("S", "Sp"):
        for k in CATALOG_RANGE:
            arc = catalog_arc(label, k, CFG)
            for img in (flop_map(arc, CFG), dehn_twist_map(arc, CFG),
                        dehn_twist_map(arc, CFG, inverse=True)):
                assert _validate_by_fractions(img, CFG) is True
                assert arcs.validate_arc.__wrapped__(img, CFG) is True


def test_arc_keeps_fraction_coordinates_and_hashes_by_value():
    x = F(-3, 2)
    arc = PLArc(((CFG.a, 0), (x, F(1)), (CFG.b, 0)))
    assert arc.points[1][0] is x and arc.points[0][1] == F(0) and type(arc.points[0][1]) is F
    same = PLArc(((CFG.a, F(0)), (F(-3, 2), 1), (CFG.b, F(0))))
    assert arc == same and hash(arc) == hash(same) == hash((arc.points, 1))
    assert arc.reversed() != arc and hash(arc.reversed()) == hash((arc.points, -1))
