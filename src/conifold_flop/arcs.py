"""Matching-path calculus in the punctured plane.

Arcs are piecewise-linear curves with exact rational vertices joining the
two marked points a < b < 0 on the real axis, staying clear of the
deleted origin.  Two crossing invariants are computed by exact sign
predicates: the signed count of crossings with the positive real axis
(positive when the arc passes upward) and the unsigned count of
transverse crossings with the open interval (a, b).

The half-rotation surgery rotates the disk of radius R1 about the
midpoint (a + b)/2 by pi exactly, fixes everything outside radius R2,
and interpolates across the annulus by a staircase of exact rational
rotations (Pythagorean approximations).  The staircase splits the
annulus by `rings` equally spaced radii from R1 to R2; a point with l of
these radii strictly inside it (l capped at `rings`) turns by about
pi * total_turns * (rings - l) / rings, where total_turns is 1 for the
surgery and +-2 for the twist: exactly at l = 0, the identity at
l = rings.  The positive axis stays outside the R2-disk and the interval
(a, b) inside the R1-disk, so both invariants transform predictably: the
surgery exchanges the endpoints and preserves the crossing data, as does
the full-turn twist.  Both maps reject an input arc that fails
`validate_arc` with a ValueError.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .exactcx import Frozen
from .linalg import integer_row

F = Fraction
# arcs whose validation is kept, keyed by the frozen (PLArc, SceneConfig)
# values: a surgery image is validated again as the input of the next map
# and by ``invariants``
ARC_CACHE_SIZE = 128


class SceneConfig(Frozen):
    _fields = ("a", "b", "r1", "r2", "eps")

    def __init__(self, a, b, r1, r2, eps):
        a, b, r1, r2, eps = F(a), F(b), F(r1), F(r2), F(eps)
        self._store(a, b, r1, r2, eps)
        if not a < b < 0:
            raise ValueError("need a < b < 0")
        if not r1 > (b - a) / 2:
            raise ValueError("inner radius must cover the marked points")
        if not r2 > r1:
            raise ValueError("need r1 < r2")
        if not r2 < abs(a + b) / 2:
            raise ValueError("outer disk must exclude the origin")
        if eps <= 0:
            raise ValueError("clearance must be positive")

    @property
    def center(self):
        return (self.a + self.b) / 2


DEFAULT_SCENE = SceneConfig(F(-4), F(-2), F(3, 2), F(5, 2), F(1, 8))


class PLArc(Frozen):
    """Vertex chain with exact rational coordinates; endpoints at the
    marked points; orientation +1 traverses the vertex list as given."""

    _fields = ("points", "orientation")

    def __init__(self, points, orientation=1):
        pts = tuple((x if type(x) is F else F(x), y if type(y) is F else F(y))
                    for x, y in points)
        if len(pts) < 2:
            raise ValueError("an arc needs at least two vertices")
        if orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")
        self._store(pts, orientation)
        # hashed once: `validate_arc` looks every arc up by it
        object.__setattr__(self, "_hash", hash((pts, orientation)))

    def __hash__(self):
        return self._hash

    def reversed(self):
        """Same vertex chain traversed the other way."""
        return PLArc(self.points, -self.orientation)

    def segments(self):
        return list(zip(self.points[:-1], self.points[1:]))


class ArcInvariants(Frozen):
    _fields = ("ray_crossings", "seg_crossings", "start")

    def __init__(self, ray_crossings: int, seg_crossings: int, start: str):
        # start, "a" or "b": first endpoint under the arc's orientation
        self._store(ray_crossings, seg_crossings, start)

    def tuple(self):
        return (self.ray_crossings, self.seg_crossings)


class DegenerateArc(ValueError):
    """Vertex exactly on a reference set; perturb the arc and retry."""


def _clears_origin(p, q, eps2):
    """The segment pq keeps squared distance at least ``eps2`` from the
    origin.  With D = q - p, the nearest point is p when p.D >= 0, q when
    q.D <= 0, and otherwise lies inside, at squared distance
    cross(p, q)^2 / |D|^2; no division is needed."""
    dx, dy = q[0] - p[0], q[1] - p[1]
    if p[0] * dx + p[1] * dy >= 0:
        return p[0] * p[0] + p[1] * p[1] >= eps2
    if q[0] * dx + q[1] * dy <= 0:
        return q[0] * q[0] + q[1] * q[1] >= eps2
    cross = p[0] * q[1] - p[1] * q[0]
    return cross * cross >= eps2 * (dx * dx + dy * dy)


def _orient(p, q, r):
    """Sign of the cross product (q - p) x (r - p)."""
    v = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    return (v > 0) - (v < 0)


def _segments_cross(p1, q1, p2, q2):
    """Proper or improper intersection of closed segments whose bounding
    boxes meet, exact: the orientation straddle test.  Segments that pass
    the two straddle tests either cross or are collinear, and collinear
    segments meet exactly when their bounding boxes do, as these do."""
    o1, o2 = _orient(p1, q1, p2), _orient(p1, q1, q2)
    if o1 == o2 != 0:
        return False
    o3, o4 = _orient(p2, q2, p1), _orient(p2, q2, q1)
    return o3 != o4 or o3 == 0


@lru_cache(maxsize=ARC_CACHE_SIZE)
def validate_arc(arc: PLArc, cfg: SceneConfig):
    """Simplicity, endpoint placement and origin clearance, all exact.
    Returns True or raises ValueError; an invalid arc is not cached, so it
    raises on every call.  Endpoints are checked on the Fraction vertices.
    Every other test is the sign of a homogeneous polynomial in the
    coordinates and eps: the degenerate-segment and clearance tests, the
    fold-back test and the all-pairs crossing test.  So they all run on
    integers, the vertices and eps times one positive scale
    (`linalg.integer_row` of all of them), which keeps every sign and so
    every verdict and message."""
    pts = arc.points
    ends = {pts[0], pts[-1]}
    marked = {(cfg.a, F(0)), (cfg.b, F(0))}
    if ends != marked:
        raise ValueError("arc endpoints must be the two marked points")
    *flat, eps = integer_row([c for p in pts for c in p] + [cfg.eps])
    ipts = list(zip(flat[0::2], flat[1::2]))
    segs = list(zip(ipts[:-1], ipts[1:]))
    boxes = [(min(p[0], q[0]), max(p[0], q[0]), min(p[1], q[1]), max(p[1], q[1])) for p, q in segs]
    for p, q in segs:
        if p == q:
            raise ValueError("degenerate segment")
        if not _clears_origin(p, q, eps * eps):
            raise ValueError("arc passes within eps of the origin")
    for i, (p1, q1) in enumerate(segs):
        # consecutive segments share exactly their joint vertex: collinear
        # ones must not turn back, whichever of them runs further
        if i + 1 < len(segs):
            q2 = segs[i + 1][1]
            if _orient(p1, q1, q2) == 0 and ((q1[0] - p1[0]) * (q2[0] - q1[0])
                                             + (q1[1] - p1[1]) * (q2[1] - q1[1])) < 0:
                raise ValueError("consecutive segments fold back")
        x0, x1, y0, y1 = boxes[i]
        for (p2, q2), (u0, u1, v0, v1) in zip(segs[i + 2:], boxes[i + 2:]):
            # segments whose bounding boxes are disjoint cannot meet
            if u0 <= x1 and x0 <= u1 and v0 <= y1 and y0 <= v1 and _segments_cross(p1, q1, p2, q2):
                raise ValueError("arc is not simple")
    return True


def invariants(arc: PLArc, cfg: SceneConfig = DEFAULT_SCENE) -> ArcInvariants:
    """Exact crossing counts; refuses on vertices lying on a reference set."""
    validate_arc(arc, cfg)
    a, b = cfg.a, cfg.b
    pts = arc.points if arc.orientation == 1 else tuple(reversed(arc.points))
    for idx, (x, y) in enumerate(pts):
        if idx in (0, len(pts) - 1):
            continue
        if y == 0 and x > 0:
            raise DegenerateArc("vertex on the positive axis; perturb the arc")
        if y == 0 and a < x < b:
            prev_pt, next_pt = pts[idx - 1], pts[idx + 1]
            if prev_pt[1] != 0 or next_pt[1] != 0:
                raise DegenerateArc("vertex on the open interval; perturb the arc")
    ray = 0
    seg = 0
    for p, q in zip(pts[:-1], pts[1:]):
        if p[1] == q[1]:
            continue  # horizontal pieces (including runs along the axis)
        if (p[1] < 0 < q[1]) or (q[1] < 0 < p[1]):
            t = (F(0) - p[1]) / (q[1] - p[1])
            x = p[0] + t * (q[0] - p[0])
            if x > 0:
                ray += 1 if q[1] > p[1] else -1
            elif a < x < b:
                seg += 1
            elif x == 0 or x == a or x == b:
                raise DegenerateArc("crossing through a marked point; perturb the arc")
        elif p[1] == 0 or q[1] == 0:
            # touching the axis at a vertex: only harmful on reference sets,
            # which the vertex check above already rejected (interior) or
            # excluded (endpoints)
            continue
    start = "a" if pts[0] == (a, F(0)) else "b"
    return ArcInvariants(ray, seg, start)


# ---------------------------------------------------------------------------
# catalog arcs


def _wiggle_xs(cfg, count):
    a, b = cfg.a, cfg.b
    return [a + (b - a) * F(2 * i + 1, 2 * count) for i in range(count)]


def make_arc(cfg: SceneConfig, ray_dir: int, wiggles: int) -> PLArc:
    """Arc from a to b with the prescribed signed ray crossing (one of
    -1, 0, +1) and number of transverse crossings of (a, b)."""
    a, b = cfg.a, cfg.b
    h = min(cfg.eps, (b - a) / 8, (cfg.r1 ** 2 - ((b - a) / 2) ** 2) / (4 * cfg.r1 + 1))
    big = 2 * abs(a)
    rx = abs(a) + 1
    pts = [(a, F(0))]
    side = F(1)  # current vertical side of the approach, +1 = above
    if ray_dir != 0:
        s = F(-ray_dir)  # pass below first for a positive (upward) crossing
        pts += [(a - 1, s * big), (rx, s * big), (rx, -s * big), (a - 1, -s * big)]
        side = -s
    approach_y = side * h
    if wiggles:
        for i, x in enumerate(_wiggle_xs(cfg, wiggles)):
            y = approach_y * (-1) ** i
            pts += [(x, y), (x, -y)]
        approach_y = -approach_y * (-1) ** (wiggles - 1)
    landing = (a + 7 * (b - a) / F(8), approach_y)
    if pts[-1][0] != landing[0] or pts[-1][1] != landing[1]:
        pts.append(landing)
    pts.append((b, F(0)))
    return PLArc(tuple(pts))


#: invariant table: index -> (signed ray crossings, interval crossings)
SPHERE_INVARIANTS = {
    -3: (-1, 4), -2: (-1, 3), -1: (-1, 2),
    0: (0, 0), 1: (1, 0), 2: (1, 1), 3: (1, 2),
}

CATALOG_RANGE = range(-3, 4)


def catalog_arc(label: str, k: int, cfg: SceneConfig = DEFAULT_SCENE) -> PLArc:
    """Shipped digitizations: 'S' for the sphere family, 'Sp' for the
    straightened family after the surgery, whose k-th member matches the
    invariants of the (-k)-th sphere."""
    if k not in CATALOG_RANGE:
        raise ValueError("catalog index must be in -3..3")
    if label == "S":
        ray, seg = SPHERE_INVARIANTS[k]
    elif label == "Sp":
        ray, seg = SPHERE_INVARIANTS[-k]
    else:
        raise ValueError("label must be 'S' or 'Sp'")
    return make_arc(cfg, ray, seg)


# ---------------------------------------------------------------------------
# the half-rotation surgery and the twist


def _pythagorean_rotation(t: Fraction):
    """Exact rational rotation by an angle close to pi * t for t in [0, 1),
    exactly the identity at t = 0, via the half-angle parametrization
    (cos, sin) = ((1-u^2), 2u)/(1+u^2).  Returned on integers as (c, s, q),
    for the rotation (c/q, s/q) with q > 0."""
    # u = tan(theta / 2) for theta = pi t; rational approximation of
    # tan(pi t / 2) ~ t/(1 - t) rescaled, u = 4t / (3(1 - t) + 1) = p / r
    # for t = n / m; monotonicity is all that matters
    n, m = t.numerator, t.denominator
    p, r = 4 * n, 4 * m - 3 * n
    return (r * r - p * p, 2 * p * r, r * r + p * p)


def _rotate_about(center, p, rot):
    """p rotated about (center, 0) by (c/q, s/q), ``rot`` = (c, s, q): p
    itself for the identity, (2 center - x, -y) for the half-turn, else one
    Fraction per coordinate from integer sums over a common denominator."""
    c, s, q = rot
    if s == 0:
        return p if c > 0 else (2 * center - p[0], -p[1])
    cn, cd = center.numerator, center.denominator
    xd, yn, yd = p[0].denominator, p[1].numerator, p[1].denominator
    dn = p[0].numerator * cd - cn * xd  # p.x - center = dn / (xd cd)
    den = xd * cd * yd * q
    return (F(cn * xd * yd * q + c * dn * yd - s * yn * xd * cd, den),
            F(s * dn * yd + c * yn * xd * cd, den))


def _ring_radii2(cfg: SceneConfig, rings: int):
    """Squared radii r1 = rho_0 < rho_1 < ... < rho_rings = r2 of the
    staircase rings, equally spaced across the annulus."""
    return [(cfg.r1 + (cfg.r2 - cfg.r1) * F(i, rings)) ** 2 for i in range(rings + 1)]


def _subdivide_for_zones(points, center, radii2):
    """Refine until the ring levels of the two ends of every segment differ
    by at most one, bounded effort.  The ring level of a point is the
    number of ring radii strictly inside it: 0 in the inner disk,
    len(radii2) outside the outer one.  Returns the refined points and the
    level of each; a level is computed once, when its point is made.

    Levels are searched on integers: a squared radius R / L, over the common
    denominator L, is below the squared distance N / M iff R < ceil(N L / M)."""
    den = lcm(*(r.denominator for r in radii2))
    radii = [r.numerator * (den // r.denominator) for r in radii2]
    cn, cd = center.numerator, center.denominator

    def level(p):
        xd, yn, yd = p[0].denominator, p[1].numerator, p[1].denominator
        dn = p[0].numerator * cd - cn * xd  # p.x - center = dn / (xd cd)
        n = dn * dn * yd * yd + yn * yn * xd * xd * cd * cd
        return bisect_left(radii, -(-n * den // (xd * cd * yd) ** 2))

    pts = list(points)
    levels = [level(p) for p in pts]
    for _ in range(24):
        out, out_levels = [pts[0]], [levels[0]]
        changed = False
        for i in range(1, len(pts)):
            if abs(levels[i - 1] - levels[i]) > 1:
                p, q = pts[i - 1], pts[i]
                mid = ((p[0] + q[0]) / 2, (p[1] + q[1]) / 2)
                out.append(mid)
                out_levels.append(level(mid))
                changed = True
            out.append(pts[i])
            out_levels.append(levels[i])
        pts, levels = out, out_levels
        if not changed:
            return pts, levels
    raise RuntimeError("could not refine the arc across the annulus")


def _staircase_once(arc: PLArc, cfg: SceneConfig, total_turns: Fraction, rings: int) -> PLArc:
    center = cfg.center
    pts, levels = _subdivide_for_zones(arc.points, center, _ring_radii2(cfg, rings))

    def turn(level):
        # level l (capped at rings) turns by pi * total_turns * (rings - l) / rings:
        # exactly in the inner disk, not at all from the outer radius on
        t = abs(total_turns) * F(rings - min(level, rings), rings)
        whole = int(t)  # full pi-turns rotate exactly
        c, s, q = _pythagorean_rotation(t - whole)
        if whole % 2 == 1:
            c, s = -c, -s
        if total_turns < 0:
            s = -s
        return c, s, q

    turns = {level: turn(level) for level in set(levels)}
    out = PLArc(tuple(_rotate_about(center, p, turns[level]) for p, level in zip(pts, levels)),
                arc.orientation)
    validate_arc(out, cfg)
    return out


def _staircase_map(arc: PLArc, cfg: SceneConfig, total_turns: Fraction) -> PLArc:
    """Map rotating the inner disk by pi * total_turns exactly, fixing the
    outside, with a monotone staircase of rational rotations between; the
    staircase is refined until the image validates.  A bad input arc
    raises ValueError at once."""
    validate_arc(arc, cfg)
    last = None
    for rings in (8, 16, 32, 64, 128):
        try:
            return _staircase_once(arc, cfg, total_turns, rings)
        except (ValueError, RuntimeError) as exc:
            last = exc
    raise RuntimeError("surgery image failed to validate after refinement: %s" % last)


def flop_map(arc: PLArc, cfg: SceneConfig = DEFAULT_SCENE) -> PLArc:
    """Half-rotation surgery: exact pi-rotation inside, identity outside,
    exchanging the endpoints a <-> b."""
    return _staircase_map(arc, cfg, F(1))


def dehn_twist_map(arc: PLArc, cfg: SceneConfig = DEFAULT_SCENE, inverse: bool = False) -> PLArc:
    """Full-turn twist supported on the annulus; the inner disk and the
    outside are pointwise fixed."""
    return _staircase_map(arc, cfg, F(-2) if inverse else F(2))
