"""Finite A-infinity algebra on the endomorphisms of the two Lagrangian
spheres, with formal path-algebra coefficients.

Twelve generators: a unit and a point class for each sphere, four
degree-1 intersection generators X, Y, Z, W and their degree-2 partners
Xbar, Ybar, Zbar, Wbar.  m1 vanishes, m2 pairs each generator with its
partner into a point class, m3 realizes the eight cyclic triple products,
and everything in arity >= 4 vanishes.

Sign conventions (fixed here once, validated by ``stasheff_check``):

* A-infinity relations carry the sign (-1)^(sum of reduced degrees of the
  inputs left of the inner operation);
* units are strict: m2(unit, a) = a, m2(a, unit) = (-1)^{deg a} a, and m3
  and higher vanish on any tuple containing a unit;
* the b-deformed operations (``deformed``) pull the arrow coefficients of
  b = xX + yY + zZ + wW out in reverse order, m_k(u1 A1, ..., uk Ak) =
  uk...u1 m_k(A1, ..., Ak), with no Koszul sign: that sign is
  (-1)^(len(coeff) * reduced degree of each generator it passes), and every
  b slot holds a degree-1 generator, whose reduced degree is 0.

The Maurer-Cartan expansion and both sphere tables of ``tables`` are read
off ``deformed``, so the structure constants live only in m2 and m3 here.
"""

from __future__ import annotations

from .exactcx import Record
from .paths import FreePathElement, cyclic_derivative, POTENTIAL

GENERATORS = ("unit0", "unit1", "pt0", "pt1", "X", "Y", "Z", "W", "Xbar", "Ybar", "Zbar", "Wbar")

DEGREE = {
    "unit0": 0, "unit1": 0, "pt0": 3, "pt1": 3,
    "X": 1, "Y": 1, "Z": 1, "W": 1,
    "Xbar": 2, "Ybar": 2, "Zbar": 2, "Wbar": 2,
}

# brane pair (source sphere, target sphere) of each generator
BRANES = {
    "unit0": (0, 0), "pt0": (0, 0), "unit1": (1, 1), "pt1": (1, 1),
    "X": (0, 1), "Z": (0, 1), "Ybar": (0, 1), "Wbar": (0, 1),
    "Y": (1, 0), "W": (1, 0), "Xbar": (1, 0), "Zbar": (1, 0),
}

#: deformation pairs (arrow variable, degree-1 generator)
B_PAIRS = (("x", "X"), ("y", "Y"), ("z", "Z"), ("w", "W"))

#: degree-2 generator matched with each arrow of the quiver
BAR_OF_ARROW = {"x": "Xbar", "y": "Ybar", "z": "Zbar", "w": "Wbar"}


def _default_m2():
    return {
        ("X", "Xbar"): (-1, "pt0"), ("Z", "Zbar"): (-1, "pt0"),
        ("Ybar", "Y"): (1, "pt0"), ("Wbar", "W"): (1, "pt0"),
        ("Xbar", "X"): (1, "pt1"), ("Zbar", "Z"): (1, "pt1"),
        ("Y", "Ybar"): (-1, "pt1"), ("W", "Wbar"): (-1, "pt1"),
    }


def _default_m3():
    return {
        ("X", "Y", "Z"): (1, "Wbar"), ("Z", "Y", "X"): (-1, "Wbar"),
        ("Y", "Z", "W"): (1, "Xbar"), ("W", "Z", "Y"): (-1, "Xbar"),
        ("Z", "W", "X"): (1, "Ybar"), ("X", "W", "Z"): (-1, "Ybar"),
        ("W", "X", "Y"): (1, "Zbar"), ("Y", "X", "W"): (-1, "Zbar"),
    }


class AInftyTable(Record):
    """Structure constants; entries map generator tuples to (sign, generator).
    A table made without m2 or m3 gets a fresh copy of the default one."""

    _fields = ("m2", "m3")

    def __init__(self, m2: dict = None, m3: dict = None):
        self.m2 = _default_m2() if m2 is None else m2
        self.m3 = _default_m3() if m3 is None else m3

    def composable(self, gens):
        return all(BRANES[gens[i]][1] == BRANES[gens[i + 1]][0] for i in range(len(gens) - 1))

    def apply(self, gens):
        """m_k on a tuple of bare generators; returns (coeff, gen) or None."""
        k = len(gens)
        if not self.composable(gens):
            raise ValueError("branes do not compose: %r" % (gens,))
        if k == 1 or k >= 4:
            return None
        if k == 2:
            a, b = gens
            if a in ("unit0", "unit1"):
                return (1, b)
            if b in ("unit0", "unit1"):
                return ((-1) ** DEGREE[a], a)
            return self.m2.get(gens)
        return self.m3.get(gens)


TABLE = AInftyTable()


def _tuples(arity):
    """All brane-composable generator tuples of the given arity."""
    chains = [(g,) for g in GENERATORS]
    for _ in range(arity - 1):
        chains = [c + (g,) for c in chains for g in GENERATORS if BRANES[c[-1]][1] == BRANES[g][0]]
    return chains


class StasheffReport(Record):
    _fields = ("ok", "checked", "violation")

    def __init__(self, ok: bool, checked: int, violation: tuple = None):
        self.ok = ok
        self.checked = checked
        self.violation = violation  # (arity, tuple, residual dict)

    def __bool__(self):
        return self.ok


def _tuple_counts(max_arity):
    """Number of brane-composable generator tuples of each arity 1..max_arity,
    by a transfer count over the target sphere of the last generator."""
    ends = [sum(1 for g in GENERATORS if BRANES[g][1] == t) for t in (0, 1)]
    counts = [sum(ends)]
    for _ in range(max_arity - 1):
        ends = [sum(ends[BRANES[g][0]] for g in GENERATORS if BRANES[g][1] == t) for t in (0, 1)]
        counts.append(sum(ends))
    return counts


def _terms(max_arity, table):
    """The nonzero terms of the A-infinity identities up to ``max_arity``:
    {arity: {tuple: {(s, r): (gen_out, term)}}}, one term m_k(..., m_s(gens[r:r+s]), ...)
    per outer entry, slot r and inner entry whose output fills that slot."""
    entries = {k: [] for k in (2, 3)}  # (gens, (sign, output)) of each nonzero m_k entry
    by_output = {k: {} for k in (2, 3)}  # output -> [(gens, sign)]
    for k in (2, 3):
        for gens in _tuples(k):
            hit = table.apply(gens)
            if hit is not None:
                entries[k].append((gens, hit))
                by_output[k].setdefault(hit[1], []).append((gens, hit[0]))
    terms = {}
    for k in (2, 3):
        for outer, (sign_out, gen_out) in entries[k]:
            for r in range(k):
                koszul = sum(DEGREE[g] - 1 for g in outer[:r])
                for s in (2, 3):
                    arity = k + s - 1
                    if arity > max_arity:
                        continue
                    for inner, sign_in in by_output[s].get(outer[r], ()):
                        gens = outer[:r] + inner + outer[r + 1:]
                        if not table.composable(gens):
                            continue
                        term = sign_in * sign_out * (-1) ** (koszul % 2)
                        terms.setdefault(arity, {}).setdefault(gens, {})[(s, r)] = (gen_out, term)
    return terms


def stasheff_check(max_arity: int = 6, table: AInftyTable = TABLE) -> StasheffReport:
    """Decide every A-infinity identity up to ``max_arity``.

    With m1 = 0 and nothing above m3, every identity of arity > 6 vanishes
    termwise, so arities 2..6 decide the structure.  The same argument
    leaves only the terms m_k(..., m_s(...), ...) with k and s in {2, 3}:
    the residuals are assembled from the nonzero m2 and m3 entries alone,
    and every composable tuple that no such term reaches satisfies its
    identity trivially (arities 2 and 6 have no terms at all).  ``checked``
    counts the composable tuples of arity 2..max_arity, or those up to and
    including the first violating one in the order of ``_tuples``.
    """
    if not 2 <= max_arity <= 6:
        raise ValueError("max_arity must be in 2..6")
    counts = _tuple_counts(max_arity)
    terms = _terms(max_arity, table)
    for arity in range(2, max_arity + 1):
        residuals = {}
        for gens, parts in terms.get(arity, {}).items():
            residual = {}
            for key in sorted(parts):
                gen_out, term = parts[key]
                residual[gen_out] = residual.get(gen_out, 0) + term
            residual = {g: c for g, c in residual.items() if c != 0}
            if residual:
                residuals[gens] = residual
        if residuals:
            # report the first violation in the order of _tuples, counting the tuples up to it
            index, gens = next((i, g) for i, g in enumerate(_tuples(arity), 1) if g in residuals)
            return StasheffReport(False, sum(counts[1:arity - 1]) + index,
                                  (arity, gens, residuals[gens]))
    return StasheffReport(True, sum(counts[1:]))


def deformed(tail=()):
    """sum_k m_{k+len(tail)}(b, ..., b, *tail) over k >= 1 slots of
    b = xX + yY + zZ + wW, as {generator: FreePathElement}.

    Each term is read off ``TABLE.apply``: the b slots choose (arrow,
    generator) pairs from ``B_PAIRS``, and a composable tuple with a
    nonzero entry (sign, output) adds sign times the arrow word reversed,
    m_k(u1 A1, ..., uk Ak) = uk...u1 m_k(A1, ..., Ak).  No Koszul sign
    enters: every b slot holds a degree-1 generator, whose reduced degree
    is 0.  Only m2 and m3 are nonzero, so k + len(tail) is 2 or 3.
    ``deformed(())`` is the Maurer-Cartan expansion and ``deformed((g,))``
    the deformed differential m1^{b,0}(g) on CF(L0 + L1, L).
    """
    total = {}
    # (arrow word, generators): each pass adds a b slot on the left, whose
    # arrow goes last in the reversed word, and keeps the composable chains
    chains = [("", tuple(tail))]
    for _ in range(3 - len(tail)):
        chains = [(word + a, (g,) + gens) for word, gens in chains for a, g in B_PAIRS
                  if not gens or BRANES[g][1] == BRANES[gens[0]][0]]
        for word, gens in chains:
            hit = TABLE.apply(gens)
            if hit is not None:
                sign, gen = hit
                total[gen] = total.get(gen, FreePathElement()) + FreePathElement({word: sign})
    return {g: c for g, c in total.items() if not c.is_zero()}


def mc_expand():
    """Components of sum_k m_k(b, ..., b) for b = xX + yY + zZ + wW.

    Returns a dict over the degree-2 generators; any component off those
    generators would be a structure error and raises.
    """
    total = deformed(())
    bad = [g for g in total if DEGREE[g] != 2]
    if bad:
        raise RuntimeError("Maurer-Cartan expansion leaked onto %r" % bad)
    for bar in ("Xbar", "Ybar", "Zbar", "Wbar"):
        total.setdefault(bar, FreePathElement())
    return total


def mc_matches_relations() -> bool:
    """The deformation equation cuts out exactly the quiver relations:
    the coefficient on each degree-2 generator is minus the cyclic
    derivative of the potential at the matching arrow."""
    comps = mc_expand()
    return all(comps[BAR_OF_ARROW[a]] == -cyclic_derivative(POTENTIAL, a) for a in "xyzw")
