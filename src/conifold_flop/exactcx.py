"""Exact complex numbers as rational (re, im) pairs, with the phase
comparison that drives all stability verdicts.

Admissible numbers lie in the closed upper half plane minus the
non-negative real axis, so their argument sits in (0, pi].  Comparing two
arguments there never needs transcendental functions: the sign of the
cross product re(u) im(v) - im(u) re(v) decides it exactly, and
`phase_lt` takes that sign on numerators and denominators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class QC:
    re: Fraction
    im: Fraction

    def __init__(self, re, im=0):
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

    def __add__(self, other):
        return QC(self.re + other.re, self.im + other.im)

    def __rmul__(self, scalar):
        scalar = Fraction(scalar)
        return QC(scalar * self.re, scalar * self.im)

    def is_zero(self):
        return self.re == 0 and self.im == 0

    def __repr__(self):
        return "QC(%s, %s)" % (self.re, self.im)


def cross(u: QC, v: QC) -> Fraction:
    return u.re * v.im - u.im * v.re


def admissible(u: QC) -> bool:
    """Phase in (0, pi]: upper half plane, or negative real axis."""
    return u.im.numerator > 0 or (u.im.numerator == 0 and u.re.numerator < 0)


def phase_lt(u: QC, v: QC) -> bool:
    """arg u < arg v, decided exactly.  Both arguments must be admissible.

    Admissible numbers are nonzero, so the zero test runs only on a refusal,
    to name zero before a phase outside (0, pi], in either argument."""
    if not (admissible(u) and admissible(v)):
        if u.is_zero() or v.is_zero():
            raise ValueError("phase of zero is undefined")
        raise ValueError("phase comparison needs arguments with phase in (0, pi]")
    # cross(u, v) > 0, times the product of the four positive denominators
    return (u.re.numerator * v.im.numerator * u.im.denominator * v.re.denominator
            > u.im.numerator * v.re.numerator * u.re.denominator * v.im.denominator)
