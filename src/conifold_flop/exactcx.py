"""Exact complex numbers as rational (re, im) pairs, with the phase
comparison that drives all stability verdicts.

Admissible numbers lie in the closed upper half plane minus the
non-negative real axis, so their argument sits in (0, pi].  Comparing two
arguments there never needs transcendental functions: the sign of the
cross product re(u) im(v) - im(u) re(v) decides it exactly, and
`phase_lt` takes that sign on numerators and denominators.
"""

from __future__ import annotations

from fractions import Fraction


class Record:
    """Value semantics for a plain class whose ``__init__`` stores the
    fields named in ``_fields``: equality on the field tuple within one
    class (another class gives NotImplemented) and the repr
    ``Cls(f=v, ...)``.  A Record is mutable and unhashable; a `Frozen` one
    hashes its field tuple and refuses assignment.  The value classes of
    the package are plain classes on these two bases, so importing the
    package loads no `inspect` or `ast` and generates no methods."""

    _fields = ()

    def _key(self):
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__,
                           ", ".join("%s=%r" % (f, getattr(self, f)) for f in self._fields))


class Frozen(Record):
    """A Record whose fields are set once, in ``__init__``, by
    ``object.__setattr__`` (`_store`).  Writing ``self.__dict__`` instead
    would turn the instance's inline attribute values into a dict and
    slow every later attribute read."""

    def _store(self, *values):
        """Set the fields, in ``_fields`` order."""
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)


class QC(Frozen):
    _fields = ("re", "im")

    def __init__(self, re, im=0):
        # written out: the hottest constructor of the package
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
