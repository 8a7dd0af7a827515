"""Free path algebra of the conifold quiver, over exact rationals.

The quiver has two vertices v0, v1 and four arrows

    x : v0 -> v1,   z : v0 -> v1,   y : v1 -> v0,   w : v1 -> v0.

Words are strings over "xyzw" read like function composition: in the word
``a1 a2 ... an`` the rightmost arrow ``an`` is applied first.  Under this
convention all eight relation words xyz, zyx, yzw, wzy, zwx, xwz, wxy, yxw
are composable.

The superpotential is the cyclic loop combination (xyzw)_cyc - (wzyx)_cyc;
its four cyclic derivatives are the defining relations of the Jacobi
algebra (the noncommutative crepant resolution of the conifold).
"""

from __future__ import annotations

from fractions import Fraction

ARROWS = "xyzw"

# source/target vertex of each arrow
SRC = {"x": 0, "z": 0, "y": 1, "w": 1}
TGT = {"x": 1, "z": 1, "y": 0, "w": 0}


def is_composable(word: str) -> bool:
    """True iff adjacent arrows compose (right-to-left application)."""
    if not word or any(c not in SRC for c in word):
        return False
    return all(SRC[word[i]] == TGT[word[i + 1]] for i in range(len(word) - 1))


def word_source(word: str) -> int:
    return SRC[word[-1]]


def word_target(word: str) -> int:
    return TGT[word[0]]


class FreePathElement:
    """Exact-rational linear combination of composable words.

    Zero coefficients are never stored.  Products concatenate words (the
    right factor acts first); non-composable concatenations vanish, as in
    any path algebra.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        data = {}
        if coeffs:
            for word, c in coeffs.items():
                c = Fraction(c)
                if c == 0:
                    continue
                if not is_composable(word):
                    raise ValueError("non-composable word %r" % word)
                data[word] = c
        self.coeffs = data

    @classmethod
    def from_word(cls, word, coeff=1):
        return cls({word: Fraction(coeff)})

    def is_zero(self):
        return not self.coeffs

    def words(self):
        return sorted(self.coeffs, key=lambda w: (len(w), w))

    def __add__(self, other):
        data = dict(self.coeffs)
        for w, c in other.coeffs.items():
            s = data.get(w, Fraction(0)) + c
            if s == 0:
                data.pop(w, None)
            else:
                data[w] = s
        out = FreePathElement()
        out.coeffs = data
        return out

    def __neg__(self):
        out = FreePathElement()
        out.coeffs = {w: -c for w, c in self.coeffs.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, scalar):
        scalar = Fraction(scalar)
        if scalar == 0:
            return FreePathElement()
        out = FreePathElement()
        out.coeffs = {w: scalar * c for w, c in self.coeffs.items()}
        return out

    def __mul__(self, other):
        """Concatenation product; ``self`` acts after ``other``."""
        if isinstance(other, (int, Fraction)):
            return self.__rmul__(other)
        data = {}
        for u, cu in self.coeffs.items():
            for v, cv in other.coeffs.items():
                if SRC[u[-1]] != TGT[v[0]]:
                    continue
                w = u + v
                s = data.get(w, Fraction(0)) + cu * cv
                if s == 0:
                    data.pop(w, None)
                else:
                    data[w] = s
        out = FreePathElement()
        out.coeffs = data
        return out

    def __eq__(self, other):
        if isinstance(other, int) and other == 0:
            return not self.coeffs
        return isinstance(other, FreePathElement) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for w in self.words():
            c = self.coeffs[w]
            if c == 1:
                parts.append("+%s" % w)
            elif c == -1:
                parts.append("-%s" % w)
            else:
                parts.append("%+s*%s" % (c, w))
        return "".join(parts).lstrip("+")


def fpe(word, coeff=1):
    return FreePathElement.from_word(word, coeff)


class Potential:
    """Exact-rational combination of cyclic loop words."""

    def __init__(self, terms):
        self.terms = []
        for coeff, word in terms:
            if not is_composable(word) or word_source(word) != word_target(word):
                raise ValueError("cyclic word must be a composable loop: %r" % word)
            self.terms.append((Fraction(coeff), word))

    def __iter__(self):
        return iter(self.terms)


#: (xyzw)_cyc - (wzyx)_cyc
POTENTIAL = Potential([(1, "xyzw"), (-1, "wzyx")])


def cyclic_derivative(potential: Potential, arrow: str) -> FreePathElement:
    """Sum over occurrences of ``arrow``, reading each loop cyclically
    starting right after the occurrence."""
    if arrow not in SRC:
        raise ValueError("unknown arrow %r" % arrow)
    out = FreePathElement()
    for coeff, word in potential:
        for i, a in enumerate(word):
            if a == arrow:
                rotated = word[i + 1:] + word[:i]
                out = out + FreePathElement({rotated: coeff})
    return out


def relations() -> list:
    """The four cyclic derivatives of the superpotential, in arrow order
    x, y, z, w: yzw-wzy, zwx-xwz, wxy-yxw, xyz-zyx."""
    return [cyclic_derivative(POTENTIAL, a) for a in ARROWS]
