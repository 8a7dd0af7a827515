"""Length-truncated Jacobi algebras of the conifold quiver.

A path class of the Jacobi algebra is determined by its source vertex and
by how many x, z, y and w it contains: two composable words with the same
source and the same arrow counts are equal modulo the relations, and
words with different counts are independent.  This is the dimer-model
statement that paths with the same ends and the same arrow counts agree
(Broomhead, Mem. AMS 1011, 2012); at vertex 0 it reads
e0.A.e0 = k[yx, yz, wx, wz]/(yx.wz - yz.wx), the coordinate ring of the
conifold (Van den Bergh, Duke Math. J. 122, 2004).  So the basis of each
homogeneous component is written down directly: one class per count
vector, so the class of a product adds the counts of its factors.  The
classes are listed in the order of their normal words (`_normal_word`),
the lexicographically least composable words with those counts.
Products of classes whose total length exceeds the cutoff are zero.

The test oracle, in `tests/test_quiver.py`, is the union-find of the
words under the relation substitutions; it checks the basis and every
class through `MAX_CUTOFF`.
"""

from __future__ import annotations

from functools import lru_cache

from .paths import SRC, FreePathElement, is_composable

MAX_CUTOFF = 12


def counts(word):
    """The arrow counts (x, z, y, w) of a word."""
    return tuple(word.count(a) for a in "xzyw")


def _normal_word(source, counts):
    """The normal word of the class with ``counts`` = (x, z, y, w) from
    ``source``: written left to right from the last arrow to act, where the
    j-th arrow to act leaves vertex (source + j) mod 2, taking x before z
    out of vertex 0 and w before y out of vertex 1."""
    x, z, y, w = counts
    length = x + z + y + w
    outs = ("x" * x + "z" * z, "w" * w + "y" * y)
    first = (source + length - 1) % 2  # the vertex the last arrow leaves
    word = [""] * length
    word[0::2], word[1::2] = outs[first], outs[1 - first]
    return "".join(word)


def classes(source, length):
    """The count vectors of the classes of paths of ``length`` from
    ``source``, in the order of their normal words."""
    # arrows leaving vertex 0 (x or z) and vertex 1 (y or w)
    n_xz, n_yw = (length + 1 - source) // 2, (length + source) // 2
    return sorted(((x, n_xz - x, n_yw - w, w) for x in range(n_xz + 1) for w in range(n_yw + 1)),
                  key=lambda c: _normal_word(source, c))


@lru_cache(maxsize=None)
def normal_words(source, length):
    """The normal words of the classes of paths of ``length`` from
    ``source``, in the order of `classes`."""
    return tuple(_normal_word(source, c) for c in classes(source, length))


class TruncatedAlgebra:
    """Paths of length <= N modulo the relation ideal, with exact basis.

    Basis elements are the classes, as (length, count vector) per
    (source, target) pair; the two vertex idempotents are the zero count
    vectors at v0 and v1.
    """

    def __init__(self, cutoff: int):
        if not 0 <= cutoff <= MAX_CUTOFF:
            raise ValueError("cutoff must be in 0..%d" % MAX_CUTOFF)
        self.cutoff = cutoff
        # (source, target) -> ordered list of (length, counts)
        self.basis = {(s, t): [] for s in (0, 1) for t in (0, 1)}
        for source in (0, 1):
            for length in range(cutoff + 1):
                target = source if length % 2 == 0 else 1 - source
                self.basis[(source, target)] += [(length, c) for c in classes(source, length)]

    def class_of(self, word: str):
        """(source, counts) of a word's class, or None if length > cutoff."""
        if not is_composable(word):
            raise ValueError("non-composable word %r" % word)
        if len(word) > self.cutoff:
            return None
        return SRC[word[-1]], counts(word)

    def dims(self):
        """dict (source, target, length) -> dimension of that component."""
        table = {}
        for (s, t), entries in self.basis.items():
            for length, _ in entries:
                key = (s, t, length)
                table[key] = table.get(key, 0) + 1
        return table

    def dim(self, source, target, length):
        return self.dims().get((source, target, length), 0)

    def is_zero(self, element: FreePathElement) -> bool:
        """True iff the coefficients of each class sum to zero (words over
        the cutoff would be dropped by the quotient, so they are rejected)."""
        sums = {}
        for word, coeff in element.coeffs.items():
            c = self.class_of(word)
            if c is None:
                raise ValueError("word %r longer than cutoff %d" % (word, self.cutoff))
            sums[c] = sums.get(c, 0) + coeff
        return not any(sums.values())


@lru_cache(maxsize=None)
def truncated_algebra(cutoff: int) -> TruncatedAlgebra:
    """Shared constructor; the algebra is immutable so caching is safe."""
    return TruncatedAlgebra(cutoff)
