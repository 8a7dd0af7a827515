from fractions import Fraction
from functools import lru_cache

import pytest

from conifold_flop import linalg
from conifold_flop.paths import (POTENTIAL, SRC, TGT, FreePathElement, Potential,
                                 cyclic_derivative, fpe, is_composable, relations, word_source,
                                 word_target)
from conifold_flop.truncated import (MAX_CUTOFF, TruncatedAlgebra, _normal_word, classes, counts,
                                     truncated_algebra)


def _grading(e):
    """(source, target) if homogeneous, else None.  Zero has no grading."""
    pairs = {(word_source(w), word_target(w)) for w in e.coeffs}
    if len(pairs) == 1:
        return pairs.pop()
    return None


def _words_from(source, length):
    """All composable words of given length starting at ``source``."""
    if length == 0:
        return [""]
    outs = {0: "xz", 1: "yw"}
    words = [a for a in outs[source]]
    for _ in range(length - 1):
        words = [a + w for w in words for a in outs[TGT[w[0]]]]
    return words


def test_relation_words_composable():
    for w in ("xyz", "zyx", "yzw", "wzy", "zwx", "xwz", "wxy", "yxw"):
        assert is_composable(w)
    assert not is_composable("zwy")  # the misprinted word does not compose
    assert not is_composable("xx")


def test_path_endpoints():
    assert word_source("xyz") == 0 and word_target("xyz") == 1
    assert word_source("yzw") == 1 and word_target("yzw") == 0


def test_xy_is_composable_but_xz_is_not():
    assert is_composable("xy")
    assert not is_composable("xz")


def test_cyclic_derivatives():
    dx = cyclic_derivative(POTENTIAL, "x")
    assert dx == FreePathElement({"yzw": 1, "wzy": -1})
    dw = cyclic_derivative(POTENTIAL, "w")
    assert dw == FreePathElement({"xyz": 1, "zyx": -1})
    single = Potential([(1, "xyzw")])
    assert cyclic_derivative(single, "x") == fpe("yzw")


def test_relations_list():
    rels = relations()
    assert len(rels) == 4
    assert FreePathElement({"xyz": 1, "zyx": -1}) in rels
    for r in rels:
        words = r.words()
        assert len(words) == 2 and all(len(w) == 3 for w in words)
        assert _grading(r) is not None  # homogeneous (source, target)
    assert {frozenset(r.coeffs) for r in rels} == {
        frozenset({"yzw", "wzy"}), frozenset({"zwx", "xwz"}),
        frozenset({"wxy", "yxw"}), frozenset({"xyz", "zyx"})}


def test_element_arithmetic_grading():
    e = fpe("xyz") - fpe("zyx")
    assert _grading(e) == (0, 1)
    assert (fpe("x") * fpe("yx")).words() == ["xyx"]
    assert (fpe("y") * fpe("wz")).is_zero()  # non-composable concatenation
    assert 0 * fpe("x") == FreePathElement()


# --- truncation ---------------------------------------------------------


def _oracle_dim(source, length):
    """Independent check: exact row reduction of the relation span inside
    the degree-(source, length) word component."""
    rel_pairs = [tuple(sorted(r.coeffs)) for r in relations()]
    words = _words_from(source, length)
    index = {w: i for i, w in enumerate(words)}
    vectors = []
    for w in words:
        for i in range(length - 2):
            for w1, w2 in rel_pairs:
                if w[i:i + 3] == w1:
                    other = w[:i] + w2 + w[i + 3:]
                    row = [Fraction(0)] * len(words)
                    row[index[w]] += 1
                    row[index[other]] -= 1
                    vectors.append(tuple(row))
    return len(words) - linalg.rank(tuple(vectors), len(words))


@pytest.mark.parametrize("source,length,expected", [
    (0, 0, 1), (0, 2, 4), (0, 4, 9), (0, 1, 2), (0, 3, 6), (1, 2, 4), (1, 4, 9),
])
def test_truncation_dims_match_oracle(source, length, expected):
    A = truncated_algebra(8)
    target = source if length % 2 == 0 else 1 - source
    assert A.dim(source, target, length) == expected
    assert _oracle_dim(source, length) == expected


def test_hilbert_function_of_loop_components():
    A = truncated_algebra(MAX_CUTOFF)
    for source in (0, 1):
        for target in (0, 1):
            for length in range(MAX_CUTOFF + 1):
                if (source + length + target) % 2:
                    expected = 0
                elif length % 2 == 0:
                    expected = (length // 2 + 1) ** 2
                else:
                    expected = ((length + 1) // 2) * ((length + 3) // 2)
                assert A.dim(source, target, length) == expected


# --- union-find oracle: the classes of the relation substitutions ---------


class _UnionFind:
    def __init__(self, items):
        self.parent = {i: i for i in items}

    def find(self, i):
        p = self.parent
        root = i
        while p[root] != root:
            root = p[root]
        while p[i] != root:
            p[i], i = root, p[i]
        return root

    def union(self, i, j):
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)


def _relation_partners():
    partner = {}
    for r in relations():
        w1, w2 = sorted(r.coeffs)
        partner[w1], partner[w2] = w2, w1
    return partner


@lru_cache(maxsize=None)
def _oracle_classes(source, length):
    """word -> least word of its class, the classes generated by
    substituting one relation word for its partner inside a word."""
    partner = _relation_partners()
    words = _words_from(source, length)
    uf = _UnionFind(words)
    for word in words:
        for i in range(length - 2):
            other = partner.get(word[i:i + 3])
            if other is not None:
                uf.union(word, word[:i] + other + word[i + 3:])
    return {w: uf.find(w) for w in words}


@pytest.mark.parametrize("cutoff", range(MAX_CUTOFF + 1))
def test_normal_form_matches_union_find(cutoff):
    A = TruncatedAlgebra(cutoff)
    basis = {(s, t): [] for s in (0, 1) for t in (0, 1)}
    for source in (0, 1):
        for length in range(cutoff + 1):
            target = source if length % 2 == 0 else 1 - source
            members = {}  # least word of a union-find class -> its words
            for word, least in _oracle_classes(source, length).items():
                members.setdefault(least, []).append(word)
            vectors = {}  # least word -> the one count vector of its words
            for least, words in members.items():
                (vectors[least],) = {counts(w) for w in words}
                assert _normal_word(source, vectors[least]) == least
                assert all(A.class_of(w) == (source, vectors[least]) for w in words if w)
            assert len(set(vectors.values())) == len(vectors)
            assert sorted(vectors.values()) == sorted(classes(source, length))
            basis[(source, target)].extend((length, vectors[least]) for least in sorted(vectors))
        if cutoff < MAX_CUTOFF:
            assert all(A.class_of(w) is None for w in _words_from(source, cutoff + 1))
    assert A.basis == basis


def test_dims_nondecreasing_in_cutoff():
    prev = {}
    for n in range(0, 9):
        dims = truncated_algebra(n).dims()
        for key, value in prev.items():
            assert dims.get(key, 0) == value  # homogeneous relations: stable per length
        prev = dims


def test_cutoff_zero_is_the_two_idempotents():
    A = truncated_algebra(0)
    assert sum(len(v) for v in A.basis.values()) == 2


def test_reduce_relations_to_zero():
    A = truncated_algebra(8)
    for r in relations():
        assert A.is_zero(r)
    assert A.class_of("yzw") == A.class_of("wzy")
    assert A.is_zero(FreePathElement())
    assert not A.is_zero(fpe("yzw") + fpe("wzy"))
    assert not A.is_zero(fpe("xyz") - fpe("xwz"))


def test_reduce_rejects_long_words():
    A = truncated_algebra(4)
    with pytest.raises(ValueError):
        A.is_zero(fpe("xyxyx"))


def test_reduce_is_multiplicative():
    A = truncated_algebra(8)
    words = [w for source in (0, 1) for length in range(1, 8) for w in _words_from(source, length)]
    normal = {A.class_of(w): _normal_word(SRC[w[-1]], counts(w)) for w in words}
    for u in words:
        for v in words:
            if len(u) + len(v) > 8 or SRC[u[-1]] != TGT[v[0]]:
                continue
            (uv,) = (fpe(u) * fpe(v)).coeffs
            assert A.class_of(uv) == A.class_of(normal[A.class_of(u)] + normal[A.class_of(v)])


def test_cutoff_bounds():
    with pytest.raises(ValueError):
        truncated_algebra(13)
    with pytest.raises(ValueError):
        truncated_algebra(-1)
