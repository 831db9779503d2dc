import random

import pytest

from df0l import parse_word

from conftest import w
from oracles import (factors, is_conjugate, is_primitive, occurrences,
                     primitive_root)


def test_parse_and_format():
    assert parse_word("a b a") == ("a", "b", "a")
    assert parse_word("") == ()
    assert parse_word("  aa   b ") == ("aa", "b")


@pytest.mark.parametrize("word,root,exp", [
    ("abab", "ab", 2),
    ("aba", "aba", 1),
    ("bcbcbcbc", "bc", 4),
    ("a", "a", 1),
    ("aaaa", "a", 4),
])
def test_primitive_root(word, root, exp):
    assert primitive_root(w(word)) == (w(root), exp)


def test_primitive_root_rejects_empty():
    with pytest.raises(ValueError):
        primitive_root(())


def test_primitive_root_multichar_tokens():
    assert primitive_root(("aa", "b", "aa", "b")) == (("aa", "b"), 2)


@pytest.mark.parametrize("u,v,expected", [
    ("abc", "cab", True),
    ("ab", "ab", True),
    ("ab", "aa", False),
    ("", "", True),
    ("ab", "abc", False),
])
def test_is_conjugate(u, v, expected):
    assert is_conjugate(w(u), w(v)) is expected


def test_factors():
    assert factors(w("aba"), 2) == {(), w("a"), w("b"), w("ab"), w("ba")}
    assert factors((), 3) == {()}
    assert factors(w("aab"), 1) == {(), w("a"), w("b")}
    assert factors(w("ab"), 0) == {()}


def test_occurrences():
    assert occurrences(w("aa"), w("baab")) == [1]
    assert occurrences(w("ab"), w("abab")) == [0, 2]
    assert occurrences(w("c"), w("abab")) == []
    assert occurrences(w("aa"), w("aaaa")) == [0, 1, 2]
    with pytest.raises(ValueError):
        occurrences((), w("ab"))


def test_primitive_root_reconstructs():
    rng = random.Random(7)
    for _ in range(300):
        word = tuple(rng.choice("ab") for _ in range(rng.randint(1, 12)))
        root, exp = primitive_root(word)
        assert root * exp == word
        assert is_primitive(root)
        # exponent is maximal: the root admits no further division
        for d in range(1, len(root)):
            if len(root) % d == 0:
                assert root[:d] * (len(root) // d) != root


def test_conjugacy_is_an_equivalence():
    rng = random.Random(11)
    words = [tuple(rng.choice("ab") for _ in range(rng.randint(0, 6)))
             for _ in range(60)]
    for u in words:
        assert is_conjugate(u, u)
        for v in words:
            assert is_conjugate(u, v) == is_conjugate(v, u)
            for z in words:
                if is_conjugate(u, v) and is_conjugate(v, z):
                    assert is_conjugate(u, z)


def test_conjugates_share_root_structure():
    rng = random.Random(13)
    for _ in range(200):
        u = tuple(rng.choice("ab") for _ in range(rng.randint(1, 10)))
        cut = rng.randint(0, len(u))
        v = u[cut:] + u[:cut]
        assert is_conjugate(u, v)
        ru, eu = primitive_root(u)
        rv, ev = primitive_root(v)
        assert eu == ev
        assert is_conjugate(ru, rv)
