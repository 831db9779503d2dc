import itertools
import random

import pytest

import df0l.language
from df0l import Alphabet, DF0LSystem, Morphism


def sys1(letters, rules, axioms):
    """Build a system over single-character letters from compact strings."""
    alphabet = Alphabet(tuple(letters))
    images = {a: tuple(rules[a]) for a in letters}
    return DF0LSystem(Morphism(alphabet, images), [tuple(w) for w in axioms])


def w(text):
    """Word over single-character letters."""
    return tuple(text)


@pytest.fixture(scope="session")
def thue_morse():
    return sys1("ab", {"a": "ab", "b": "ba"}, ["a"])


@pytest.fixture(scope="session")
def collapse_bounded():
    # non-injective, eventually injective; delta = 11
    return sys1("abc", {"a": "abacc", "b": "aba", "c": "aba"}, ["a"])


@pytest.fixture(scope="session")
def collapse_unbounded():
    # non-injective with an infinite collision family
    return sys1("abc", {"a": "abaca", "b": "aba", "c": "aba"}, ["a"])


@pytest.fixture(scope="session")
def two_fixed():
    # two growing letters, two fixed bounded letters; powering needs axioms
    return sys1("abcd", {"a": "cb", "b": "ad", "c": "c", "d": "d"}, ["b"])


@pytest.fixture(scope="session")
def repetitive_square():
    # weakly circular with threshold 1; unboundedly repetitive via bc
    return sys1("abc", {"a": "aac", "b": "bc", "c": "bc"}, ["a"])


@pytest.fixture
def full_passes(monkeypatch):
    """The arguments of every full parse pass made while the test runs."""
    passes = []
    full_pass = df0l.language._full_pass

    def counted(*args):
        passes.append(args)
        return full_pass(*args)

    monkeypatch.setattr(df0l.language, "_full_pass", counted)
    return passes


LETTER_POOL = "abcd"


def random_pdf0l(rng: random.Random, max_letters=4, max_image_len=4,
                 max_axioms=2, max_axiom_len=2):
    """A random non-erasing system; used by the seeded property suites."""
    n = rng.randint(1, max_letters)
    letters = LETTER_POOL[:n]
    images = {}
    for a in letters:
        length = rng.randint(1, max_image_len)
        images[a] = tuple(rng.choice(letters) for _ in range(length))
    axioms = []
    for _ in range(rng.randint(1, max_axioms)):
        length = rng.randint(1, max_axiom_len)
        axioms.append(tuple(rng.choice(letters) for _ in range(length)))
    return DF0LSystem(Morphism(Alphabet(tuple(letters)), images), axioms)


def binary_census():
    """Every binary system with images of length 1-3 and axiom a or b:
    14 images per letter, 2 axioms, 392 systems."""
    images = [image for n in (1, 2, 3) for image in itertools.product("ab", repeat=n)]
    for image_a, image_b in itertools.product(images, repeat=2):
        morphism = Morphism(Alphabet(("a", "b")), {"a": image_a, "b": image_b})
        for axiom in ("a", "b"):
            yield DF0LSystem(morphism, [(axiom,)])
