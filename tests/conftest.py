import itertools
import os
import random
import subprocess
import sys

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


def binary_census(longest=3):
    """Every binary system with images of length 1 to longest and axiom a or
    b: 14 images per letter and 392 systems at the default 3, 6 images per
    letter and 72 systems at 2."""
    images = [image for n in range(1, longest + 1)
              for image in itertools.product("ab", repeat=n)]
    for image_a, image_b in itertools.product(images, repeat=2):
        morphism = Morphism(Alphabet(("a", "b")), {"a": image_a, "b": image_b})
        for axiom in ("a", "b"):
            yield DF0LSystem(morphism, [(axiom,)])


# the directory that holds the df0l package this process imported: src/ in a
# run from the checkout, site-packages in a run against an installed package
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(df0l.__file__)))


def run_python(*args, address_space=None, timeout=60, stdout=subprocess.PIPE,
               env=(), cwd=None):
    """`python *args` in a fresh interpreter that imports the df0l package
    this process imported, with stderr, and stdout unless given, captured
    as bytes.  address_space caps the child's address space, in KiB as
    `ulimit -v` takes it, and a child that runs longer than timeout
    seconds fails the test.  PYTHONUNBUFFERED is left out of the child's
    environment, and env adds variables to it."""
    environ = {name: value for name, value in os.environ.items()
               if name != "PYTHONUNBUFFERED"}
    environ.update(env, PYTHONPATH=PACKAGE_ROOT)
    limit = None
    if address_space:
        import resource     # Unix only, as is the limit

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (address_space * 1024,) * 2)

    return subprocess.run([sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE,
                          env=environ, cwd=cwd, timeout=timeout, preexec_fn=limit)


def run_df0l(*argv, module="df0l", **options):
    """`python -m module argv` through run_python."""
    return run_python("-m", module, *argv, **options)
