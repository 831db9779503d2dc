"""Inside df0l every word is a code string, letter i of the alphabet being
chr(i).  The answers must not depend on how the letter tokens are spelled:
each system here is checked, through a renaming of its letters, against a
copy whose language letters are the plain tokens a, b, c.  The renaming keeps
the declaration order of the language letters, so canonical orders agree.
"""

import collections.abc
import random
import re
import tracemalloc

import pytest

import df0l.repetitiveness
from df0l import (Alphabet, DF0LSystem, InvalidSystemError, Morphism,
                  clear_language_cache, contains, detect_unbounded_repetitive,
                  factor_language, minimal_interpretations, strong_threshold,
                  weak_threshold)
from df0l.circularity import _level_search

from conftest import sys1
from oracles import encoded

MAX_LEN = 7
CUTOFF = 6
PERIOD_BOUND = 64


def _renamed(system, names, alphabet):
    """The system with each letter a written names.get(a, a), over
    `alphabet`, whose letters that are not renamed letters map to themselves."""
    images = {a: (a,) for a in alphabet}
    for a in system.alphabet:
        images[names.get(a, a)] = _rename(system.morphism.image(a), names)
    axioms = [_rename(axiom, names) for axiom in system.axioms]
    return DF0LSystem(Morphism(Alphabet(alphabet), images), axioms)


def _rename(value, names):
    """A df0l answer with every letter token t written names[t]."""
    if hasattr(value, "_fields"):      # a record, a named tuple
        return type(value)(*(_rename(item, names) for item in value))
    if isinstance(value, (tuple, list)):
        return type(value)(_rename(item, names) for item in value)
    if isinstance(value, str):
        return names.get(value, value)
    return value


# the plain systems, over a, b, c
FIBONACCI = sys1("ab", {"a": "ab", "b": "a"}, ["a"])
COLLAPSE = sys1("abc", {"a": "abacc", "b": "aba", "c": "aba"}, ["a"])
# certified repetitive through its first letter at power 1, so the detector
# stops before it raises the morphism to a high power
SQUARE = sys1("abc", {"a": "ab", "b": "ab", "c": "ccb"}, ["c"])

FILLERS = tuple(f"x{i}" for i in range(297))

CASES = {
    # the token b names a different letter than in the plain copy
    "multi-character tokens": (COLLAPSE, {"a": "a1", "b": "a2", "c": "b"},
                               ("a1", "a2", "b")),
    # token \x01 has code \x00 and token \x00 has code \x01
    "control-character tokens": (FIBONACCI, {"a": "\x01", "b": "\x00"},
                                 ("\x01", "\x00")),
    # the language letters have codes 297-299, beyond Latin-1; the plain
    # copy has the same 300 letters with a, b, c first
    "300 letters": (SQUARE, {"a": "α", "b": "β", "c": "γ"},
                    FILLERS + ("α", "β", "γ")),
}


def _pair(name):
    plain, names, alphabet = CASES[name]
    if len(alphabet) > len(plain.alphabet):
        plain = _renamed(plain, {}, plain.alphabet.letters + FILLERS)
    coded = _renamed(plain, names, alphabet)
    back = {token: plain_token for plain_token, token in names.items()}
    return plain, coded, back


@pytest.fixture(params=sorted(CASES))
def pair(request):
    return _pair(request.param)


def test_language_and_membership_agree_up_to_renaming(pair):
    plain, coded, back = pair
    fs = factor_language(coded, MAX_LEN)
    assert _rename(fs.all_words(), back) == factor_language(plain, MAX_LEN).all_words()
    forward = {b: a for a, b in back.items()}
    words = [()]
    for n in range(4):      # every word over the language letters up to length 4
        words += [word + (a,) for word in words if len(word) == n for a in forward]
    for word in words:
        coded_word = tuple(forward[a] for a in word)
        assert contains(coded, coded_word) == contains(plain, word)
        assert (coded_word in fs) == (word in factor_language(plain, MAX_LEN))


def test_interpretations_agree_up_to_renaming(pair):
    plain, coded, back = pair
    for word in factor_language(coded, 6).all_words()[1:]:
        assert _rename(minimal_interpretations(coded, word), back) == \
            minimal_interpretations(plain, _rename(word, back))


def test_searches_and_detector_agree_up_to_renaming(pair, monkeypatch):
    plain, coded, back = pair
    assert _rename(weak_threshold(coded, CUTOFF), back) == weak_threshold(plain, CUTOFF)
    # the strong search runs the detector at the default period bound, which
    # is 3^301 for the 300-letter systems; the search is the same at 64
    monkeypatch.setattr(df0l.repetitiveness, "default_period_bound",
                        lambda system: PERIOD_BOUND)
    assert _rename(strong_threshold(coded, CUTOFF), back) == \
        strong_threshold(plain, CUTOFF)
    assert _rename(_level_search(coded, CUTOFF, "strong"), back) == \
        _level_search(plain, CUTOFF, "strong")
    verdict = detect_unbounded_repetitive(coded, PERIOD_BOUND)
    assert _rename(verdict, back) == detect_unbounded_repetitive(plain, PERIOD_BOUND)


def test_unknown_tokens_are_not_members(pair):
    _, coded, _ = pair
    fs = factor_language(coded, MAX_LEN)
    for word in [("zz",), ("a1", "zz"), ("",), (chr(0),) * 2, ("\x02",), (chr(299),)]:
        if all(a in coded.alphabet for a in word):
            continue
        assert word not in fs
        with pytest.raises(InvalidSystemError, match="unknown letter"):
            contains(coded, word)


def test_factor_set_words_is_a_view(thue_morse):
    """A cold Thue-Morse language at L = 150 holds under 12 MiB, and going
    over its words decodes one at a time instead of copying the language."""
    clear_language_cache()
    tracemalloc.start()
    try:
        fs = factor_language(thue_morse, 150)
        held, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        count = sum(1 for _ in fs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == len(fs) == 35_125
    assert held < 12 * 2**20
    assert peak - held < 2 * 2**20
    small = factor_language(thue_morse, 5)
    assert small == frozenset(small.all_words())
    assert frozenset(small.all_words()) == small
    assert small <= fs and not fs <= small
    assert fs - small == frozenset(w for w in fs.all_words() if len(w) > 5)
    # the factor set is itself that set, equal to and hashed like a frozenset
    assert isinstance(fs, collections.abc.Set) and fs.words is fs
    assert hash(small) == hash(frozenset(small.all_words()))
    # and it holds what that frozenset holds: only tuples are words, so a
    # str is not read as a word of one-letter tokens
    tm3 = factor_language(thue_morse, 3)
    as_frozenset = frozenset(tm3.all_words())
    for probe in [("a", "b"), (), "ab", "a", "", 5, None]:
        assert (probe in tm3) == (probe in as_frozenset), probe
    assert ("a", "b") in tm3 and () in tm3
    assert "ab" not in tm3 and 5 not in tm3
    assert ["a", "b"] not in tm3    # unhashable, which the frozenset refuses
    assert type(fs | small) is frozenset


ENCODE_ALPHABETS = {
    "one-character": ("a", "b", "c"),
    "multi-character": ("a1", "a2", "bb"),
    # the token ab is the join of two letters, so ("a", "b") and ("ab",)
    # are two words
    "mixed": ("a", "b", "ab", "x1"),
    "control-character": ("\x01", "\x00", "\x7f", "\x1b"),
    # two-byte, three-byte and astral characters
    "non-ASCII": ("α", "€", "𝔞", "b"),
    # the last three codes pass U+00FF
    "300 letters": FILLERS + ("α", "β", "γ"),
}
# ("ab", "") and ("", "a", "bb") join to the spelling of a word of
# one-character letters, and the spaced join of ("ab", "") has 2n - 1
# characters
MALFORMED = [("ab", ""), ("", "a", "bb"), (" ",), ("a", 5), ("a", None), ("a", ["b"])]
JUNK = ["", " ", "zz", "a b", "ab", "\x02", "Ā", "𝔟", 5, None, ("a",), ["b"]]


def _outcome(call, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return call(*args)
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", sorted(ENCODE_ALPHABETS))
def test_encode_matches_the_token_by_token_oracle(name):
    """Alphabet.encode, contains and FactorSet membership give, on every
    probe, the code of the token-by-token oracle or its exception, with the
    same type and message."""
    letters = ENCODE_ALPHABETS[name]
    rng = random.Random(f"encode {name}")
    images = {a: tuple(rng.choice(letters) for _ in range(rng.randint(1, 2))) for a in letters}
    system = DF0LSystem(Morphism(Alphabet(letters), images),
                        [(rng.choice(letters), rng.choice(letters))])
    alphabet = system.alphabet
    fs = factor_language(system, 6)
    language = frozenset(fs.all_words())
    probes = MALFORMED + fs.all_words()[:200]
    for _ in range(400):
        word = [rng.choice(letters) for _ in range(rng.randint(1, 6))]
        if rng.random() < 0.5:
            word[rng.randrange(len(word))] = rng.choice(JUNK)
        probes.append(tuple(word))
    for word in probes:
        expected = _outcome(encoded, alphabet, word)
        assert _outcome(alphabet.encode, word) == expected, word
        if isinstance(expected, str):
            member = alphabet.decode(expected) in language
            assert contains(system, word) is member, word
            assert (word in fs) is member, word
        else:
            assert _outcome(contains, system, word) == expected, word
            if expected[0] is InvalidSystemError:
                assert word not in fs, word
            else:
                assert _outcome(fs.__contains__, word) == expected, word


def test_malformed_words_raise_as_token_by_token():
    """Each malformed word raises naming its first element that is no
    letter, in word order; an unhashable element raises TypeError."""
    alphabet = Alphabet(("a", "b", "c"))
    for word, message in [(("ab", ""), "unknown letter 'ab'"),
                          (("", "a", "bb"), "unknown letter ''"),
                          ((" ",), "unknown letter ' '"),
                          (("a", 5), "unknown letter 5"),
                          (("a", None), "unknown letter None")]:
        with pytest.raises(InvalidSystemError, match=re.escape(message)):
            alphabet.encode(word)
    with pytest.raises(TypeError, match="unhashable"):
        alphabet.encode(("a", ["b"]))
