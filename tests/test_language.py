import gc
import itertools
import os
import random
import sys
import threading
import weakref

import pytest

from df0l import (Alphabet, DF0LSystem, ErasingMorphismError, Morphism,
                  clear_interpretation_cache, clear_language_cache, contains,
                  factor_language, minimal_interpretations,
                  parse_system, power_system, strong_threshold, weak_threshold)
import df0l.language
from df0l.language import _record

from conftest import random_pdf0l, sys1, w
from oracles import assert_matches_unrolling, canonical_key, factors, registration_levels

SAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, "samples")


def test_thue_morse_language_matches_listing(thue_morse):
    listed = [w(x) for x in
              ["", "a", "b", "aa", "ab", "ba", "bb",
               "aab", "aba", "abb", "baa", "bab", "bba"]]
    fs = factor_language(thue_morse, 3)
    assert fs.all_words() == sorted(listed, key=canonical_key(thue_morse.alphabet))
    assert w("aaa") not in fs and w("bbb") not in fs
    assert repr(fs) == "FactorSet(max_len=3, words=13)"
    fs4 = factor_language(thue_morse, 4)
    assert w("aaba") in fs4 and w("aabb") in fs4


def test_wrong_power_loses_factors(two_fixed):
    wrong = DF0LSystem(two_fixed.morphism.power(2), [w("b")])
    assert not contains(wrong, w("ad"))
    assert contains(two_fixed, w("ad"))
    assert contains(power_system(two_fixed, 2), w("ad"))


def test_zero_bound_language(thue_morse):
    assert factor_language(thue_morse, 0) == {()}


def test_contains_basics(thue_morse):
    assert contains(thue_morse, w("a"))          # the axiom itself
    assert contains(thue_morse, ())
    assert not contains(thue_morse, w("aaa"))
    assert contains(thue_morse, w("abba"))


def test_erasing_refused():
    erasing = sys1("ab", {"a": "ab", "b": ""}, ["a"])
    with pytest.raises(ErasingMorphismError):
        factor_language(erasing, 2)
    with pytest.raises(ErasingMorphismError):
        contains(erasing, w("a"))


def test_contains_matches_the_levels_on_random_systems():
    """Cold membership of every word up to length 6, asked in a shuffled
    order, so that some words are looked up in a built level and others are
    parsed (a word longer than the built levels, over images of length >= 2,
    reads fewer levels than its own length); every answer agrees with the
    levels."""
    rng = random.Random(53)
    branches = {"lookup": 0, "parse": 0}
    long_images = 0
    for _ in range(60):
        system = random_pdf0l(rng, max_letters=3, max_image_len=3)
        long_images += system.morphism.min_image_len >= 2
        letters = system.alphabet.letters
        words = [v for n in range(7) for v in itertools.product(letters, repeat=n)]
        rng.shuffle(words)
        clear_language_cache()
        got = {}
        for v in words:
            built = len(_record(system, 0).levels)
            branches["lookup" if len(v) < built else "parse"] += 1
            got[v] = contains(system, v)
        language = factor_language(system, 6)
        assert got == {v: v in language for v in words}, system
    assert long_images >= 10
    assert min(branches.values()) > 1000, branches


def test_cold_contains_grows_levels_only_to_the_length_bound():
    """Membership of the 400-letter Thue-Morse prefix comes from its parse,
    which reads levels up to hi = 2 + 398 // 2 = 201 only."""
    system = sys1("ab", {"a": "ab", "b": "ba"}, ["a"])
    u = w("".join("ab"[bin(i).count("1") % 2] for i in range(400)))
    clear_language_cache()
    assert contains(system, u)
    assert len(_record(system, 0).levels) <= 202


def test_factor_set_is_factor_closed_and_saturated(thue_morse, collapse_bounded,
                                                   repetitive_square):
    for system in (thue_morse, collapse_bounded, repetitive_square):
        max_len = 6
        fs = factor_language(system, max_len)
        phi = system.morphism
        for v in fs.all_words():
            assert factors(v, max_len) <= fs
            assert factors(phi.apply(v), max_len) <= fs
        for axiom in system.axioms:
            assert factors(axiom, max_len) <= fs


def test_restriction_is_consistent(collapse_bounded):
    big = factor_language(collapse_bounded, 8)
    small = factor_language(collapse_bounded, 3)
    assert small == {v for v in big if len(v) <= 3}


def test_power_language_equality(thue_morse, two_fixed, collapse_bounded):
    for system in (thue_morse, two_fixed, collapse_bounded):
        base = factor_language(system, 10)
        for k in (2, 3):
            assert factor_language(power_system(system, k), 10) == base


def test_language_matches_unrolling_oracle(thue_morse, collapse_bounded,
                                           collapse_unbounded, two_fixed,
                                           repetitive_square):
    for system in (thue_morse, collapse_bounded, collapse_unbounded,
                   two_fixed, repetitive_square):
        for max_len in (0, 1, 4, 6):
            assert_matches_unrolling(system, max_len)


def test_language_matches_unrolling_oracle_random():
    rng = random.Random(2024)
    for _ in range(60):
        system = random_pdf0l(rng, max_letters=3, max_image_len=3)
        assert_matches_unrolling(system, 5)


def _growth_systems():
    """The six samples, then every binary system with images of length 1-2
    and axiom a or b (72 systems)."""
    for name in sorted(os.listdir(SAMPLES)):
        with open(os.path.join(SAMPLES, name), encoding="utf-8") as handle:
            yield parse_system(handle.read())
    images = [image for n in (1, 2) for image in itertools.product("ab", repeat=n)]
    for image_a, image_b in itertools.product(images, repeat=2):
        morphism = Morphism(Alphabet(("a", "b")), {"a": image_a, "b": image_b})
        for axiom in ("a", "b"):
            yield DF0LSystem(morphism, [(axiom,)])


def _snapshot(fs):
    return fs, len(fs), fs.all_words()


def _cold(system, max_len):
    clear_language_cache()
    return _snapshot(factor_language(system, max_len))


def test_growth_order_does_not_change_the_language():
    """Growing to shuffled bounds, or building large and then asking for
    smaller bounds, gives every bound the slice a cold build gives; views
    taken early do not change while the language grows."""
    rng = random.Random(5)
    systems = list(_growth_systems())
    assert len(systems) == 6 + 72
    top = 9
    for system in systems:
        cold = [_cold(system, n) for n in range(top + 1)]
        clear_language_cache()
        bounds = list(range(top + 1))
        rng.shuffle(bounds)
        views = {n: factor_language(system, n) for n in bounds}
        for n in bounds:
            assert _snapshot(views[n]) == cold[n], (system, n)
        clear_language_cache()
        factor_language(system, top)
        for n in reversed(range(top + 1)):
            assert _snapshot(factor_language(system, n)) == cold[n], (system, n)


def test_concurrent_growth_matches_a_cold_build(thue_morse):
    """Four threads grow one language to shuffled bounds, switching threads
    as often as the interpreter allows; every view equals a cold build."""
    top = 40
    cold = _cold(thue_morse, top)
    clear_language_cache()
    start = threading.Barrier(4)
    results = [None] * 4
    errors = []

    def grow(index):
        bounds = list(range(1, top + 1))
        random.Random(index).shuffle(bounds)
        try:
            start.wait(timeout=60)
            results[index] = [factor_language(thue_morse, n) for n in bounds]
        except Exception as exc:       # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=grow, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    words = cold[0]
    for views in results:
        for fs in views:
            assert fs == {v for v in words if len(v) <= fs.max_len}
    assert _snapshot(factor_language(thue_morse, top)) == cold


def test_a_failed_level_build_leaves_no_trace(thue_morse, monkeypatch):
    """A level build that raises after it has taken its pending and
    registered words, as a MemoryError or a KeyboardInterrupt can, must not
    change a later answer: the language is then that of a cold build."""
    cold = _cold(thue_morse, 8)
    clear_language_cache()
    factor_language(thue_morse, 5)
    next_level = df0l.language._next_level

    def failing(system, n, record):
        next_level(system, n, record)
        raise MemoryError

    monkeypatch.setattr(df0l.language, "_next_level", failing)
    with pytest.raises(MemoryError):
        factor_language(thue_morse, 6)
    monkeypatch.setattr(df0l.language, "_next_level", next_level)
    assert _snapshot(factor_language(thue_morse, 8)) == cold
    assert _snapshot(factor_language(thue_morse, 5)) == _cold(thue_morse, 5)


class _WeakSystem(DF0LSystem):
    __slots__ = ("__weakref__",)


def test_clearing_the_cache_lets_go_of_the_system(repetitive_square):
    """Once clear_language_cache() has run, df0l holds no reference to a
    system it has answered queries about: its levels, interpretations and
    repetitiveness verdicts go with it."""
    clear_language_cache()
    clear_interpretation_cache()
    system = _WeakSystem(repetitive_square.morphism, repetitive_square.axioms)
    assert contains(system, w("bcbc"))
    assert minimal_interpretations(system, w("cbc"))
    assert weak_threshold(system, 4).found
    assert strong_threshold(system, 4).repetition.repetitive
    alive = weakref.ref(system)
    clear_language_cache()
    del system
    gc.collect()
    assert alive() is None


def _assert_levels(fs, reference, lengths):
    for n in lengths:
        assert set(fs.words_of_length(n)) == reference[n], (fs.system, n)


def _deep_systems():
    """The five systems of the deep_language benchmark."""
    for name in ("thue_morse", "collapse_unbounded_delta", "two_fixed_letters"):
        with open(os.path.join(SAMPLES, name + ".sys"), encoding="utf-8") as handle:
            yield parse_system(handle.read())
    yield sys1("ab", {"a": "ab", "b": "a"}, ["a"])      # Fibonacci
    yield sys1("ab", {"a": "ab", "b": "aa"}, ["a"])     # period doubling


def test_levels_match_the_registration_builder():
    """Every level equals the reference builder's: for 200 random systems
    built cold to 12, grown to shuffled bounds and grown by raises that land
    inside the pending window, and for the deep benchmark systems at 60."""
    rng = random.Random(11)
    top = 12
    for _ in range(200):
        letters = "abcd"[:rng.randint(2, 4)]
        rules = {a: "".join(rng.choice(letters) for _ in range(rng.randint(1, 5)))
                 for a in letters}
        axioms = ["".join(rng.choice(letters) for _ in range(rng.randint(1, 2)))
                  for _ in range(rng.randint(1, 2))]
        system = sys1(letters, rules, axioms)
        reference = registration_levels(system, top)
        clear_language_cache()
        _assert_levels(factor_language(system, top), reference, range(top + 1))
        clear_language_cache()
        bounds = list(range(top + 1))
        rng.shuffle(bounds)
        for bound in bounds:
            _assert_levels(factor_language(system, bound), reference, [bound])
        clear_language_cache()
        window = max(1, 2 * system.morphism.max_image_len - 2)
        bound = 0
        while bound < top:
            bound = min(top, bound + rng.randint(1, window))
            _assert_levels(factor_language(system, bound), reference, range(bound + 1))
    for system in _deep_systems():
        clear_language_cache()
        _assert_levels(factor_language(system, 60), registration_levels(system, 60),
                       range(61))


def _translations(build):
    """Run build() and count the str.translate calls per receiver."""
    counts = {}

    def hook(frame, event, arg):
        if event == "c_call" and getattr(arg, "__name__", None) == "translate":
            receiver = getattr(arg, "__self__", None)
            if isinstance(receiver, str):
                counts[receiver] = counts.get(receiver, 0) + 1

    sys.setprofile(hook)
    try:
        build()
    finally:
        sys.setprofile(None)
    return counts


@pytest.mark.parametrize("rules, top", [
    ({"a": "ab", "b": "ba"}, 60),
    ({"a": "abcda", "b": "cb", "c": "d", "d": "dab"}, 24),
])
def test_each_cover_image_is_built_once(rules, top):
    """Growing a language, in two raises, builds the image of each level
    word at most once and registers each word at most once; pending sets
    stay within 2 max|image(a)| - 2 lengths past the bound."""
    system = sys1("".join(rules), rules, ["a"])
    clear_language_cache()
    counts = _translations(lambda: [factor_language(system, top // 2),
                                    factor_language(system, top)])
    record = _record(system, top)
    words = set().union(*record.levels)
    assert counts and set(counts) <= words
    assert max(counts.values()) == 1
    registered = [x for xs in record.registered.values() for x in xs]
    assert len(registered) == len(set(registered))
    assert set(registered) <= words and not set(registered) & set(counts)
    window = 2 * system.morphism.max_image_len - 2
    assert record.pending
    assert all(top < k <= top + window and record.pending[k] for k in record.pending)
