import itertools
import os
import random
import sys
import threading

import pytest

from df0l import (Alphabet, DF0LSystem, ErasingMorphismError, Morphism,
                  clear_language_cache, contains, factor_language, factors,
                  format_word, parse_system, power_system)

from conftest import random_pdf0l, sys1, w

SAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, "samples")


def unrolled_language(system, max_len, quiet_rounds=None, length_cap=300_000):
    """Brute-force oracle: accumulate factors of iterated axiom images until
    the set stops changing for a window of rounds.

    Returns (words, complete).  The set is complete only when the quiet
    window was reached without hitting the length cap: bounded letters can
    pile up runs linearly while the host word grows geometrically, so a
    capped unrolling may stop before slow factors develop.
    """
    if quiet_rounds is None:
        quiet_rounds = 2 * len(system.alphabet) + 4
    phi = system.morphism
    seen = set()
    words = list(system.axioms)
    quiet = 0
    while quiet < quiet_rounds:
        added = False
        for word in words:
            for f in factors(word, max_len):
                if f not in seen:
                    seen.add(f)
                    added = True
        quiet = 0 if added else quiet + 1
        words = [phi.apply(word) for word in words]
        if any(len(word) > length_cap for word in words):
            return seen, False
    return seen, True


def unverified_by_unrolling(system, words, max_level=40, length_cap=5_000_000):
    """Independently confirm words occur in iterated axiom images by direct
    containment; returns whichever words the budget could not confirm."""
    sep = "\x00"
    remaining = {v: sep + sep.join(v) + sep for v in words}
    phi = system.morphism
    for axiom in system.axioms:
        if not remaining:
            break
        current = axiom
        for _ in range(max_level):
            text = sep + sep.join(current) + sep
            for v in [v for v, pattern in remaining.items() if pattern in text]:
                del remaining[v]
            if not remaining or len(current) > length_cap:
                break
            current = phi.apply(current)
    return set(remaining)


def test_thue_morse_language_matches_listing(thue_morse):
    listed = [w(x) for x in
              ["", "a", "b", "aa", "ab", "ba", "bb",
               "aab", "aba", "abb", "baa", "bab", "bba"]]
    fs = factor_language(thue_morse, 3)
    assert fs.all_words() == sorted(listed, key=thue_morse.alphabet.word_key)
    assert w("aaa") not in fs and w("bbb") not in fs
    fs4 = factor_language(thue_morse, 4)
    assert w("aaba") in fs4 and w("aabb") in fs4


def test_wrong_power_loses_factors(two_fixed):
    wrong = DF0LSystem(two_fixed.morphism.power(2), [w("b")])
    assert not contains(wrong, w("ad"))
    assert contains(two_fixed, w("ad"))
    assert contains(power_system(two_fixed, 2), w("ad"))


def test_zero_bound_language(thue_morse):
    assert factor_language(thue_morse, 0).words == {()}


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


def test_factor_set_is_factor_closed_and_saturated(thue_morse, collapse_bounded,
                                                   repetitive_square):
    for system in (thue_morse, collapse_bounded, repetitive_square):
        max_len = 6
        fs = factor_language(system, max_len)
        phi = system.morphism
        for v in fs.all_words():
            assert factors(v, max_len) <= fs.words
            assert factors(phi.apply(v), max_len) <= fs.words
        for axiom in system.axioms:
            assert factors(axiom, max_len) <= fs.words


def test_restriction_is_consistent(collapse_bounded):
    big = factor_language(collapse_bounded, 8)
    small = factor_language(collapse_bounded, 3)
    assert small.words == {v for v in big.words if len(v) <= 3}


def test_power_language_equality(thue_morse, two_fixed, collapse_bounded):
    for system in (thue_morse, two_fixed, collapse_bounded):
        base = factor_language(system, 10).words
        for k in (2, 3):
            assert factor_language(power_system(system, k), 10).words == base


def assert_matches_unrolling(system, max_len):
    """Oracle comparison: exact when the unrolling is complete; otherwise the
    unrolling must be a subset and every extra word must be independently
    confirmed by direct containment in a deeper iterate."""
    mine = factor_language(system, max_len).words
    oracle, complete = unrolled_language(system, max_len)
    assert oracle <= mine, sorted(map(format_word, oracle - mine))[:5]
    if complete:
        assert mine == oracle, sorted(map(format_word, mine - oracle))[:5]
    else:
        assert not unverified_by_unrolling(system, mine - oracle)
    return complete


def test_language_matches_unrolling_oracle(thue_morse, collapse_bounded,
                                           collapse_unbounded, two_fixed,
                                           repetitive_square):
    for system in (thue_morse, collapse_bounded, collapse_unbounded,
                   two_fixed, repetitive_square):
        for max_len in (0, 1, 4, 6):
            assert_matches_unrolling(system, max_len)


def test_language_matches_unrolling_oracle_random():
    rng = random.Random(2024)
    complete_cases = 0
    for _ in range(60):
        system = random_pdf0l(rng, max_letters=3, max_image_len=3)
        complete_cases += assert_matches_unrolling(system, 5)
    assert complete_cases >= 40


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
    return fs.words, len(fs), fs.all_words()


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
            assert fs.words == {v for v in words if len(v) <= fs.max_len}
    assert _snapshot(factor_language(thue_morse, top)) == cold
