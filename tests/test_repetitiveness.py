import itertools
import os
import random
import time
import tracemalloc

import pytest

from df0l import (Alphabet, DF0LSystem, Morphism, PreconditionError,
                  RepetitivenessVerdict, classify_letters, clear_language_cache,
                  contains, detect_unbounded_repetitive, default_period_bound,
                  factor_language, parse_system, render_system, strong_threshold)
from df0l.repetitiveness import _fixed_prefix, _recurs

from conftest import binary_census, random_pdf0l, sys1, w
from oracles import _naive_detect, is_primitive

SAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, "samples")


def fixed_point_prefix(system, letter, power, n):
    """The detector's `_fixed_prefix` on letter tokens: the first n letters
    of the fixed point of image^power at letter."""
    alphabet = system.alphabet
    phi = system.morphism.power(power)
    return alphabet.decode(_fixed_prefix(phi, alphabet.encode((letter,)), n))


def test_detect_repetitive_square(repetitive_square):
    verdict = detect_unbounded_repetitive(repetitive_square)
    assert verdict.repetitive
    assert verdict.letter == "b"
    assert verdict.power == 1
    assert verdict.witness == w("bc")
    assert verdict.exponent == 2


def test_verdict_self_checks(repetitive_square):
    verdict = detect_unbounded_repetitive(repetitive_square)
    system, phi = repetitive_square, repetitive_square.morphism
    u = verdict.witness
    assert u[0] == verdict.letter
    assert contains(system, (verdict.letter,))
    assert is_primitive(u)
    assert phi.apply_power(u, verdict.power) == u * verdict.exponent
    prefix = fixed_point_prefix(system, verdict.letter, verdict.power, 2 * len(u))
    assert prefix[:len(u)] == u
    for k in range(1, 5):
        assert contains(system, u * k)
    # the short primitive words with a fourth power in the language are the
    # witness and its rotation, and both contain an unbounded letter
    fourth = [v for v in factor_language(system, 2).all_words()
              if v and is_primitive(v) and contains(system, v * 4)]
    assert fourth == [w("bc"), w("cb")]
    unbounded = set(classify_letters(phi).unbounded)
    assert all(unbounded.intersection(v) for v in fourth)


def test_detect_negative_thue_morse(thue_morse):
    verdict = detect_unbounded_repetitive(thue_morse, 64)
    assert not verdict.repetitive
    assert verdict.period_bound == 64
    assert verdict.power_bound == 2
    # the language is cube-free: no v^3 with 1 <= |v| <= 4 is a factor
    assert not any(contains(thue_morse, v * 3)
                   for v in factor_language(thue_morse, 4).all_words() if v)


def test_detect_negative_collapse(collapse_bounded):
    # consistent with the strong threshold existing for this system
    assert not detect_unbounded_repetitive(collapse_bounded).repetitive


def test_default_period_bound(thue_morse, collapse_bounded):
    assert default_period_bound(thue_morse) == 64
    assert default_period_bound(collapse_bounded) == 5 ** 4


def test_fixed_point_prefix(thue_morse, repetitive_square):
    assert fixed_point_prefix(thue_morse, "a", 1, 8) == w("abbabaab")
    assert fixed_point_prefix(repetitive_square, "b", 1, 6) == w("bcbcbc")
    assert fixed_point_prefix(thue_morse, "a", 1, 1) == w("a")


def test_fixed_point_prefix_grows_consistently(repetitive_square):
    short = fixed_point_prefix(repetitive_square, "a", 1, 10)
    long = fixed_point_prefix(repetitive_square, "a", 1, 30)
    assert long[:10] == short


def test_fixed_point_period_maps_to_exact_power(repetitive_square):
    """A primitive word tiling a long enough fixed-point prefix is mapped to
    an exact power of itself."""
    system = repetitive_square
    phi = system.morphism
    witness = w("bc")
    span = 3 * len(witness) * phi.max_image_len
    prefix = fixed_point_prefix(system, "b", 1, span)
    assert prefix == witness * (span // len(witness))
    image = phi.apply(witness)
    assert image == witness * (len(image) // len(witness))


def test_detect_needs_second_power():
    # the fixed point only appears through the square of the morphism
    system = sys1("ab", {"a": "bb", "b": "aa"}, ["a"])
    verdict = detect_unbounded_repetitive(system, 16)
    assert verdict.repetitive
    assert verdict.power == 2
    assert verdict.witness == w("a")
    assert verdict.exponent == 4


def test_one_verdict_per_system_and_period_bound(repetitive_square):
    """The repetitive command and the strong search share one verdict per
    system and period bound, also across equal copies of the system; another
    bound gets its own verdict, and clearing the cache drops them."""
    clear_language_cache()
    verdict = detect_unbounded_repetitive(repetitive_square)
    assert strong_threshold(repetitive_square, 4).repetition is verdict
    copy = parse_system(render_system(repetitive_square))
    bound = default_period_bound(repetitive_square)
    assert detect_unbounded_repetitive(copy, bound) is verdict
    other = detect_unbounded_repetitive(repetitive_square, 8)
    assert other is not verdict and other.period_bound == 8 and other.repetitive
    clear_language_cache()
    again = detect_unbounded_repetitive(repetitive_square)
    assert again is not verdict and again == verdict


def test_repetitions_of_bounded_letters_do_not_count():
    """Unbounded repetitiveness means repetitions u^k, for every k, where u
    contains an unbounded letter.  In two_fixed_letters c -> c is bounded:
    c^k is in the language for every k tried, yet the detector finds no
    witness and the strong threshold is 1."""
    with open(os.path.join(SAMPLES, "two_fixed_letters.sys"), encoding="utf-8") as handle:
        system = parse_system(handle.read())
    assert all(contains(system, ("c",) * k) for k in range(1, 25))
    assert not detect_unbounded_repetitive(system).repetitive
    report = strong_threshold(system, 10)
    assert report.found and report.threshold == 1


def test_erasing_refused():
    erasing = sys1("ab", {"a": "ab", "b": ""}, ["a"])
    with pytest.raises(PreconditionError):
        detect_unbounded_repetitive(erasing)


def _checked_naive_detect(system, period_bound):
    """The naive reference, with the detector's `_fixed_prefix` checked
    against the iterate on every (letter, power) pair the reference scans."""
    scanned = []
    verdict = _naive_detect(system, period_bound, scanned)
    for letter, power, prefix in scanned:
        assert fixed_point_prefix(system, letter, power, period_bound) == prefix, system
    return verdict


def test_detector_matches_naive_reference():
    """Every verdict field equals the naive reference, at the default period
    bound and at bounds 7 and 30, on the 392 binary census systems and a
    seeded slice of random 3- and 4-letter systems."""
    rng = random.Random(717)
    systems = list(binary_census())
    while len(systems) < 392 + 300:
        system = random_pdf0l(rng)
        if len(system.alphabet) >= 3:
            systems.append(system)
    certified = 0
    for system in systems:
        for bound in (default_period_bound(system), 7, 30):
            verdict = detect_unbounded_repetitive(system, bound)
            assert verdict == _checked_naive_detect(system, bound), (system, bound)
            certified += verdict.repetitive
    assert certified == 576


def test_detector_at_period_bound_one():
    """At period bound 1 only one-letter witnesses can be found: every
    verdict field equals the naive reference on the 392 binary census
    systems, and 116 of them are certified."""
    verdicts = [detect_unbounded_repetitive(system, 1) for system in binary_census()]
    assert verdicts == [_checked_naive_detect(system, 1) for system in binary_census()]
    assert sum(verdict.repetitive for verdict in verdicts) == 116


def test_detector_reads_letter_images_at_their_offsets():
    """a -> b c a, b -> b, c -> c a b b: image(c a b b b) = (c a b b b)^2,
    and the images of the witness's letters start at offsets 0, 4, 2, 3
    and 4 of the witness repeated, so a walk that misplaces them loses the
    certificate."""
    system = sys1("abc", {"a": "bca", "b": "b", "c": "cabb"}, ["a"])
    verdict = detect_unbounded_repetitive(system)
    assert verdict == RepetitivenessVerdict(True, "c", 1, w("cabbb"), 2, 256, 3)
    assert verdict == _checked_naive_detect(system, 256)


def test_detector_finds_a_witness_whose_window_is_cut_short():
    """a -> a a b1, b1 -> a a b2, b2 -> a a b2: the witness has 9 letters.
    The scan tries only the m whose 16-letter window matches the prefix's,
    found by str.find, and then the last 16 positions, where the window is
    cut short; at period bounds 9 to 24, m = 9 is one of those."""
    system = DF0LSystem(Morphism(Alphabet(("a", "b1", "b2")),
                                 {"a": ("a", "a", "b1"), "b1": ("a", "a", "b2"),
                                  "b2": ("a", "a", "b2")}), [("a",)])
    witness = ("a", "a", "b1") * 2 + ("a", "a", "b2")
    for bound in (4, 8, 9, 16, 24, 25, 64):
        verdict = detect_unbounded_repetitive(system, bound)
        assert verdict == _checked_naive_detect(system, bound), bound
        assert verdict.witness == (witness if bound >= 9 else None), bound


def test_detector_on_a_slowly_growing_fixed_point():
    """a -> a c, c -> c: the fixed point a c c c ... grows by one letter per
    image, and no prefix is mapped to a power of itself."""
    system = sys1("ac", {"a": "ac", "c": "c"}, ["a"])
    assert not detect_unbounded_repetitive(system, 4096).repetitive
    assert fixed_point_prefix(system, "a", 2, 4096) == w("a") + w("c") * 4095


def _cycle_length(system, letter):
    """The least l >= 1 with image^l(letter) starting with letter, or None."""
    phi = system.morphism
    for ell in range(1, len(system.alphabet) + 1):
        if phi.apply_power((letter,), ell)[0] == letter:
            return ell
    return None


def test_detector_matches_naive_reference_on_longer_cycles():
    """Five-letter systems with a language letter on a first-letter cycle
    of length >= 3: every verdict field equals the naive reference, which
    tries every power up to the alphabet size, and a certificate's power is
    the cycle length of its letter."""
    rng = random.Random(10)
    systems = []
    while len(systems) < 100:
        images = {a: "".join(rng.choice("abcde") for _ in range(rng.randint(1, 3)))
                  for a in "abcde"}
        axiom = "".join(rng.choice("abcde") for _ in range(rng.randint(1, 2)))
        system = sys1("abcde", images, [axiom])
        if any((_cycle_length(system, a) or 0) >= 3 and contains(system, (a,))
               for a in "abcde"):
            systems.append(system)
    powers = []
    for system in systems:
        for bound in (7, 30):
            verdict = detect_unbounded_repetitive(system, bound)
            assert verdict == _checked_naive_detect(system, bound), (system, bound)
            if verdict.repetitive:
                assert verdict.power == _cycle_length(system, verdict.letter)
                powers.append(verdict.power)
    assert sorted(powers) == [1] * 6 + [3] * 10 + [4] * 2


def _chain(n, images):
    letters = tuple(f"x{i}" for i in range(n))
    return DF0LSystem(Morphism(Alphabet(letters), images(letters)), [(letters[0],)])


def test_detector_on_a_long_cyclic_permutation():
    """x_i -> x_(i+1 mod 400): every letter is on one cycle of length 400,
    but no image is longer than one letter, so no power of the morphism
    grows and there is no witness.  The detector must not build the
    morphism's powers one by one up to the alphabet size to say so."""
    system = _chain(400, lambda xs: {a: (xs[(i + 1) % len(xs)],)
                                     for i, a in enumerate(xs)})
    start = time.perf_counter()
    verdict = detect_unbounded_repetitive(system, 64)
    assert time.perf_counter() - start < 2.0
    assert verdict == RepetitivenessVerdict(False, None, None, None, None, 64, 400)


def test_detector_on_one_growing_letter_among_fixed_ones():
    """x0 -> x0 x1, every other letter fixed, at the default period bound
    2^19: the fixed point x0 x1 x1 ... has no periodic prefix, and the
    fixed letters are bounded."""
    system = _chain(18, lambda xs: {a: (a, "x1") if a == "x0" else (a,) for a in xs})
    assert default_period_bound(system) == 2 ** 19
    assert detect_unbounded_repetitive(system) == RepetitivenessVerdict(
        False, None, None, None, None, 2 ** 19, 18)


def test_detector_skips_a_letter_that_does_not_recur():
    """x0 -> x0 x1 over 30 letters: the default period bound is 2^31, but
    x0 is not reachable from x1, so x0 never occurs again in its fixed point
    x0 x1 x1 ..., which cannot be periodic; the answer is exact without
    building a prefix."""
    system = _chain(30, lambda xs: {a: (a, "x1") if a == "x0" else (a,) for a in xs})
    tracemalloc.start()
    try:
        verdict = detect_unbounded_repetitive(system)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict == RepetitivenessVerdict(False, None, None, None, None, 2 ** 31, 30)
    assert peak < 2**20


def test_detector_prefix_grows_within_the_period_bound():
    """x_i -> x_(i+1) x_(i+1), indices mod 12: image^12(x0) = x0^4096 and the
    default period bound is 2^13.  The prefix grows by as many letters at a
    time as their images fit in the letters still missing, so it stops at
    2^13 letters; one batch of 4 096 letters, each imaged to 4 096, would
    take about 145 MiB."""
    system = _chain(12, lambda xs: {a: (xs[(i + 1) % len(xs)],) * 2
                                    for i, a in enumerate(xs)})
    clear_language_cache()
    tracemalloc.start()
    try:
        verdict = detect_unbounded_repetitive(system)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict == RepetitivenessVerdict(True, "x0", 12, ("x0",), 4096, 2 ** 13, 12)
    assert peak < 8 * 2**20


def test_detector_power_holds_code_strings_only():
    """x_i -> x_(i+1) x_(i+1), indices mod 18: image^18(x0) = x0^262144, and
    image^18 has 18 images of 2^18 letters each.  As code strings, one code
    point per letter, they take 4.5 MiB and the scan peaks near 13 MiB; as
    tuples of letter tokens, 8 bytes per letter and encoded again into
    code strings, the peak passes 80 MiB."""
    system = _chain(18, lambda xs: {a: (xs[(i + 1) % len(xs)],) * 2
                                    for i, a in enumerate(xs)})
    clear_language_cache()
    tracemalloc.start()
    try:
        verdict = detect_unbounded_repetitive(system)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (verdict.letter, verdict.power, verdict.witness, verdict.exponent) == \
        ("x0", 18, ("x0",), 2 ** 18)
    assert peak < 24 * 2**20


def test_detector_follows_recurrence_through_several_letters():
    """a -> c, b -> b a, c -> b a c, axiom c: b recurs in its fixed point
    b a c b a c ... only through a -> c -> b a c, two steps past the rest
    of image(b), so the reachability walk must go on from the letters it
    has just reached."""
    system = sys1("abc", {"a": "c", "b": "ba", "c": "bac"}, ["c"])
    for period_bound in (64, None):
        verdict = detect_unbounded_repetitive(system, period_bound)
        assert (verdict.letter, verdict.power, verdict.witness, verdict.exponent) == \
            ("b", 1, w("bac"), 2)


def test_detector_builds_no_power_for_a_long_non_growing_cycle():
    """a -> a a b, b -> c0 -> ... -> c19 -> b, axiom a, at period bound 64:
    b's first-letter cycle has 21 letters, all with one-letter images, so
    image^21 cannot grow b and is not built; image^21(a) alone has over
    2^21 letters.  The fixed point of a is not periodic, so there is no
    witness."""
    cycle = [f"c{i}" for i in range(20)]
    letters = ("a", "b", *cycle)
    images = {"a": ("a", "a", "b"), "b": ("c0",), "c19": ("b",)}
    images.update({c: (d,) for c, d in zip(cycle, cycle[1:])})
    system = DF0LSystem(Morphism(Alphabet(letters), images), [("a",)])
    clear_language_cache()
    tracemalloc.start()
    try:
        verdict = detect_unbounded_repetitive(system, 64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict == RepetitivenessVerdict(False, None, None, None, None, 64, 22)
    assert peak < 2**20


def test_detector_builds_no_power_for_a_letter_that_does_not_recur(monkeypatch):
    """a0 -> a1 b, a_i -> a_(i+1), a19 -> a0, b -> b b, axiom a0, at period
    bound 64: the first-letter cycle of every a_i has 20 letters and grows,
    but the rest of its fixed point is b b b ..., so no a_i recurs (fact 3)
    and image^20, whose image of a0 has over 2^19 letters, is not built.
    The witness is b, from image^1."""
    chain = [f"a{i}" for i in range(20)]
    images = {a: (c,) for a, c in zip(chain, chain[1:] + chain[:1])}
    images.update({"a0": ("a1", "b"), "b": ("b", "b")})
    system = DF0LSystem(Morphism(Alphabet((*chain, "b")), images), [("a0",)])
    built = []
    power = Morphism.power

    def recorded(phi, k):
        built.append(k)
        return power(phi, k)
    monkeypatch.setattr(Morphism, "power", recorded)
    clear_language_cache()
    tracemalloc.start()
    try:
        verdict = detect_unbounded_repetitive(system, 64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict == RepetitivenessVerdict(True, "b", 1, ("b",), 2, 64, 21)
    assert built == [1]
    assert peak < 2**20


def _recurs_in_power(phi, a, c):
    """Fact 3 decided on image^c itself, the reference for `_recurs`: the
    cycle of a grows, and a is reachable from the letters of image^c(a)[1:]
    in the letter graph of image^c (an edge from b to each letter of
    image^c(b))."""
    b, grows = a, False
    for _ in range(c):
        grows = grows or len(phi.image_codes[b]) > 1
        b = phi.image_codes[b][0]
    if not grows:
        return False
    images = phi.power(c).image_codes
    reached = set(images[a][1:])
    todo = list(reached)
    while todo:
        new = set(images[todo.pop()]) - reached
        reached |= new
        todo.extend(new)
    return a in reached


def _morphisms(letters, lengths):
    images = [image for n in lengths for image in itertools.product(letters, repeat=n)]
    for chosen in itertools.product(images, repeat=len(letters)):
        yield Morphism(Alphabet(tuple(letters)), dict(zip(letters, chosen)))


def test_recurrence_from_letter_sets_matches_image_power():
    """`_recurs` grows the letter set of image^(ck)(a)[1:] from the images
    of the morphism alone (fact 3); it agrees with the reachability walk in
    the letter graph of image^c on every letter whose first-letter walk
    returns, over every binary morphism with images of length 1-3, every
    ternary one with images of length 1-2 and seeded random ones with 2-7
    letters."""
    rng = random.Random(31)
    morphisms = [*_morphisms("ab", (1, 2, 3)), *_morphisms("abc", (1, 2))]
    for _ in range(2000):
        letters = "abcdefg"[:rng.randint(2, 7)]
        images = {a: tuple(rng.choices(letters, k=rng.randint(1, 3))) for a in letters}
        morphisms.append(Morphism(Alphabet(tuple(letters)), images))
    cases = recurring = 0
    for phi in morphisms:
        images = phi.image_codes
        for a in images:
            b = a
            for c in range(1, len(images) + 1):
                b = images[b][0]
                if b == a:
                    break
            if b != a:
                continue
            cases += 1
            recurs = _recurs(images, a, c)
            assert recurs == _recurs_in_power(phi, a, c), (phi.image_codes, a, c)
            recurring += recurs
    assert (cases, recurring) == (8227, 6215)
