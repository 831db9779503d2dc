import os
import random

import pytest

from df0l import (PreconditionError, RepetitivenessVerdict, clear_language_cache,
                  contains, detect_unbounded_repetitive, default_period_bound,
                  factor_language, find_power_in_preimage, fixed_point_prefix,
                  is_conjugate, is_primitive, lift_repetition, occurrences,
                  omega_candidates, parse_system, primitive_root,
                  render_system, strong_threshold)

from conftest import binary_census, random_pdf0l, sys1, w

SAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, "samples")


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


def test_detect_negative_thue_morse(thue_morse):
    verdict = detect_unbounded_repetitive(thue_morse, 64)
    assert not verdict.repetitive
    assert verdict.period_bound == 64
    assert verdict.power_bound == 2


def test_detect_negative_collapse(collapse_bounded):
    # consistent with the strong threshold existing for this system
    assert not detect_unbounded_repetitive(collapse_bounded).repetitive


def test_default_period_bound(thue_morse, collapse_bounded):
    assert default_period_bound(thue_morse) == 64
    assert default_period_bound(collapse_bounded) == 5 ** 4


def test_fixed_point_prefix(thue_morse, repetitive_square, collapse_bounded):
    assert fixed_point_prefix(thue_morse, "a", 1, 8) == w("abbabaab")
    assert fixed_point_prefix(repetitive_square, "b", 1, 6) == w("bcbcbc")
    assert fixed_point_prefix(thue_morse, "a", 1, 1) == w("a")
    with pytest.raises(PreconditionError):
        fixed_point_prefix(collapse_bounded, "b", 1, 4)  # image(b) starts with a


def test_fixed_point_prefix_grows_consistently(repetitive_square):
    short = fixed_point_prefix(repetitive_square, "a", 1, 10)
    long = fixed_point_prefix(repetitive_square, "a", 1, 30)
    assert long[:10] == short


def test_omega_candidates(repetitive_square, thue_morse):
    found = omega_candidates(repetitive_square, 2, 4)
    assert [c.word for c in found] == [w("bc"), w("cb")]
    assert all(c.unbounded for c in found)

    assert omega_candidates(thue_morse, 4, 3) == []  # cube-free language
    singles = omega_candidates(thue_morse, 1, 1)
    assert [c.word for c in singles] == [w("a"), w("b")]


def test_omega_candidate_powers_are_members(repetitive_square):
    for cand in omega_candidates(repetitive_square, 3, 3):
        assert contains(repetitive_square, cand.word * cand.verified_power)


def test_omega_candidates_closed_under_rotation(repetitive_square):
    # a rotation of v satisfies v'^(K-1) inside v^K, so it reappears one
    # power lower; membership in the limit set is rotation-invariant
    strong = {c.word for c in omega_candidates(repetitive_square, 2, 4)}
    weaker = {c.word for c in omega_candidates(repetitive_square, 2, 3)}
    for v in strong:
        for cut in range(len(v)):
            assert v[cut:] + v[:cut] in weaker


def test_find_power_identity_case():
    images = {"a": ("a",), "b": ("b",)}
    root, exponent = find_power_in_preimage(images, w("ababababab"), w("ab"), 2)
    assert root == w("ab") and exponent >= 2


def test_find_power_noninjective_rejected():
    images = {"x": ("a", "b"), "y": ("a", "b")}
    with pytest.raises(PreconditionError):
        find_power_in_preimage(images, ("x", "y", "x"), w("ab"), 2)


def test_find_power_through_letter_map():
    images = {"x": ("a", "b", "a", "b")}
    root, exponent = find_power_in_preimage(images, ("x", "x", "x"), w("ab"), 2)
    assert root == ("x",) and exponent >= 2
    image_root = primitive_root(("a", "b") * 2)[0]
    assert is_conjugate(image_root, w("ab"))


def test_find_power_postconditions():
    # x lands off-phase so that the map is injective on factors of z
    images = {"x": ("a",), "y": ("b", "a")}
    z = ("x", "y", "y", "y", "y")
    root, exponent = find_power_in_preimage(images, z, w("ab"), 3)
    assert root == ("y",) and exponent >= 3
    assert occurrences(root * exponent, z)
    mapped = []
    for letter in root:
        mapped.extend(images[letter])
    assert is_conjugate(primitive_root(tuple(mapped))[0], w("ab"))


def test_find_power_rejects_bad_inputs():
    images = {"a": ("a",)}
    with pytest.raises(PreconditionError):
        find_power_in_preimage(images, ("a", "a"), w("aa"), 2)  # v not primitive
    with pytest.raises(PreconditionError):
        find_power_in_preimage({"a": ("b",)}, ("a",), w("a"), 2)  # not a factor


def test_lift_repetition(repetitive_square, thue_morse):
    assert lift_repetition(repetitive_square, w("bc"), 4) == w("bc")
    lifted = lift_repetition(repetitive_square, w("cb"), 4)
    assert lifted is not None
    root = primitive_root(repetitive_square.morphism.apply(lifted))[0]
    assert is_conjugate(root, w("cb"))
    assert lift_repetition(thue_morse, w("ab"), 6) is None


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
    assert strong_threshold(copy, 4, period_bound=8).repetition is other
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


def _naive_detect(system, period_bound):
    """The detector by its definition: the fixed-point prefix by iterating
    the power, then image^l(u) = u^n, n >= 2, for each prefix u in order,
    with image^l(u) grown one letter image at a time.  Also checks
    fixed_point_prefix against the iterate on every scanned pair."""
    phi = system.morphism
    power_bound = len(system.alphabet)
    for a in system.alphabet:
        if not contains(system, (a,)):
            continue
        for ell in range(1, power_bound + 1):
            start = phi.apply_power((a,), ell)
            if len(start) < 2 or start[0] != a:
                continue
            prefix = start
            while len(prefix) < period_bound:
                prefix = phi.apply_power(prefix, ell)
            prefix = prefix[:period_bound]
            assert fixed_point_prefix(system, a, ell, period_bound) == prefix, system
            images = {c: phi.apply_power((c,), ell) for c in system.alphabet}
            image = []
            for m in range(1, period_bound + 1):
                u = prefix[:m]
                image.extend(images[u[-1]])
                n, rest = divmod(len(image), m)
                if n >= 2 and not rest and image == list(u) * n:
                    return RepetitivenessVerdict(True, a, ell, u, n, period_bound,
                                                 power_bound)
    return RepetitivenessVerdict(False, None, None, None, None, period_bound, power_bound)


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
            assert verdict == _naive_detect(system, bound), (system, bound)
            certified += verdict.repetitive
    assert certified == 576


def test_detector_on_a_slowly_growing_fixed_point():
    """a -> a c, c -> c: the fixed point a c c c ... grows by one letter per
    image, and no prefix is mapped to a power of itself."""
    system = sys1("ac", {"a": "ac", "c": "c"}, ["a"])
    assert not detect_unbounded_repetitive(system, 4096).repetitive
    assert fixed_point_prefix(system, "a", 2, 4096) == w("a") + w("c") * 4095
