import itertools
import os
import random
import tracemalloc

import pytest

import df0l.circularity
import df0l.language
from df0l import (Alphabet, DF0LSystem, Morphism, check_threshold_bounds,
                  clear_interpretation_cache, clear_language_cache, contains, detect_unbounded_repetitive, factor_language, is_admissible,
                  is_strongly_synchronizing, is_weakly_synchronized, parse_system,
                  power_system, strong_threshold, weak_power_transfer_bound, weak_threshold)

from conftest import binary_census, random_pdf0l, sys1, w
from oracles import _iterate_of, _oracle_strong, _oracle_weak, is_primitive, iterated_prefix

SAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, "samples")


def test_weak_threshold_thue_morse(thue_morse):
    report = weak_threshold(thue_morse, 10)
    assert report.found and report.threshold == 3
    assert report.witness == w("aba")
    assert not is_weakly_synchronized(thue_morse, report.witness).synchronized


def test_exhausted_weak_search_builds_only_the_levels_its_parses_probe():
    """r185 of the benchmark census exhausts weak cutoff 60 with the failing
    words a^60 and d^60.  Their parses are stepped from those of the
    previous level's failing words and probe the levels only up to 31, so
    the record holds 31 levels past level 0, where building every level to
    scan it would make 60."""
    system = sys1("abcd", {"a": "b", "b": "dddd", "c": "cca", "d": "aa"}, ["c"])
    clear_language_cache()
    report = weak_threshold(system, 60)
    assert report.status == "cutoff_exceeded" and report.last_level == 60
    assert report.survivors == (w("a" * 60), w("d" * 60))
    assert len(df0l.language._RECORDS[system].levels) - 1 == 31


def test_weak_threshold_collapse(collapse_bounded, collapse_unbounded):
    assert weak_threshold(collapse_bounded, 10).threshold == 3
    assert weak_threshold(collapse_unbounded, 10).threshold == 3


def test_weak_threshold_repetitive_square(repetitive_square):
    report = weak_threshold(repetitive_square, 10)
    assert report.found and report.threshold == 1
    assert len(report.witness) == 1


def test_weak_threshold_square_power_diverges(repetitive_square):
    squared = power_system(repetitive_square, 2)
    report = weak_threshold(squared, 20)
    assert report.status == "cutoff_exceeded"
    assert report.last_level == 20
    assert report.survivors
    for word in report.survivors:
        assert len(word) == 20
        assert not is_weakly_synchronized(squared, word).synchronized
    bc4 = w("bc") * 4
    assert contains(squared, bc4)
    assert not is_weakly_synchronized(squared, bc4).synchronized


def test_strong_threshold_thue_morse(thue_morse):
    report = strong_threshold(thue_morse, 10)
    assert report.found and report.threshold == 1
    left, right = report.witness
    assert len(left) == len(right) == 1
    assert is_admissible(thue_morse, left, right)
    assert not is_strongly_synchronizing(thue_morse, left, right)


def test_strong_threshold_collapse(collapse_bounded, collapse_unbounded):
    assert strong_threshold(collapse_bounded, 12).threshold == 3
    report = strong_threshold(collapse_unbounded, 15)
    assert report.found and report.threshold == 9
    left, right = report.witness
    assert len(left) == len(right) == 9
    assert is_admissible(collapse_unbounded, left, right)
    assert not is_strongly_synchronizing(collapse_unbounded, left, right)


def test_strong_threshold_repetitive_square(repetitive_square):
    report = strong_threshold(repetitive_square, 10)
    assert report.status == "not_strongly_circular"
    assert report.repetition.repetitive
    assert report.repetition.witness == w("bc")


def test_detector_positive_forces_not_strongly_circular(repetitive_square):
    # cross-module consistency between the detector and the strong search
    assert detect_unbounded_repetitive(repetitive_square).repetitive
    assert strong_threshold(repetitive_square, 5).status == "not_strongly_circular"


def test_weak_divergence_comes_with_repetition_witness(repetitive_square):
    # where the weak search exhausts its cutoff, the detector certifies the
    # repetition responsible for it
    squared = power_system(repetitive_square, 2)
    assert weak_threshold(squared, 20).status == "cutoff_exceeded"
    verdict = detect_unbounded_repetitive(squared)
    assert verdict.repetitive
    for k in range(1, 4):
        assert contains(squared, verdict.witness * k)


def test_strong_search_without_precheck(repetitive_square, thue_morse):
    report = df0l.circularity._level_search(repetitive_square, 4, "strong")
    assert report.status == "cutoff_exceeded"
    assert report.last_level == 4
    for left, right in report.survivors:
        assert len(left) == len(right) == 4
        assert is_admissible(repetitive_square, left, right)
        assert not is_strongly_synchronizing(repetitive_square, left, right)
    assert df0l.circularity._level_search(thue_morse, 10, "strong").threshold == 1


def test_degenerate_thresholds():
    from conftest import sys1
    # two letters swapping: language is {ε, a, x}, everything synchronizes
    toy = sys1("ax", {"a": "x", "x": "a"}, ["a"])
    weak = weak_threshold(toy, 5)
    assert weak.found and weak.threshold == 0 and weak.witness is None
    strong = strong_threshold(toy, 5)
    assert strong.found and strong.threshold == 0 and strong.witness is None

    # unary doubling: never weakly circular, and certified repetitive
    single = sys1("a", {"a": "aa"}, ["a"])
    assert weak_threshold(single, 8).status == "cutoff_exceeded"
    report = strong_threshold(single, 6)
    assert report.status == "not_strongly_circular"
    assert report.repetition.witness == w("a")


def test_weak_power_transfer_bound(thue_morse, repetitive_square):
    assert weak_power_transfer_bound(thue_morse, 2) == 2
    assert weak_power_transfer_bound(thue_morse, 3) == 4
    assert weak_power_transfer_bound(repetitive_square, 2) == 3
    with pytest.raises(ValueError):
        weak_power_transfer_bound(thue_morse, 1)


def test_weak_power_transfer_bound_builds_no_word(thue_morse):
    """|phi^20(a)| = 2^20 is summed from per-letter lengths in under 1 MiB."""
    tracemalloc.start()
    try:
        bound = weak_power_transfer_bound(thue_morse, 22)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert bound == 2**21
    assert peak < 2**20


def test_weak_power_transfer_bound_over_the_binary_census():
    """On every census system and k = 2..6 the bound is the longest letter
    image times the longest image^(k-2)(axiom), built word by word."""
    cases = 0
    for system in binary_census():
        phi = system.morphism
        longest = max(len(phi.image(a)) for a in system.alphabet)
        for k in range(2, 7):
            expected = longest * max(len(_iterate_of(phi, axiom, k - 2))
                                     for axiom in system.axioms)
            assert weak_power_transfer_bound(system, k) == expected, (system, k)
            cases += 1
    assert cases == 1960


def test_threshold_bounds_on_fixtures(thue_morse, collapse_bounded,
                                      collapse_unbounded):
    check = check_threshold_bounds(thue_morse, 3, 1, 0)
    assert check.weak_ok and check.strong_ok is True

    check = check_threshold_bounds(collapse_bounded, 3, 3, 11)
    assert check.weak_ok and check.strong_ok

    check = check_threshold_bounds(collapse_unbounded, 3, 9)
    assert check.weak_ok and check.strong_ok is None


def test_found_reports_are_tight(thue_morse, collapse_bounded):
    for system, dw, ds in ((thue_morse, 3, 1), (collapse_bounded, 3, 3)):
        weak = weak_threshold(system, 10)
        assert (weak.threshold, len(weak.witness)) == (dw, dw)
        for word in factor_language(system, dw + 1).words_of_length(dw + 1):
            assert is_weakly_synchronized(system, word).synchronized
        strong = strong_threshold(system, 10)
        assert strong.threshold == ds
        for word in factor_language(system, 2 * ds + 2).words_of_length(2 * ds + 2):
            left, right = word[:ds + 1], word[ds + 1:]
            if is_admissible(system, left, right):
                assert is_strongly_synchronizing(system, left, right)


def test_powers_of_strongly_circular_systems_stay_weakly_circular(
        thue_morse, collapse_bounded, collapse_unbounded):
    # thresholds grow quickly under powers (TM^2: 6, TM^3: 12, squares of the
    # collapse systems: 17 and 19), so cutoffs are sized per case
    assert strong_threshold(thue_morse, 10).found
    assert weak_threshold(power_system(thue_morse, 2), 10).threshold == 6
    assert weak_threshold(power_system(thue_morse, 3), 16).threshold == 12
    for system, expected in ((collapse_bounded, 17), (collapse_unbounded, 19)):
        assert strong_threshold(system, 15).found
        assert weak_threshold(power_system(system, 2), 25).threshold == expected


def test_threshold_searches_match_unpruned_oracles():
    """The level restrictions must not change any verdict."""
    rng = random.Random(4242)
    repetitive_cases = 0
    for _ in range(120):
        system = random_pdf0l(rng, max_letters=3, max_image_len=3)
        report = weak_threshold(system, 5)
        mine = ("found", report.threshold) if report.found else ("cutoff", None)
        assert mine == _oracle_weak(system, 5)[0]

        report = df0l.circularity._level_search(system, 4, "strong")
        mine = ("found", report.threshold) if report.found else ("cutoff", None)
        assert mine == _oracle_strong(system, 4)[0]

        if detect_unbounded_repetitive(system, 24).repetitive:
            # a certified repetition forbids any strong threshold
            assert not df0l.circularity._level_search(system, 4, "strong").found
            repetitive_cases += 1
    assert repetitive_cases > 20
    _census_draws_match_the_weak_oracle()


def _census_draw(rng):
    """A system drawn as the benchmark census draws: 2-4 letters, images of
    1-4 letters, a one-letter axiom."""
    letters = "abcd"[:rng.randint(2, 4)]
    return sys1(letters, {a: "".join(rng.choices(letters, k=rng.randint(1, 4)))
                          for a in letters}, [rng.choice(letters)])


def _census_draws_match_the_weak_oracle():
    """Weak cutoff 16, from cold caches, on 100 seeded census draws: status,
    threshold, witness and survivors equal the unpruned oracle's.  Some
    draws have one-letter images, and some exhaust the cutoff with fewer
    than 16 levels built, since their candidates are grown from the
    failing words and only the levels their parses probe are built."""
    rng = random.Random(36)
    one_letter_images = partial_exhaustions = 0
    for _ in range(100):
        system = _census_draw(rng)
        clear_language_cache()
        report = weak_threshold(system, 16)
        partial_exhaustions += (not report.found
                                and len(df0l.language._RECORDS[system].levels) <= 16)
        one_letter_images += system.morphism.min_image_len == 1
        verdict, failing = _oracle_weak(system, 16)
        assert (("found", report.threshold) if report.found else ("cutoff", None)) == verdict
        assert report.witness == (failing[0] if report.threshold else None), system
        assert list(report.survivors or ()) == ([] if report.found else failing[:8]), system
    assert one_letter_images and partial_exhaustions, (one_letter_images, partial_exhaustions)


def test_census_draws_survive_parse_memo_eviction(full_passes, monkeypatch):
    """With room for 8 parses the memo empties mid-search, so a candidate's
    trim is often forgotten and its parse falls back to the full pass and
    its build to the length bound hi; the weak reports still equal the
    oracle's."""
    _census_draws_match_the_weak_oracle()
    unevicted = len(full_passes)
    monkeypatch.setattr(df0l.language, "_PARSE_MEMO_SIZE", 8)
    _census_draws_match_the_weak_oracle()
    assert len(full_passes) > 2 * unevicted, (len(full_passes), unevicted)


def test_exhaustive_binary_census():
    """Both searches equal the unpruned oracles on every census system, every
    witness and survivor re-validates and is the canonically first failing
    word or pair of its level (the survivors the first eight of the cutoff
    level), D_weak <= 2·D_strong + max|φ(a)|, and
    a certified repetition never comes with a strong threshold and
    re-validates: a primitive prefix u of the fixed point with
    φ^power(u) = u^exponent and u, u², u³, u⁴ in the language."""
    systems = list(binary_census())
    assert len(systems) == 392
    weak_exhausted = certificates = 0
    for system in systems:
        weak = weak_threshold(system, 14)
        mine = ("found", weak.threshold) if weak.found else ("cutoff", None)
        verdict, failing = _oracle_weak(system, 14)
        assert mine == verdict, system
        assert weak.witness == (failing[0] if weak.threshold else None), system
        assert list(weak.survivors or ()) == ([] if weak.found else failing[:8]), system
        if weak.witness is not None:
            assert len(weak.witness) == weak.threshold
            assert not is_weakly_synchronized(system, weak.witness).synchronized
        for word in weak.survivors or ():
            assert len(word) == 14
            assert not is_weakly_synchronized(system, word).synchronized
        weak_exhausted += not weak.found

        strong = df0l.circularity._level_search(system, 10, "strong")
        mine = ("found", strong.threshold) if strong.found else ("cutoff", None)
        verdict, failing = _oracle_strong(system, 10)
        assert mine == verdict, system
        assert strong.witness == (failing[0] if strong.threshold else None), system
        assert list(strong.survivors or ()) == ([] if strong.found else failing[:8]), system
        pairs = list(strong.survivors or ())
        if strong.witness is not None:
            assert len(strong.witness[0]) == strong.threshold
            pairs.append(strong.witness)
        for left, right in pairs:
            assert len(left) == len(right)
            assert is_admissible(system, left, right)
            assert not is_strongly_synchronizing(system, left, right)

        if weak.found and strong.found:
            max_len = system.morphism.max_image_len
            assert weak.threshold <= 2 * strong.threshold + max_len, system
        rep = detect_unbounded_repetitive(system)
        if rep.repetitive:
            assert not strong.found, system
            u = rep.witness
            assert is_primitive(u), system
            assert system.morphism.apply_power(u, rep.power) == u * rep.exponent
            assert iterated_prefix(system, rep.letter, rep.power, len(u)) == u
            assert all(contains(system, u * k) for k in range(1, 5)), system
            certificates += 1
    assert weak_exhausted == 126
    assert certificates == 142


def _outcomes(system):
    return (weak_threshold(system, 10), strong_threshold(system, 8),
            detect_unbounded_repetitive(system).repetitive)


def test_one_axiom_subsystems_bound_the_full_system():
    """The language of a system with several axioms is the union of its
    one-axiom subsystems' languages.  So (circularity and repetitiveness
    docstrings) a subsystem's weak exhaustion and not_strongly_circular carry
    over to the full system, a found threshold of the full system is no
    smaller than the subsystem's, and the full system is certified
    repetitive iff some subsystem is.  Every binary system with images of
    length 1-2 and two distinct axioms of length 1-2: 540 systems."""
    images = [image for n in (1, 2) for image in itertools.product("ab", repeat=n)]
    axioms = [axiom for n in (1, 2) for axiom in itertools.product("ab", repeat=n)]
    count = weak_found = strong_found = repetitive = weak_above = 0
    for image_a, image_b in itertools.product(images, repeat=2):
        morphism = Morphism(Alphabet(("a", "b")), {"a": image_a, "b": image_b})
        for pair in itertools.combinations(axioms, 2):
            system = DF0LSystem(morphism, list(pair))
            weak, strong, certified = _outcomes(system)
            parts = [_outcomes(DF0LSystem(morphism, [axiom])) for axiom in pair]
            for part_weak, part_strong, _ in parts:
                assert part_weak.found or not weak.found, system
                if weak.found and part_weak.found:
                    assert weak.threshold >= part_weak.threshold, system
                if part_strong.status == "not_strongly_circular":
                    assert strong.status == "not_strongly_circular", system
                if strong.found:
                    assert part_strong.found, system
                    assert strong.threshold >= part_strong.threshold, system
            assert certified == any(part[2] for part in parts), system
            count += 1
            weak_found += weak.found
            strong_found += strong.found
            repetitive += certified
            weak_above += weak.found and weak.threshold > max(
                part[0].threshold for part in parts)
    assert (count, weak_found, strong_found, repetitive) == (540, 332, 302, 238)
    # the thresholds lower bound is strict for two of them
    assert weak_above == 2


def test_several_axioms_threshold_exceeds_every_subsystem():
    """a -> c a, b -> a c, c -> c with axioms a b, a c and b b b: the full
    system's thresholds are above those of all three one-axiom subsystems,
    so the thresholds lower bound is not an equality."""
    rules = {"a": "ca", "b": "ac", "c": "c"}
    axioms = ["ab", "ac", "bbb"]

    def thresholds(system):
        weak, strong, _ = _outcomes(system)
        return weak.threshold, strong.threshold

    assert thresholds(sys1("abc", rules, axioms)) == (4, 2)
    assert [thresholds(sys1("abc", rules, [axiom])) for axiom in axioms] == [
        (2, 1), (0, 0), (2, 1)]


def test_power_transfer_property_random():
    """Weak synchronization above the transfer bound descends from powers."""
    rng = random.Random(53)
    tested_words = 0
    for _ in range(60):
        system = random_pdf0l(rng, max_letters=3, max_image_len=3,
                              max_axioms=1, max_axiom_len=1)
        for k in (2, 3):
            bound = weak_power_transfer_bound(system, k)
            if bound > 9:
                continue
            powered = power_system(system, k)
            top = min(bound + 2, 11)
            lang = factor_language(system, top)
            for length in range(bound + 1, top + 1):
                for u in lang.words_of_length(length):
                    if is_weakly_synchronized(powered, u).synchronized:
                        assert is_weakly_synchronized(system, u).synchronized
                        tested_words += 1
    assert tested_words > 100


def _sample_reports():
    """Weak cutoff 20 and strong cutoff 12 on each of the six samples, from
    cold caches."""
    reports = []
    for name in sorted(os.listdir(SAMPLES)):
        with open(os.path.join(SAMPLES, name), encoding="utf-8") as handle:
            system = parse_system(handle.read())
        clear_language_cache()
        reports.append((name, weak_threshold(system, 20), strong_threshold(system, 12)))
    return reports


def test_candidates_are_stepped_from_their_trims(full_passes, monkeypatch):
    """On the six samples the two searches run the full pass at most 50
    times, where one full pass per memo miss made 144: no word whose trim
    u[:-1], u[1:] or u[1:-1] has a memoized parse runs the full pass:
    _parses steps from u[:-1] or u[1:-1], and on the samples every word
    whose u[1:] is memoized has one of these memoized too; the reports are
    those of full passes only."""
    parses = df0l.circularity._parses

    def watched(system, u, record):
        memo = record.parses
        trimmed = u not in memo and any(v in memo for v in (u[:-1], u[1:], u[1:-1]))
        before = len(full_passes)
        parsed = parses(system, u, record)
        assert not (trimmed and len(full_passes) > before), u
        return parsed

    def cold(system, u, record):
        clear_interpretation_cache()
        return parses(system, u, record)

    monkeypatch.setattr(df0l.circularity, "_parses", watched)
    stepped = _sample_reports()
    assert len(full_passes) <= 50, len(full_passes)
    monkeypatch.setattr(df0l.circularity, "_parses", cold)
    assert stepped == _sample_reports()


def test_stepped_parses_compute_no_cuts(full_passes, monkeypatch):
    """While both searches run on the six samples, _cuts is never called:
    the full pass reads each cut tuple off its walk, and a parse stepped
    from a trim's carries the trim's cuts.  Every cut tuple that a full
    pass returns is the one _cuts computes."""
    full_pass, cuts = df0l.language._full_pass, df0l.language._cuts
    states, computed = [], []

    def counted_pass(record, levels, u):
        found = full_pass(record, levels, u)
        (phi,) = [system.morphism for system, known in df0l.language._RECORDS.items()
                  if known is record]
        for s, v, _, cut in found:
            assert cut == cuts(phi, len(s), v), (u, s, v)
        states.append(len(found))
        return found

    def counted_cuts(*args):
        computed.append(args)
        return cuts(*args)

    monkeypatch.setattr(df0l.language, "_full_pass", counted_pass)
    monkeypatch.setattr(df0l.language, "_cuts", counted_cuts)
    _sample_reports()
    assert len(states) == len(full_passes) > 0
    assert sum(states) > 0 and not computed, (len(computed), sum(states))


def test_threshold_reports_survive_parse_memo_eviction(full_passes, monkeypatch):
    """With room for 4 parses the memo empties mid-search and trims are
    lost, so the full pass runs more often; every report stays the same."""
    expected = _sample_reports()
    unevicted = len(full_passes)
    monkeypatch.setattr(df0l.language, "_PARSE_MEMO_SIZE", 4)
    clear_interpretation_cache()
    assert _sample_reports() == expected
    assert len(full_passes) > 2 * unevicted, (len(full_passes), unevicted)
