"""The exception class each public synchronization entry raises on bad input.

Checks run in a fixed order at every entry: letters against the alphabet,
then the non-erasing requirement, then language membership, then the
non-empty preconditions (the strong test rejects an empty left part first).
A second table pins the numeric and non-empty preconditions of the other
public entries, and the rule errors of parse_letter_map.
"""

import pytest

from df0l import (ErasingMorphismError, InvalidSystemError, LetterMap,
                  NotInLanguageError, ParseError, PreconditionError, TwinedData,
                  collision_family_check, collisions_upto,
                  detect_unbounded_repetitive, factor_language,
                  fixed_point_prefix, interpretation_length_bounds,
                  is_admissible, is_weakly_synchronized,
                  is_weakly_synchronizing, lift_repetition,
                  minimal_interpretations, minimal_invariant_subalphabets,
                  omega_candidates, parse_letter_map, power_system,
                  simplification_language_check, strong_sync_letter,
                  strong_threshold, twined_commutation_check, weak_threshold)

from conftest import sys1, w

TM = sys1("ab", {"a": "ab", "b": "ba"}, ["a"])
ERASING = sys1("ab", {"a": "ab", "b": ""}, ["a"])

WORD_ENTRIES = {
    "minimal_interpretations": minimal_interpretations,
    "is_weakly_synchronized": is_weakly_synchronized,
}

PAIR_ENTRIES = {
    "is_admissible": is_admissible,
    "is_weakly_synchronizing": is_weakly_synchronizing,
    "strong_sync_letter": strong_sync_letter,
}

SEARCHES = {
    "weak_threshold": weak_threshold,
    "strong_threshold": strong_threshold,
}

CASES = []
for name, entry in WORD_ENTRIES.items():
    CASES += [
        (name, "non-member", lambda f=entry: f(TM, w("aaa")), NotInLanguageError),
        (name, "unknown letter", lambda f=entry: f(TM, w("ax")), InvalidSystemError),
        (name, "erasing", lambda f=entry: f(ERASING, w("a")), ErasingMorphismError),
        (name, "empty word", lambda f=entry: f(TM, ()), PreconditionError),
        (name, "unknown letter before erasing",
         lambda f=entry: f(ERASING, w("x")), InvalidSystemError),
        (name, "erasing before membership",
         lambda f=entry: f(ERASING, w("bbbb")), ErasingMorphismError),
        (name, "erasing before empty", lambda f=entry: f(ERASING, ()),
         ErasingMorphismError),
    ]
for name, entry in PAIR_ENTRIES.items():
    CASES += [
        (name, "non-member", lambda f=entry: f(TM, w("aa"), w("a")), NotInLanguageError),
        (name, "unknown letter",
         lambda f=entry: f(TM, w("a"), w("x")), InvalidSystemError),
        (name, "erasing",
         lambda f=entry: f(ERASING, w("a"), w("b")), ErasingMorphismError),
        (name, "unknown letter before erasing",
         lambda f=entry: f(ERASING, w("a"), w("x")), InvalidSystemError),
        (name, "erasing before membership",
         lambda f=entry: f(ERASING, w("bb"), w("bb")), ErasingMorphismError),
    ]
for name in ("is_admissible", "is_weakly_synchronizing"):
    entry = PAIR_ENTRIES[name]
    CASES += [
        (name, "empty pair", lambda f=entry: f(TM, (), ()), PreconditionError),
        (name, "erasing before empty", lambda f=entry: f(ERASING, (), ()),
         ErasingMorphismError),
    ]
CASES += [
    ("strong_sync_letter", "empty pair",
     lambda: strong_sync_letter(TM, (), ()), PreconditionError),
    ("strong_sync_letter", "empty left part",
     lambda: strong_sync_letter(TM, (), w("ab")), PreconditionError),
    ("strong_sync_letter", "empty left part before membership",
     lambda: strong_sync_letter(TM, (), w("aaa")), PreconditionError),
    ("strong_sync_letter", "empty left part before alphabet",
     lambda: strong_sync_letter(TM, (), w("x")), PreconditionError),
    ("strong_sync_letter", "empty left part before erasing",
     lambda: strong_sync_letter(ERASING, (), w("a")), PreconditionError),
]
for name, search in SEARCHES.items():
    CASES += [
        (name, "erasing", lambda f=search: f(ERASING, 5), ErasingMorphismError),
        (name, "cutoff 0", lambda f=search: f(TM, 0), PreconditionError),
        (name, "erasing before cutoff", lambda f=search: f(ERASING, 0),
         ErasingMorphismError),
    ]


@pytest.mark.parametrize("call,expected", [
    pytest.param(call, expected, id=f"{name}-{case}")
    for name, case, call, expected in CASES])
def test_boundary_errors(call, expected):
    """Each bad input raises exactly the pinned class, not a subclass."""
    with pytest.raises(ValueError) as err:
        call()
    assert type(err.value) is expected


IDENTITY = LetterMap({"a": w("a"), "b": w("b")})
PHI = TM.morphism

PRECONDITIONS = [
    ("collisions_upto", "max_len 0", lambda: collisions_upto(TM, 0), PreconditionError),
    ("collision_family_check", "n 0",
     lambda: collision_family_check(TM, 0, w("a"), w("b")), PreconditionError),
    ("twined_commutation_check", "k -1",
     lambda: twined_commutation_check(TwinedData(PHI, PHI, IDENTITY, IDENTITY), -1,
                                      [w("a")]), PreconditionError),
    ("simplification_language_check", "max_len -1",
     lambda: simplification_language_check(TM, TM, IDENTITY, IDENTITY, -1),
     PreconditionError),
    ("factor_language", "max_len -1", lambda: factor_language(TM, -1), PreconditionError),
    ("interpretation_length_bounds", "empty word",
     lambda: interpretation_length_bounds(TM, ()), PreconditionError),
    ("detect_unbounded_repetitive", "period_bound 0",
     lambda: detect_unbounded_repetitive(TM, 0), PreconditionError),
    ("fixed_point_prefix", "power 0", lambda: fixed_point_prefix(TM, "a", 0, 4),
     PreconditionError),
    ("fixed_point_prefix", "n 0", lambda: fixed_point_prefix(TM, "a", 1, 0),
     PreconditionError),
    ("omega_candidates", "max_len 0", lambda: omega_candidates(TM, 0, 2), PreconditionError),
    ("lift_repetition", "empty v", lambda: lift_repetition(TM, (), 4), PreconditionError),
    ("lift_repetition", "search_len 0", lambda: lift_repetition(TM, w("ab"), 0),
     PreconditionError),
    ("Morphism.apply_power", "k -1", lambda: PHI.apply_power(w("a"), -1), PreconditionError),
    ("Morphism.power", "k 0", lambda: PHI.power(0), PreconditionError),
    ("power_system", "k 0", lambda: power_system(TM, 0), PreconditionError),
    ("minimal_invariant_subalphabets", "p 0",
     lambda: minimal_invariant_subalphabets(PHI, 0), PreconditionError),
    ("parse_letter_map", "rule without arrow",
     lambda: parse_letter_map("a b", PHI.alphabet, PHI.alphabet), ParseError),
    ("parse_letter_map", "unknown source letter",
     lambda: parse_letter_map("a -> a; x -> b", PHI.alphabet, PHI.alphabet), ParseError),
]


@pytest.mark.parametrize("call,expected", [
    pytest.param(call, expected, id=f"{name}-{case}")
    for name, case, call, expected in PRECONDITIONS])
def test_precondition_errors(call, expected):
    """Each out-of-range or empty argument raises exactly the pinned class."""
    with pytest.raises(ValueError) as err:
        call()
    assert type(err.value) is expected
