"""The exception class each public membership and synchronization entry
raises on bad input.

Checks run in a fixed order at every entry: letters against the alphabet,
then the non-erasing requirement, then language membership, then the
non-empty preconditions (the strong test rejects an empty left part first).
A second table pins the numeric and non-empty preconditions of the other
public entries, their non-erasing requirement, and the rule errors of
parse_letter_map.  Each erasing row is built so that nothing after the
entry's own check would raise: collisions_upto would find the erasing
a -> a b, b -> ε a code and report no collision, and the family check gets
seeds with different images.  A last test runs every erasing row between
calls that leave records for non-erasing systems: a record found is used
unchecked, so no erasing system may ever have one.
"""

import pytest

from df0l import (ErasingMorphismError, Interpretation, InvalidSystemError,
                  LetterMap, NotInLanguageError, ParseError, PreconditionError,
                  collision_family_check, collisions_upto, compatible_split,
                  classify_letters, clear_language_cache, contains,
                  delta_estimate, detect_unbounded_repetitive, factor_language,
                  interpretation_length_bounds, is_admissible,
                  is_strongly_synchronizing, is_weakly_synchronized,
                  is_weakly_synchronizing, minimal_interpretations,
                  parse_letter_map, power_system, simplification_language_check,
                  strong_sync_letter, strong_threshold,
                  weak_power_transfer_bound, weak_threshold)
from df0l.language import _RECORDS

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
CASES += [
    ("contains", "unknown letter", lambda: contains(TM, w("ax")), InvalidSystemError),
    ("contains", "erasing", lambda: contains(ERASING, w("a")), ErasingMorphismError),
    ("contains", "erasing before empty", lambda: contains(ERASING, ()),
     ErasingMorphismError),
    ("contains", "erasing before the parse",
     lambda: contains(ERASING, w("bbbb")), ErasingMorphismError),
    ("contains", "unknown letter before erasing",
     lambda: contains(ERASING, w("x")), InvalidSystemError),
]
CASES += [
    ("interpretation_length_bounds", "unknown letter",
     lambda: interpretation_length_bounds(TM, ("z", "q", "x")), InvalidSystemError),
    ("interpretation_length_bounds", "unknown letter before erasing",
     lambda: interpretation_length_bounds(ERASING, w("x")), InvalidSystemError),
    ("interpretation_length_bounds", "erasing before empty",
     lambda: interpretation_length_bounds(ERASING, ()), ErasingMorphismError),
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


PHI = TM.morphism
IDENTITY = LetterMap(PHI.alphabet, PHI.alphabet, {"a": w("a"), "b": w("b")})
# beta in a pair (IDENTITY, beta) that commutes with neither TM's morphism
# nor ERASING's
NOT_COMMUTING = LetterMap(PHI.alphabet, PHI.alphabet, {"a": w("ab"), "b": w("a")})

PRECONDITIONS = [
    ("collisions_upto", "max_len 0", lambda: collisions_upto(TM, 0), PreconditionError),
    ("collision_family_check", "n 0",
     lambda: collision_family_check(TM, 0, w("a"), w("b")), PreconditionError),
    ("simplification_language_check", "maps not commuting",
     lambda: simplification_language_check(TM, TM, IDENTITY, NOT_COMMUTING),
     PreconditionError),
    ("collisions_upto", "erasing", lambda: collisions_upto(ERASING, 3),
     ErasingMorphismError),
    ("delta_estimate", "erasing", lambda: delta_estimate(ERASING, 3), ErasingMorphismError),
    ("collision_family_check", "erasing",
     lambda: collision_family_check(ERASING, 1, w("a"), w("b")), ErasingMorphismError),
    ("simplification_language_check", "erasing source",
     lambda: simplification_language_check(ERASING, TM, IDENTITY, NOT_COMMUTING),
     ErasingMorphismError),
    ("simplification_language_check", "erasing target",
     lambda: simplification_language_check(TM, ERASING, IDENTITY, NOT_COMMUTING),
     ErasingMorphismError),
    ("weak_power_transfer_bound", "erasing", lambda: weak_power_transfer_bound(ERASING, 2),
     ErasingMorphismError),
    ("compatible_split", "erasing",
     lambda: compatible_split(ERASING, Interpretation((), w("a"), w("b")), w("a"), ()),
     ErasingMorphismError),
    ("factor_language", "max_len -1", lambda: factor_language(TM, -1), PreconditionError),
    ("factor_language", "erasing", lambda: factor_language(ERASING, 3), ErasingMorphismError),
    ("is_strongly_synchronizing", "erasing",
     lambda: is_strongly_synchronizing(ERASING, w("a"), w("b")), ErasingMorphismError),
    ("classify_letters", "erasing", lambda: classify_letters(ERASING.morphism),
     ErasingMorphismError),
    ("interpretation_length_bounds", "empty word",
     lambda: interpretation_length_bounds(TM, ()), PreconditionError),
    ("detect_unbounded_repetitive", "period_bound 0",
     lambda: detect_unbounded_repetitive(TM, 0), PreconditionError),
    ("detect_unbounded_repetitive", "erasing",
     lambda: detect_unbounded_repetitive(ERASING, 8), ErasingMorphismError),
    ("Morphism.apply_power", "k -1", lambda: PHI.apply_power(w("a"), -1), PreconditionError),
    ("Morphism.power", "k 0", lambda: PHI.power(0), PreconditionError),
    ("power_system", "k 0", lambda: power_system(TM, 0), PreconditionError),
    ("parse_letter_map", "rule without arrow",
     lambda: parse_letter_map("a b", PHI.alphabet, PHI.alphabet), ParseError),
    ("parse_letter_map", "unknown source letter",
     lambda: parse_letter_map("a -> a; x -> b", PHI.alphabet, PHI.alphabet), ParseError),
    ("parse_letter_map", "unknown source letter after every known one",
     lambda: parse_letter_map("a -> a; b -> b; x -> b", PHI.alphabet, PHI.alphabet),
     ParseError),
    ("parse_letter_map", "rule with another arrow",
     lambda: parse_letter_map("a => b; b -> a", PHI.alphabet, PHI.alphabet), ParseError),
    ("parse_letter_map", "bare letter",
     lambda: parse_letter_map("a; b -> a", PHI.alphabet, PHI.alphabet), ParseError),
]


@pytest.mark.parametrize("call,expected", [
    pytest.param(call, expected, id=f"{name}-{case}")
    for name, case, call, expected in PRECONDITIONS])
def test_precondition_errors(call, expected):
    """Each out-of-range or empty argument raises exactly the pinned class."""
    with pytest.raises(ValueError) as err:
        call()
    assert type(err.value) is expected


FIBONACCI = sys1("ab", {"a": "ab", "b": "a"}, ["a"])
# calls that leave records for non-erasing systems
LEAVING_RECORDS = [
    lambda: contains(TM, w("abba")),
    lambda: factor_language(FIBONACCI, 5),
    lambda: minimal_interpretations(TM, w("abbab")),
    lambda: weak_threshold(FIBONACCI, 4),
    lambda: detect_unbounded_repetitive(TM, 8),
]


def test_no_erasing_system_has_a_record():
    """Every erasing row of both tables, run twice between calls that leave
    records for non-erasing systems, raises each time, and no record of an
    erasing system is ever made: a record found is returned unchecked."""
    clear_language_cache()
    erasing = [(name, case, call) for name, case, call, expected in CASES + PRECONDITIONS
               if expected is ErasingMorphismError]
    assert {name for name, _, _ in erasing} == {
        "classify_letters", "collision_family_check", "collisions_upto",
        "compatible_split", "contains", "delta_estimate",
        "detect_unbounded_repetitive", "factor_language",
        "interpretation_length_bounds", "is_admissible",
        "is_strongly_synchronizing", "is_weakly_synchronized",
        "is_weakly_synchronizing", "minimal_interpretations",
        "simplification_language_check", "strong_sync_letter",
        "strong_threshold", "weak_power_transfer_bound", "weak_threshold"}
    for i, (name, case, call) in enumerate(erasing):
        LEAVING_RECORDS[i % len(LEAVING_RECORDS)]()
        for _ in range(2):
            with pytest.raises(ErasingMorphismError):
                call()
            assert all(system.morphism.is_nonerasing for system in _RECORDS), (name, case)
    assert TM in _RECORDS and FIBONACCI in _RECORDS
