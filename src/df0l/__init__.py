"""Decision procedures for DF0L systems.

A DF0L system is a morphism on a finite alphabet together with a finite set
of non-empty axiom words; its language is the set of factors of all iterated
images of the axioms.  This package enumerates that language, computes
minimal interpretations and synchronization properties, searches for weak
and strong circularity thresholds, detects unbounded repetitiveness, and
enumerates injectivity collisions.  Everything is exact and deterministic;
set-valued results come in canonical order (length, then declaration order).
"""

from .circularity import (BoundsCheck, ThresholdReport, check_threshold_bounds,
                          strong_threshold, weak_power_transfer_bound,
                          weak_threshold)
from .errors import (ErasingMorphismError, InvalidSystemError,
                     NotInLanguageError, ParseError, PreconditionError)
from .fileformat import parse_letter_map, parse_system, render_system
from .injectivity import (CollisionPair, TwinedData, collision_family_check,
                          collisions_upto, delta_estimate, find_twined_failure,
                          simplification_language_check,
                          twined_commutation_check, verify_twined)
from .interpretations import (Interpretation, PairSplit, WordSyncReport,
                              compatible_split, interpretation_length_bounds,
                              is_admissible, is_strongly_synchronizing,
                              is_weakly_synchronized, is_weakly_synchronizing,
                              minimal_interpretations, strong_sync_letter)
from .language import (FactorSet, clear_interpretation_cache,
                       clear_language_cache, contains, factor_language)
from .repetitiveness import (OmegaCandidate, RepetitivenessVerdict,
                             default_period_bound, detect_unbounded_repetitive,
                             find_power_in_preimage, fixed_point_prefix,
                             lift_repetition, omega_candidates)
from .system import (Alphabet, DF0LSystem, GrowthReport, LetterMap, Morphism,
                     ValidationReport, classify_letters, invariant_exponent,
                     minimal_invariant_subalphabets, power_system,
                     unbounded_letters, validate)
from .words import (Word, factors, format_word, is_conjugate, is_primitive,
                    occurrences, parse_word, primitive_root)

__all__ = [
    "Alphabet", "BoundsCheck", "CollisionPair", "DF0LSystem",
    "ErasingMorphismError", "FactorSet", "GrowthReport", "Interpretation",
    "InvalidSystemError", "LetterMap", "Morphism", "NotInLanguageError",
    "OmegaCandidate", "PairSplit", "ParseError", "PreconditionError",
    "RepetitivenessVerdict", "ThresholdReport", "TwinedData",
    "ValidationReport", "Word", "WordSyncReport", "check_threshold_bounds",
    "classify_letters", "clear_interpretation_cache", "clear_language_cache",
    "collision_family_check",
    "collisions_upto", "compatible_split", "contains", "default_period_bound",
    "delta_estimate", "detect_unbounded_repetitive", "factor_language",
    "factors", "find_power_in_preimage", "find_twined_failure",
    "fixed_point_prefix", "format_word", "interpretation_length_bounds",
    "invariant_exponent", "is_admissible", "is_conjugate", "is_primitive",
    "is_strongly_synchronizing", "is_weakly_synchronized",
    "is_weakly_synchronizing", "lift_repetition", "minimal_interpretations",
    "minimal_invariant_subalphabets", "occurrences", "omega_candidates",
    "parse_letter_map", "parse_system", "parse_word", "power_system",
    "primitive_root", "render_system", "simplification_language_check",
    "strong_sync_letter", "strong_threshold", "twined_commutation_check",
    "unbounded_letters", "validate", "verify_twined",
    "weak_power_transfer_bound", "weak_threshold",
]
