"""Weak and strong circularity threshold searches.

The weak threshold is the largest length of a non-weakly-synchronized word;
the strong threshold is the largest side length of an admissible pair that
is not strongly synchronizing.  Both run through one level search over
language words: level L reads the words of length L in the weak mode and of
length 2L, split into two halves, in the strong mode.  A word with a
synchronized factor is synchronized, so level-L candidates are restricted
to words whose trims all failed at the previous level: both end-trims
w[1:] and w[:-1] of a weak word, the core w[1:-1] of a strong pair.  The
level at which no candidate fails is re-verified over every word before the
threshold is reported.  Strong circularity is not known to be decidable, so
exhausting the cutoff is an explicit result rather than an error.
"""

from dataclasses import dataclass

from .errors import PreconditionError
from .interpretations import _admissible, _split_ends, _strong_letter, _word_sync
from .language import _record
from .repetitiveness import RepetitivenessVerdict, detect_unbounded_repetitive
from .system import DF0LSystem
from .words import Word

_SURVIVOR_SAMPLE = 8


@dataclass(frozen=True)
class ThresholdReport:
    mode: str                 # 'weak' | 'strong'
    status: str               # 'found' | 'cutoff_exceeded' | 'not_strongly_circular'
    threshold: int | None = None
    witness_word: Word | None = None
    witness_pair: tuple[Word, Word] | None = None
    last_level: int | None = None
    survivors: tuple | None = None
    repetition: RepetitivenessVerdict | None = None

    @property
    def found(self) -> bool:
        return self.status == "found"


def _level_search(system: DF0LSystem, cutoff: int, mode: str, width: int,
                  trims, fails) -> ThresholdReport:
    """The level loop shared by both searches.

    Level L tests the language words of length width·L; fails(system, w, L)
    is the mode's failure test and trims(w) the previous-level words that
    must all have failed for w to be a candidate.
    """
    def item(w):
        # a strong-mode word stands for the pair of its two halves
        return w if mode == "weak" else (w[:len(w) // 2], w[len(w) // 2:])

    prev_bad: list[Word] | None = None
    bad: list[Word] = []
    for level in range(1, cutoff + 1):
        n = width * level
        words = sorted(_record(system, n).levels[n], key=system.alphabet.word_key)
        if prev_bad is None:
            candidates = words
        else:
            failed = set(prev_bad)
            candidates = [w for w in words if failed.issuperset(trims(w))]
        bad = [w for w in candidates if fails(system, w, level)]
        if not bad:
            for w in words:
                if fails(system, w, level):
                    raise AssertionError(
                        f"level {level} verification failed on {' '.join(w)}")
            witness = item(prev_bad[0]) if prev_bad else None
            return ThresholdReport(mode, "found", threshold=level - 1,
                                   witness_word=witness if mode == "weak" else None,
                                   witness_pair=witness if mode == "strong" else None)
        prev_bad = bad
    return ThresholdReport(mode, "cutoff_exceeded", last_level=cutoff,
                           survivors=tuple(map(item, bad[:_SURVIVOR_SAMPLE])))


def _weak_fails(system: DF0LSystem, w: Word, level: int) -> bool:
    """No split of w is weakly synchronizing."""
    return not _word_sync(system, w).synchronized


def _strong_fails(system: DF0LSystem, w: Word, size: int) -> bool:
    """The middle split of w is admissible and not strongly synchronizing."""
    ends = _split_ends(system, w, size)
    return _admissible(ends) and _strong_letter(system, ends) is None


def weak_threshold(system: DF0LSystem, cutoff: int) -> ThresholdReport:
    """Exact weak circularity threshold, or cutoff exhaustion.

    Found(D) is returned once no word of some length L <= cutoff fails the
    synchronization test; D is then L-1, witnessed by a failing word of
    length D, and the final level is re-verified without the candidate
    restriction before returning.
    """
    system.require_pdf0l()
    if cutoff < 1:
        raise PreconditionError("cutoff must be >= 1")
    return _level_search(system, cutoff, "weak", 1,
                         lambda w: (w[1:], w[:-1]), _weak_fails)


def strong_threshold(system: DF0LSystem, cutoff: int, *,
                     repetitive_check: bool = True,
                     period_bound: int | None = None) -> ThresholdReport:
    """Exact strong circularity threshold, a repetitiveness certificate that
    the system is not strongly circular, or cutoff exhaustion.

    Level D tests the admissible pairs with both sides of length exactly
    D+1: a longer admissible pair restricts to an admissible pair at that
    level, and a synchronizing level pair lifts back to the longer one, so
    equal-length level checks are exhaustive.
    """
    system.require_pdf0l()
    if cutoff < 1:
        raise PreconditionError("cutoff must be >= 1")
    if repetitive_check:
        verdict = detect_unbounded_repetitive(system, period_bound)
        if verdict.repetitive:
            return ThresholdReport("strong", "not_strongly_circular",
                                   repetition=verdict)
    return _level_search(system, cutoff, "strong", 2,
                         lambda w: (w[1:-1],), _strong_fails)


def weak_power_transfer_bound(system: DF0LSystem, k: int) -> int:
    """Length above which weak synchronization in the k-th power system
    transfers back to the base system."""
    system.require_pdf0l()
    if k < 2:
        raise PreconditionError("power must be >= 2")
    phi = system.morphism
    return phi.max_image_len * max(
        len(phi.apply_power(w, k - 2)) for w in system.axioms)


@dataclass(frozen=True)
class BoundsCheck:
    weak_ok: bool
    weak_slack: int
    strong_checked: bool
    strong_ok: bool | None
    strong_slack: int | None


def check_threshold_bounds(system: DF0LSystem, weak: int, strong: int,
                           delta: int | None = None) -> BoundsCheck:
    """Check D_weak <= 2·D_strong + max image length, and (only when the
    system is known eventually injective with the given delta)
    D_strong <= D_weak + delta + 1."""
    max_len = system.morphism.max_image_len
    weak_bound = 2 * strong + max_len
    if delta is None:
        return BoundsCheck(weak <= weak_bound, weak_bound - weak, False, None, None)
    strong_bound = weak + delta + 1
    return BoundsCheck(weak <= weak_bound, weak_bound - weak,
                       True, strong <= strong_bound, strong_bound - strong)
