"""Weak and strong circularity threshold searches.

The weak threshold is the largest length of a non-weakly-synchronized word;
the strong threshold is the largest side length of an admissible pair that
is not strongly synchronizing.  Both searches work level by level.  A word
with a synchronized factor is synchronized, so level-L candidates are
restricted to words whose two length-(L-1) trims both failed at the previous
level; the analogous restriction applies to pair cores.  Strong circularity
is not known to be decidable, so exhausting the cutoff is an explicit result
rather than an error.
"""

from dataclasses import dataclass

from .errors import PreconditionError
from .interpretations import _cut, _parses, is_weakly_synchronized
from .language import _language_at_least
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
    prev_bad: list[Word] | None = None
    bad: list[Word] = []
    for level in range(1, cutoff + 1):
        words = _language_at_least(system, level).words_of_length(level)
        if prev_bad is None:
            candidates = words
        else:
            failed = set(prev_bad)
            candidates = [w for w in words if w[1:] in failed and w[:-1] in failed]
        bad = [w for w in candidates
               if not is_weakly_synchronized(system, w).synchronized]
        if not bad:
            for w in words:
                if not is_weakly_synchronized(system, w).synchronized:
                    raise AssertionError(
                        f"level {level} verification failed on {' '.join(w)}")
            if prev_bad:
                return ThresholdReport("weak", "found", threshold=level - 1,
                                       witness_word=prev_bad[0])
            return ThresholdReport("weak", "found", threshold=0)
        prev_bad = bad
    return ThresholdReport("weak", "cutoff_exceeded", last_level=cutoff,
                           survivors=tuple(bad[:_SURVIVOR_SAMPLE]))


def _pair_status(system, word, size):
    """(admissible, strongly_synchronizing) for the middle split of word."""
    parses = _parses(system, word)
    if not parses:
        return False, True
    admissible = False
    strong = True
    letters = set()
    for i, cuts in parses:
        index = _cut(cuts, size)
        if index is None:
            strong = False
        else:
            admissible = True
            if index == 0:
                strong = False
            else:
                letters.add(i.w[index - 1])
    strong = strong and len(letters) == 1
    return admissible, strong


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
    prev_bad: list[tuple[Word, Word]] | None = None
    bad: list[tuple[Word, Word]] = []
    for size in range(1, cutoff + 1):
        words = _language_at_least(system, 2 * size).words_of_length(2 * size)
        bad = []
        failed = None if prev_bad is None else set(prev_bad)
        for w in words:
            left, right = w[:size], w[size:]
            if failed is not None and (left[1:], right[:-1]) not in failed:
                continue
            admissible, strong = _pair_status(system, w, size)
            if admissible and not strong:
                bad.append((left, right))
        if not bad:
            for w in words:
                admissible, strong = _pair_status(system, w, size)
                if admissible and not strong:
                    raise AssertionError(
                        f"level {size} verification failed on {' '.join(w)}")
            witness = prev_bad[0] if prev_bad else None
            return ThresholdReport("strong", "found", threshold=size - 1,
                                   witness_pair=witness)
        prev_bad = bad
    return ThresholdReport("strong", "cutoff_exceeded", last_level=cutoff,
                           survivors=tuple(bad[:_SURVIVOR_SAMPLE]))


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
