"""Weak and strong circularity threshold searches.

The weak threshold is the largest length of a non-weakly-synchronized word;
the strong threshold is the largest side length of an admissible pair that
is not strongly synchronizing.  Both run through one level search over
language words: level L reads the words of length L in the weak mode and of
length 2L, split into two halves, in the strong mode.  A word with a
synchronized factor is synchronized, so level-L candidates are restricted
to words whose trims all failed at the previous level: both end-trims
w[1:] and w[:-1] of a weak word, the core w[1:-1] of a strong pair.  The
weak mode does not read its levels past the first: its level-n candidates
are grown from the failing words, as f·c for f failing at level n - 1, c a
language letter and (f·c)[1:] failing too.  Some of these words are not in
the language, which is harmless: a word has a minimal interpretation only
if it is a factor of an image of a language word, so a non-member has no
parse, any split of it is vacuously weakly synchronizing, and it never
fails.  The failing words are thus exactly those of the language.
The level at which no candidate fails is built and re-verified over every
word before the threshold is reported; an exhausted weak search builds
only the levels its parses probe.  A candidate's trims were parsed at the
previous level, so each candidate is parsed by one frontier step from the
memoized parse of a trim, two (left, then right) from the core of a strong
pair; the full pass runs only where no trim's parse is memoized.  The
strong mode reads its level 2L: the level at which it finds its threshold
is built to verify it anyway, and growing its candidates as a·f·b measured
slower than scanning.  Strong circularity is not known to be decidable, so
exhausting the cutoff is an explicit result rather than an error.

Several axioms.  The language L of a system with axioms w1, ..., wk is the
union of the languages Li of its one-axiom subsystems, which share its
morphism, so each Li is a subset of L.  Both thresholds obey
D(L) >= max D(Li).  Proof: an interpretation (s, w, t) of u in Li has w in
Li, hence in L, and its minimality reads only s, t and the images of w's
end letters; so every minimal interpretation of u in Li is one in L, and L
may add more.  A split compatible with every minimal interpretation in L is
then compatible with every one in Li, so a word of Li that no split weakly
synchronizes in Li is not weakly synchronized in L either.  An admissible
pair of Li keeps its compatible interpretation in L, and a letter ending
the left part in every interpretation in L ends it in every one in Li, so
an admissible pair of Li that is not strongly synchronizing in Li is
neither in L.  Every failing word or pair of Li fails in L at the same
level, which gives the bound; a weak exhaustion of some Li is one of L,
and a certificate that some Li is not strongly circular is one for L (see
`repetitiveness`).  The bound is not an equality: a -> c a, b -> a c,
c -> c with axioms a b, a c and b b b has (weak, strong) thresholds (4, 2),
and its one-axiom subsystems (2, 1), (0, 0) and (2, 1), since the
interpretations that one axiom's language adds unsynchronize words of
another's.
"""

from collections import namedtuple

from .errors import PreconditionError
from .interpretations import _admissible, _split_ends, _strong_letter, _word_sync
from .language import _parses, _record
from .repetitiveness import detect_unbounded_repetitive
from .system import DF0LSystem

_SURVIVOR_SAMPLE = 8


class ThresholdReport(namedtuple(
        "ThresholdReport", "mode status threshold witness last_level survivors "
        "repetition", defaults=(None,) * 5)):
    """The answer of a threshold search.

    mode is 'weak' or 'strong'; status is 'found', 'cutoff_exceeded' or
    'not_strongly_circular'.  A found threshold D (int) comes with a failing
    witness, unless no word fails at all; an exhausted cutoff with
    last_level (int) and a sample of failing survivors (tuple); a strong
    search stopped by a repetitiveness certificate with its repetition
    (RepetitivenessVerdict).  The witness and each survivor are a Word in
    the weak mode and a (left, right) pair of Words in the strong mode.
    Fields that do not apply are None.
    """
    __slots__ = ()

    @property
    def found(self) -> bool:
        return self.status == "found"


def _level_search(system: DF0LSystem, cutoff: int, mode: str) -> ThresholdReport:
    """The level loop shared by both searches, with the mode's settings from
    _MODES: level L tests the language words of length width·L, as code
    strings; fails(system, record, w, L) is the mode's failure test, and
    grow(system, record, failed, n) the level-n candidates, the words whose
    trims all failed at the previous level.  Level n is built for the first
    level, for the strong mode and to verify a level where nothing fails.
    """
    width, grow, fails = _MODES[mode]
    decode = system.alphabet.decode

    def item(w):
        # a strong-mode word stands for the pair of its two halves
        return decode(w) if mode == "weak" else (
            decode(w[:len(w) // 2]), decode(w[len(w) // 2:]))

    record = _record(system, width)
    failed: set[str] | None = None     # the previous level's failing words
    for level in range(1, cutoff + 1):
        n = width * level
        words = record.levels[n] if failed is None else grow(system, record, failed, n)
        bad = {w for w in words if fails(system, record, w, level)}
        if not bad:
            for w in _record(system, n).levels[n]:
                if fails(system, record, w, level):
                    raise AssertionError(
                        f"level {level} verification failed on {' '.join(decode(w))}")
            # only the failing words reach the report, in canonical order,
            # which within one length is the order of the code strings
            return ThresholdReport(mode, "found", threshold=level - 1,
                                   witness=item(min(failed)) if failed else None)
        failed = bad
    return ThresholdReport(mode, "cutoff_exceeded", last_level=cutoff,
                           survivors=tuple(map(item, sorted(failed)[:_SURVIVOR_SAMPLE])))


def _weak_fails(system: DF0LSystem, record, w: str, level: int) -> bool:
    """No split of w is weakly synchronizing."""
    return not _word_sync(_parses(system, w, record), len(w)).synchronized


def _strong_fails(system: DF0LSystem, record, w: str, size: int) -> bool:
    """The middle split of w is admissible and not strongly synchronizing."""
    ends = _split_ends(_parses(system, w, record), size)
    return _admissible(ends) and _strong_letter(system, ends) is None


def _weak_grow(system: DF0LSystem, record, failed: set, n: int) -> set:
    """f·c for f failing and c a language letter, where (f·c)[1:] fails too;
    a word outside the language has no parse, so it never fails."""
    return {f + c for f in failed for c in record.levels[1] if f[1:] + c in failed}


def _strong_grow(system: DF0LSystem, record, failed: set, n: int) -> list:
    """The words of level n whose core failed."""
    return [w for w in _record(system, n).levels[n] if w[1:-1] in failed]


# per mode: the width of a level's words, its candidates, the failure test
_MODES = {
    "weak": (1, _weak_grow, _weak_fails),
    "strong": (2, _strong_grow, _strong_fails),
}


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
    return _level_search(system, cutoff, "weak")


def strong_threshold(system: DF0LSystem, cutoff: int) -> ThresholdReport:
    """Exact strong circularity threshold, a repetitiveness certificate that
    the system is not strongly circular, or cutoff exhaustion.

    An unboundedly repetitive system is not strongly circular, so the
    detector runs first, at the default period bound.  Level D tests the
    admissible pairs with both sides of length exactly D+1: a longer
    admissible pair restricts to an admissible pair at that level, and a
    synchronizing level pair lifts back to the longer one, so equal-length
    level checks are exhaustive.
    """
    system.require_pdf0l()
    if cutoff < 1:
        raise PreconditionError("cutoff must be >= 1")
    verdict = detect_unbounded_repetitive(system)
    if verdict.repetitive:
        return ThresholdReport("strong", "not_strongly_circular", repetition=verdict)
    return _level_search(system, cutoff, "strong")


def weak_power_transfer_bound(system: DF0LSystem, k: int) -> int:
    """Length above which weak synchronization in the k-th power system
    transfers back to the base system; |phi^(k-2)(w)| is summed from
    per-letter lengths, so no image word is built."""
    system.require_pdf0l()
    if k < 2:
        raise PreconditionError("power must be >= 2")
    phi = system.morphism
    lengths = dict.fromkeys(phi.alphabet.codes, 1)   # |phi^j(a)| for each letter a
    for _ in range(k - 2):
        lengths = {a: sum(map(lengths.__getitem__, u)) for a, u in phi.image_codes.items()}
    return phi.max_image_len * max(
        sum(map(lengths.__getitem__, w)) for w in system.axiom_codes)


class BoundsCheck(namedtuple(
        "BoundsCheck", "weak_ok weak_slack strong_ok strong_slack")):
    """The threshold inequalities checked by `check_threshold_bounds`.

    weak_ok (bool) and weak_slack (int) for D_weak <= 2·D_strong + max
    image length; strong_ok (bool | None) and strong_slack (int | None),
    None when no delta was given, are for D_strong <= D_weak + delta + 1.  A slack is the
    bound minus the threshold.
    """
    __slots__ = ()


def check_threshold_bounds(system: DF0LSystem, weak: int, strong: int,
                           delta: int | None = None) -> BoundsCheck:
    """Check D_weak <= 2·D_strong + max image length, and (only when the
    system is known eventually injective with the given delta)
    D_strong <= D_weak + delta + 1."""
    max_len = system.morphism.max_image_len
    weak_bound = 2 * strong + max_len
    if delta is None:
        return BoundsCheck(weak <= weak_bound, weak_bound - weak, None, None)
    strong_bound = weak + delta + 1
    return BoundsCheck(weak <= weak_bound, weak_bound - weak,
                       strong <= strong_bound, strong_bound - strong)
