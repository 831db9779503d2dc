"""Interpretations of words inside morphism images, and synchronization tests.

An interpretation of u is a triple (s, w, t) with w in the language and
image(w) = s·u·t; it is minimal when s is shorter than the image of w's
first letter and t shorter than the image of its last letter.  Checking
pairs against minimal interpretations suffices for admissibility and for
weak/strong synchronization, because any witnessing split survives trimming
w down to its minimal core.

Minimal interpretations are found by desubstitution: u is parsed from left
to right into letter images.  A parse starts at each language letter a and
each offset s < |image(a)| at which image(a)[s:] agrees with u, then extends
w one letter b at a time while image(b) equals the next chunk of u, and
closes when image(b) reaches or overhangs the end of u.  A branch is pruned
as soon as w leaves the language, which is factorial, so every partial
parse is a language word, and the work follows the number of partial
parses, not the size of the language.  Each word's parses are memoized in
the system's record in `language`.

Each parse carries its cut tuple: cuts[i] = |image(w[:i])| - |s| for
i = 0..|w|, the offset in u at which the image of each prefix of w ends.
A split of u after k letters is compatible with the interpretation exactly
when k is a cut, at the prefix i with cuts[i] == k.  Every split decision
reads one primitive, `_split_ends(system, u, k)`: per interpretation, None
(k is not a cut), `_LEFT_EMPTY` or the letter that ends the left part of w.
A pair is admissible when some entry is not None, weakly synchronizing when
none is None, strongly synchronizing when all are one letter.  Public
predicates check the caller's input and then call these cores; the
threshold searches call the cores directly on language words.
"""

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate

from .errors import PreconditionError
from .language import _record, require_member
from .system import DF0LSystem
from .words import Word


@dataclass(frozen=True, slots=True)
class Interpretation:
    s: Word
    w: Word
    t: Word


@dataclass(frozen=True, slots=True)
class PairSplit:
    left: Word
    right: Word


@dataclass(frozen=True, slots=True)
class WordSyncReport:
    synchronized: bool
    split_at: int | None
    vacuous: bool


def interpretation_length_bounds(system: DF0LSystem, u) -> tuple[int, int]:
    """Possible lengths of w in a minimal interpretation of u: the image of w
    must cover u, and the interior letters of w map strictly inside u."""
    system.require_pdf0l()
    if not u:
        raise PreconditionError("interpretations are defined for non-empty words")
    phi = system.morphism
    lo = -(-len(u) // phi.max_image_len)
    hi = max(1, 2 + (len(u) - 2) // phi.min_image_len)
    return lo, hi


def _cuts(phi, s_len: int, w: Word) -> tuple[int, ...]:
    """|image(w[:i])| - s_len for i = 0..|w|: where in u each prefix image ends."""
    images = phi.images
    return tuple(accumulate((len(images[b]) for b in w), initial=-s_len))


def _cut(cuts: tuple[int, ...], k: int) -> int | None:
    """The prefix length i with cuts[i] == k, if any.

    Cuts strictly increase along w because the morphism is non-erasing, so
    a split of u after k letters is compatible with at most one prefix.
    """
    i = bisect_left(cuts, k)
    return i if i < len(cuts) and cuts[i] == k else None


def _parses(system: DF0LSystem, u: Word) -> tuple[tuple[Interpretation, tuple[int, ...]], ...]:
    """Every minimal interpretation of u with its cuts, in canonical order."""
    record = _record(system, 0)     # a memoized word's levels are grown already
    known = record.parses.get(u)
    if known is not None:
        return known
    phi = system.morphism
    images = phi.images
    _, hi = interpretation_length_bounds(system, u)
    levels = _record(system, hi).levels
    letters = system.alphabet.letters
    n = len(u)
    found = []
    partial = []    # (w, letters of u that image(w) covers, s)
    for a in letters:
        if (a,) not in levels[1]:
            continue
        image = images[a]
        for start in range(len(image)):
            chunk = image[start:start + n]
            if chunk != u[:len(chunk)]:
                continue
            if start + n <= len(image):
                found.append(Interpretation(image[:start], (a,), image[start + n:]))
            else:
                partial.append(((a,), len(chunk), image[:start]))
    while partial:
        w, p, s = partial.pop()
        for b in letters:
            image = images[b]
            chunk = u[p:p + len(image)]
            if image[:len(chunk)] != chunk:
                continue
            v = w + (b,)
            if v not in levels[len(v)]:
                continue
            if p + len(image) < n:
                partial.append((v, p + len(image), s))
            else:
                found.append(Interpretation(s, v, image[len(chunk):]))
    key = system.alphabet.word_key
    found.sort(key=lambda i: (key(i.s), key(i.w), key(i.t)))
    return record.remember_parses(u, tuple((i, _cuts(phi, len(i.s), i.w)) for i in found))


# a letter token is never empty, so this marks a split with an empty left part
_LEFT_EMPTY = ""


def _split_ends(system: DF0LSystem, u: Word, k: int) -> list[str | None]:
    """Per minimal interpretation (s, w, t) of u, in canonical order, what a
    split of u after k letters leaves at the end of the left part of w."""
    ends = []
    for interp, cuts in _parses(system, u):
        i = _cut(cuts, k)
        ends.append(None if i is None else interp.w[i - 1] if i else _LEFT_EMPTY)
    return ends


def _admissible(ends: list[str | None]) -> bool:
    return any(end is not None for end in ends)


def _strong_letter(system: DF0LSystem, ends: list[str | None]) -> str | None:
    """The common non-empty end letter; the first alphabet letter when the
    pair is vacuously synchronizing (no interpretation at all)."""
    if not ends:
        return system.alphabet.letters[0]
    first = ends[0]
    return first if first and ends.count(first) == len(ends) else None


def _word_sync(system: DF0LSystem, u: Word) -> WordSyncReport:
    parses = _parses(system, u)
    if not parses:
        return WordSyncReport(True, 0, True)
    # the first parse's cuts are increasing: the first one shared by every
    # parse is the smallest offset in the intersection of the cut sets
    split = next((k for k in parses[0][1] if 0 <= k <= len(u)
                  and all(_cut(cuts, k) is not None for _, cuts in parses[1:])), None)
    return WordSyncReport(split is not None, split, False)


def _require_word(system: DF0LSystem, u, message: str) -> Word:
    """The caller's word, required to be a non-empty language word."""
    u = require_member(system, u)
    if not u:
        raise PreconditionError(message)
    return u


def _pair_ends(system: DF0LSystem, left, right) -> list[str | None]:
    """The split primitive for the caller's pair, after the input checks."""
    left = tuple(left)
    u = _require_word(system, left + tuple(right),
                      "the pair must concatenate to a non-empty word")
    return _split_ends(system, u, len(left))


def minimal_interpretations(system: DF0LSystem, u) -> list[Interpretation]:
    """All minimal interpretations of u, deduplicated, in canonical order."""
    u = _require_word(system, u, "interpretations are defined for non-empty words")
    return [i for i, _ in _parses(system, u)]


def compatible_split(system: DF0LSystem, interp: Interpretation,
                     left, right) -> PairSplit | None:
    """The unique split (w', w'') of interp.w with image(w') = s·left and
    image(w'') = right·t, if it exists."""
    system.require_pdf0l()
    left = system.alphabet.check_word(left)
    right = system.alphabet.check_word(right)
    phi = system.morphism
    image = phi.apply(interp.w)
    u = image[len(interp.s):len(image) - len(interp.t)]
    if left + right != u:
        raise PreconditionError("left·right must equal the interpreted word")
    index = _cut(_cuts(phi, len(interp.s), interp.w), len(left))
    if index is None:
        return None
    return PairSplit(interp.w[:index], interp.w[index:])


def is_admissible(system: DF0LSystem, left, right) -> bool:
    """True iff some minimal interpretation of left·right admits a compatible split."""
    return _admissible(_pair_ends(system, left, right))


def is_weakly_synchronizing(system: DF0LSystem, left, right) -> bool:
    """True iff every minimal interpretation of left·right admits a compatible split."""
    return None not in _pair_ends(system, left, right)


def is_weakly_synchronized(system: DF0LSystem, u) -> WordSyncReport:
    """Whether some split position of u is weakly synchronizing.

    A word with no interpretation at all is vacuously synchronized; the
    report's vacuous flag lets callers tell the two cases apart.
    """
    return _word_sync(system, _require_word(
        system, u, "the empty word has no synchronization status"))


def strong_sync_letter(system: DF0LSystem, left, right) -> str | None:
    """The letter certifying strong synchronization of (left, right), if any.

    Every minimal interpretation must admit a compatible split whose left
    part is non-empty and ends with one common letter.  With zero
    interpretations the pair is vacuously synchronizing; the first alphabet
    letter is reported.
    """
    left = tuple(left)
    if not left:
        raise PreconditionError("the left part of a strong pair must be non-empty")
    return _strong_letter(system, _pair_ends(system, left, right))


def is_strongly_synchronizing(system: DF0LSystem, left, right) -> bool:
    return strong_sync_letter(system, left, right) is not None
