"""Interpretations of words inside morphism images, and synchronization tests.

An interpretation of u is a triple (s, w, t) with w in the language and
image(w) = s·u·t; it is minimal when s is shorter than the image of w's
first letter and t shorter than the image of its last letter.  Checking
pairs against minimal interpretations suffices for admissibility and for
weak/strong synchronization, because any witnessing split survives trimming
w down to its minimal core.

Minimal interpretations are found, memoized and read for membership in
`language`; see its docstring.

Each parse carries its cut tuple: cuts[i] = |image(w[:i])| - |s| for
i = 0..|w|, the offset in u at which the image of each prefix of w ends;
a frontier step carries it from the trim's parse, and it is computed only
for a parse from the full pass.  A split of u after k letters is
compatible with the interpretation exactly when k is a cut, at the prefix
i with cuts[i] == k.
The parses of a word come in no fixed order, and none of the split
decisions below depends on it; `minimal_interpretations` alone returns
them in canonical order.  Every split decision at one given k reads one
primitive, `_split_ends(parses, k)`: per interpretation, None (k is not a
cut), `_LEFT_EMPTY` or the letter that ends the left part of w.
A pair is admissible when some entry is not None, weakly synchronizing when
none is None, strongly synchronizing when all are one letter.  The one
exception is `_word_sync`, which looks for the first k shared by every
parse and so intersects the cut tuples itself.  Public
predicates check the caller's input, which yields its parses, and call these
cores on them; the threshold searches call the cores directly on the parses
of language words.  All of this runs on code strings (see `Alphabet`): the
public functions encode the caller's words and decode their answers.
"""

from bisect import bisect_left
from collections import namedtuple

from .errors import NotInLanguageError, PreconditionError
from .language import _cuts, _member, _parses, interpretation_length_bounds
from .system import DF0LSystem, code_key


class Interpretation(namedtuple("Interpretation", "s w t")):
    """A minimal interpretation (s, w, t) of a word u: Words with w in the
    language, image(w) = s·u·t, s shorter than the image of w's first letter
    and t shorter than the image of its last letter."""
    __slots__ = ()


class PairSplit(namedtuple("PairSplit", "left right")):
    """The split w = left·right (Words) of an interpretation's w with
    image(left) = s·u' and image(right) = u''·t, for a split u = u'·u''."""
    __slots__ = ()


class WordSyncReport(namedtuple("WordSyncReport", "synchronized split_at vacuous")):
    """Whether a word is weakly synchronized (bool), the length of the left
    part of its first weakly synchronizing split (int | None), and whether
    it is so vacuously, having no interpretation at all (bool; split_at is
    then 0)."""
    __slots__ = ()


def _cut(cuts: tuple[int, ...], k: int) -> int | None:
    """The prefix length i with cuts[i] == k, if any.

    Cuts strictly increase along w because the morphism is non-erasing, so
    a split of u after k letters is compatible with at most one prefix.
    Every caller has k <= |u| <= cuts[-1] = |u·t|, so i indexes cuts.
    """
    i = bisect_left(cuts, k)
    return i if cuts[i] == k else None


# a letter code is one character, so this marks a split with an empty left part
_LEFT_EMPTY = ""


def _split_ends(parses, k: int) -> list[str | None]:
    """Per minimal interpretation (s, w, t) of u, from u's parses, what a
    split of u after k letters leaves at the end of the left part of w."""
    ends = []
    for _, w, _, cuts in parses:
        i = _cut(cuts, k)
        ends.append(None if i is None else w[i - 1] if i else _LEFT_EMPTY)
    return ends


def _admissible(ends: list[str | None]) -> bool:
    return any(end is not None for end in ends)


def _strong_letter(system: DF0LSystem, ends: list[str | None]) -> str | None:
    """The code of the common end letter; the first letter's code when the
    pair is vacuously synchronizing (no interpretation at all).  Both
    callers split after k >= 1 letters, and every parse has cuts[0] = -|s|
    <= 0, so no end is _LEFT_EMPTY, and a None first gives None."""
    if not ends:
        return system.alphabet.codes[0]
    first = ends[0]
    return first if ends.count(first) == len(ends) else None


def _word_sync(parses, n: int) -> WordSyncReport:
    if not parses:
        return WordSyncReport(True, 0, True)
    # the first parse's cuts are increasing: the first one shared by every
    # parse is the smallest offset in the intersection of the cut sets,
    # whichever parse comes first
    others = [p[3] for p in parses[1:]]
    split = next((k for k in parses[0][3] if 0 <= k <= n
                  and all(k in cuts for cuts in others)), None)
    return WordSyncReport(split is not None, split, False)


def _require_word(system: DF0LSystem, u, message: str) -> tuple:
    """The parses of the caller's word, required to be a non-empty language
    word."""
    code = system.alphabet.encode(u)
    system.require_pdf0l()
    if not code:
        raise PreconditionError(message)
    parses = _parses(system, code)
    if not (parses or _member(system, code)):
        word = " ".join(system.alphabet.decode(code))
        raise NotInLanguageError(f"word {word!r} is not in the language")
    return parses


def _pair_ends(system: DF0LSystem, left, right) -> list[str | None]:
    """The split primitive for the caller's pair, after the input checks."""
    left = tuple(left)
    parses = _require_word(system, left + tuple(right),
                           "the pair must concatenate to a non-empty word")
    return _split_ends(parses, len(left))


def minimal_interpretations(system: DF0LSystem, u) -> list[Interpretation]:
    """All minimal interpretations of u, deduplicated, in canonical order."""
    parses = _require_word(system, u, "interpretations are defined for non-empty words")
    if len(parses) > 1:
        parses = sorted(parses, key=lambda p: (code_key(p[0]), code_key(p[1]), code_key(p[2])))
    decode = system.alphabet.decode
    return [Interpretation(decode(s), decode(w), decode(t)) for s, w, t, _ in parses]


def compatible_split(system: DF0LSystem, interp: Interpretation,
                     left, right) -> PairSplit | None:
    """The unique split (w', w'') of interp.w with image(w') = s·left and
    image(w'') = right·t, if it exists; image(w) must be s·left·right·t."""
    system.require_pdf0l()
    alphabet = system.alphabet
    s, w, t = map(alphabet.encode, interp)
    left = alphabet.encode(left)
    phi = system.morphism
    if w.translate(phi.table) != s + left + alphabet.encode(right) + t:
        raise PreconditionError("image(w) must equal s·left·right·t")
    index = _cut(_cuts(phi, len(s), w), len(left))
    if index is None:
        return None
    return PairSplit(alphabet.decode(w[:index]), alphabet.decode(w[index:]))


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
    u = tuple(u)
    return _word_sync(_require_word(
        system, u, "the empty word has no synchronization status"), len(u))


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
    letter = _strong_letter(system, _pair_ends(system, left, right))
    return None if letter is None else system.alphabet.letters[ord(letter)]


def is_strongly_synchronizing(system: DF0LSystem, left, right) -> bool:
    return strong_sync_letter(system, left, right) is not None
