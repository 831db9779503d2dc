"""Interpretations of words inside morphism images, and synchronization tests.

An interpretation of u is a triple (s, w, t) with w in the language and
image(w) = s·u·t; it is minimal when s is shorter than the image of w's
first letter and t shorter than the image of its last letter.  Checking
pairs against minimal interpretations suffices for admissibility and for
weak/strong synchronization, because any witnessing split survives trimming
w down to its minimal core.

Minimal interpretations are found by desubstitution, in one pass over u
from left to right.  The pass keeps a frontier: the minimal interpretations
of the prefix read so far, each held as (s, w, the image of w's last
letter, how many letters of that image are matched).  The frontier of u[:1]
holds every language letter a and offset s < |image(a)| with
image(a)[s] = u[0].  For each next letter c, a state whose last image still
has unmatched letters advances if its next letter is c; a state whose last
image is finished extends w by each letter b whose image starts with c, and
keeps w·b only if it is a language word.  At the end, the unmatched rest of
each state's last image is its t.

This is exact because every minimal interpretation (s, w, t) of u[:i+1]
restricts to one of u[:i]: w is kept and t grows by u[i], or, when the
image of w's last letter starts at u[i], w drops that letter and t is
empty; s and the first letter of w stay.  So the frontier after u[:i] is
exactly the set of minimal interpretations of u[:i], with no duplicates, as
(s, w) fixes the state.  A minimal interpretation of a prefix of u is no
longer than the length bound of u, so the pass reads only the levels that
`interpretation_length_bounds` allows, and since the language is factorial
its work follows the minimal interpretations of the prefixes, not the size
of the language.  The same recurrence decides membership: u is in the
language iff it is a factor of an axiom or has a minimal interpretation,
so the public predicates grow no level beyond that bound.  Each word's
parses are memoized in the system's record in `language`.

Each parse carries its cut tuple: cuts[i] = |image(w[:i])| - |s| for
i = 0..|w|, the offset in u at which the image of each prefix of w ends.
A split of u after k letters is compatible with the interpretation exactly
when k is a cut, at the prefix i with cuts[i] == k.  Every split decision
reads one primitive, `_split_ends(system, u, k)`: per interpretation, None
(k is not a cut), `_LEFT_EMPTY` or the letter that ends the left part of w.
A pair is admissible when some entry is not None, weakly synchronizing when
none is None, strongly synchronizing when all are one letter.  Public
predicates check the caller's input and then call these cores; the
threshold searches call the cores directly on language words.  All of
this runs on code strings (see `Alphabet`): the public functions encode the
caller's words and decode their answers.
"""

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, islice

from .errors import NotInLanguageError, PreconditionError
from .language import _record
from .system import DF0LSystem, code_key
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


def _cuts(phi, s_len: int, w: str) -> tuple[int, ...]:
    """|image(w[:i])| - s_len for i = 0..|w|: where in u each prefix image ends."""
    images = phi.image_codes
    return tuple(accumulate((len(images[b]) for b in w), initial=-s_len))


def _cut(cuts: tuple[int, ...], k: int) -> int | None:
    """The prefix length i with cuts[i] == k, if any.

    Cuts strictly increase along w because the morphism is non-erasing, so
    a split of u after k letters is compatible with at most one prefix.
    """
    i = bisect_left(cuts, k)
    return i if i < len(cuts) and cuts[i] == k else None


def _parses(system: DF0LSystem, u: str) -> tuple[tuple[str, str, str, tuple[int, ...]], ...]:
    """Every minimal interpretation (s, w, t) of the code string u, with its
    cuts, in canonical order: one left-to-right frontier pass over u."""
    record = _record(system, 0)     # a memoized word's levels are grown already
    known = record.parses.get(u)
    if known is not None:
        return known
    phi = system.morphism
    images = phi.image_codes
    _, hi = interpretation_length_bounds(system, u)
    levels = _record(system, hi).levels
    heads = {}      # heads[c]: the letters whose image starts with c, with their images
    for b, image in images.items():
        heads.setdefault(image[0], []).append((b, image))
    # the minimal interpretations of u[:1]: (s, w, image of w's last letter,
    # how many letters of that image are matched)
    frontier = [(image[:j], a, image, j + 1) for a, image in images.items()
                if a in levels[1] for j in range(len(image)) if image[j] == u[0]]
    for c in islice(u, 1, None):
        starting = heads.get(c, ())
        advanced = []
        for s, w, image, j in frontier:
            if j < len(image):
                if image[j] == c:
                    advanced.append((s, w, image, j + 1))
            else:
                level = levels[len(w) + 1]
                for b, next_image in starting:
                    v = w + b
                    if v in level:
                        advanced.append((s, v, next_image, 1))
        frontier = advanced
    found = sorted(((s, w, image[j:]) for s, w, image, j in frontier),
                   key=lambda i: (code_key(i[0]), code_key(i[1]), code_key(i[2])))
    return record.remember_parses(
        u, tuple((s, w, t, _cuts(phi, len(s), w)) for s, w, t in found))


# a letter code is one character, so this marks a split with an empty left part
_LEFT_EMPTY = ""


def _split_ends(system: DF0LSystem, u: str, k: int) -> list[str | None]:
    """Per minimal interpretation (s, w, t) of u, in canonical order, what a
    split of u after k letters leaves at the end of the left part of w."""
    ends = []
    for _, w, _, cuts in _parses(system, u):
        i = _cut(cuts, k)
        ends.append(None if i is None else w[i - 1] if i else _LEFT_EMPTY)
    return ends


def _admissible(ends: list[str | None]) -> bool:
    return any(end is not None for end in ends)


def _strong_letter(system: DF0LSystem, ends: list[str | None]) -> str | None:
    """The code of the common non-empty end letter; the first letter's code
    when the pair is vacuously synchronizing (no interpretation at all)."""
    if not ends:
        return system.alphabet.codes[0]
    first = ends[0]
    return first if first and ends.count(first) == len(ends) else None


def _word_sync(system: DF0LSystem, u: str) -> WordSyncReport:
    parses = _parses(system, u)
    if not parses:
        return WordSyncReport(True, 0, True)
    # the first parse's cuts are increasing: the first one shared by every
    # parse is the smallest offset in the intersection of the cut sets
    split = next((k for k in parses[0][3] if 0 <= k <= len(u)
                  and all(_cut(cuts, k) is not None for *_, cuts in parses[1:])), None)
    return WordSyncReport(split is not None, split, False)


def _require_word(system: DF0LSystem, u, message: str) -> str:
    """The code string of the caller's word, required to be a non-empty
    language word."""
    code = system.alphabet.encode(u)
    system.require_pdf0l()
    if not code:
        raise PreconditionError(message)
    # u is in the language iff it is a factor of an axiom or has a minimal
    # interpretation: the recurrence of the language module
    if not (_parses(system, code) or any(code in axiom for axiom in system.axiom_codes)):
        word = " ".join(system.alphabet.decode(code))
        raise NotInLanguageError(f"word {word!r} is not in the language")
    return code


def _pair_ends(system: DF0LSystem, left, right) -> list[str | None]:
    """The split primitive for the caller's pair, after the input checks."""
    left = tuple(left)
    u = _require_word(system, left + tuple(right),
                      "the pair must concatenate to a non-empty word")
    return _split_ends(system, u, len(left))


def minimal_interpretations(system: DF0LSystem, u) -> list[Interpretation]:
    """All minimal interpretations of u, deduplicated, in canonical order."""
    u = _require_word(system, u, "interpretations are defined for non-empty words")
    decode = system.alphabet.decode
    return [Interpretation(decode(s), decode(w), decode(t))
            for s, w, t, _ in _parses(system, u)]


def compatible_split(system: DF0LSystem, interp: Interpretation,
                     left, right) -> PairSplit | None:
    """The unique split (w', w'') of interp.w with image(w') = s·left and
    image(w'') = right·t, if it exists."""
    system.require_pdf0l()
    alphabet = system.alphabet
    left = alphabet.encode(left)
    right = alphabet.encode(right)
    phi = system.morphism
    w = alphabet.encode(interp.w)
    image = w.translate(phi.table)
    u = image[len(interp.s):len(image) - len(interp.t)]
    if left + right != u:
        raise PreconditionError("left·right must equal the interpreted word")
    index = _cut(_cuts(phi, len(interp.s), w), len(left))
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
    letter = _strong_letter(system, _pair_ends(system, left, right))
    return None if letter is None else system.alphabet.letters[ord(letter)]


def is_strongly_synchronizing(system: DF0LSystem, left, right) -> bool:
    return strong_sync_letter(system, left, right) is not None
