"""Factor languages, grown one length at a time, and all that df0l remembers.

A language word x of length n is a factor of an axiom or a tight factor of
image(v), where v, the cover of x in the previous iterate, is a language
word: x starts inside the image of v's first letter and ends inside the
image of its last.  Images are non-empty, so |v| <= n, and level n (the
words of length n) follows from the shorter levels and from its own words.
Each system has one record, the only memoized state in df0l.  Its levels, a
frozenset per length, only grow: a word joining its level is registered, by
reference, under the longer lengths its tight factors reach, so raising the
bound computes only the new levels.  Growth holds one lock and appends whole
levels, which never change, so readers need no lock.  The record also keeps
the minimal interpretations of queried words, all forgotten at once when
_PARSE_MEMO_SIZE are held, and the repetitiveness verdict per period bound.
FactorSet values are immutable views of the first max_len + 1 levels.
"""

import threading
from itertools import chain

from .errors import NotInLanguageError, PreconditionError
from .system import DF0LSystem
from .words import Word


class FactorSet:
    """Immutable length-bounded slice of a system's factor language."""

    __slots__ = ("system", "max_len", "_levels")

    def __init__(self, system: DF0LSystem, max_len: int, levels):
        self.system = system
        self.max_len = max_len
        self._levels = tuple(levels[:max_len + 1])

    @property
    def words(self) -> frozenset:
        return frozenset().union(*self._levels)

    def __contains__(self, word) -> bool:
        word = tuple(word)
        return len(word) <= self.max_len and word in self._levels[len(word)]

    def __len__(self):
        return sum(map(len, self._levels))

    def all_words(self) -> list[Word]:
        """Every word in canonical order, which is length first."""
        return [w for n in range(self.max_len + 1) for w in self.words_of_length(n)]

    def words_of_length(self, n: int) -> tuple[Word, ...]:
        level = self._levels[n] if 0 <= n <= self.max_len else ()
        return tuple(sorted(level, key=self.system.alphabet.word_key))

    def __repr__(self):
        return f"FactorSet(max_len={self.max_len}, words={len(self)})"


class _Record:
    """What df0l remembers about one system; see the module docstring."""

    __slots__ = ("levels", "registered", "parses", "verdicts")

    def __init__(self):
        self.levels = [frozenset({()})]
        self.registered = {}    # length -> words whose images have tight factors of it
        self.parses = {}        # word -> its minimal interpretations with their cuts
        self.verdicts = {}      # period bound -> RepetitivenessVerdict

    def remember_parses(self, u: Word, parses: tuple) -> tuple:
        if len(self.parses) >= _PARSE_MEMO_SIZE:
            self.parses.clear()
        self.parses[u] = parses
        return parses


_PARSE_MEMO_SIZE = 1 << 17
_RECORDS: dict[DF0LSystem, _Record] = {}
_GROWTH = threading.Lock()


def clear_language_cache():
    """Forget everything remembered about every system."""
    _RECORDS.clear()


def clear_interpretation_cache():
    """Forget the minimal interpretations; levels and verdicts stay."""
    for record in list(_RECORDS.values()):
        record.parses.clear()


def _next_level(system: DF0LSystem, n: int, registered: dict) -> frozenset:
    """Level n from the axioms, the words registered under n and its own words."""
    images = system.morphism.images
    lengths = {a: len(image) for a, image in images.items()}

    def tight(v):
        image = tuple(chain.from_iterable(map(images.__getitem__, v)))
        total = len(image)
        return [image[start:start + n] for start in range(
            max(0, total - lengths[v[-1]] + 1 - n), min(lengths[v[0]], total - n + 1))]

    level = {a[i:i + n] for a in system.axioms for i in range(len(a) - n + 1)}
    for v in registered.pop(n, ()):
        level.update(tight(v))
    todo = list(level)
    for x in todo:      # grows while the level closes over its own words
        total = sum(map(lengths.__getitem__, x))
        shortest = max(n, total - lengths[x[0]] - lengths[x[-1]] + 2)
        if shortest == n:
            new = set(tight(x)) - level
            level |= new
            todo.extend(new)
        for k in range(max(shortest, n + 1), total + 1):
            registered.setdefault(k, []).append(x)
    return frozenset(level)


def _record(system: DF0LSystem, max_len: int) -> _Record:
    """The system's record, its levels (the words by length) grown to cover max_len."""
    system.require_pdf0l()
    record = _RECORDS.get(system)
    if record is None or len(record.levels) <= max_len:
        with _GROWTH:
            record = _RECORDS.setdefault(system, _Record())
            levels = record.levels
            while len(levels) <= max_len:
                levels.append(_next_level(system, len(levels), record.registered))
    return record


def factor_language(system: DF0LSystem, max_len: int) -> FactorSet:
    """Exactly the language factors of length <= max_len, as a FactorSet."""
    if max_len < 0:
        raise PreconditionError("max_len must be >= 0")
    return FactorSet(system, max_len, _record(system, max_len).levels)


def contains(system: DF0LSystem, word) -> bool:
    """Membership of a word in the factor language."""
    word = system.alphabet.check_word(word)
    return word in _record(system, len(word)).levels[len(word)]


def require_member(system: DF0LSystem, word) -> Word:
    word = system.alphabet.check_word(word)
    if word not in _record(system, len(word)).levels[len(word)]:
        raise NotInLanguageError(f"word {' '.join(word) or 'ε'!r} is not in the language")
    return word
