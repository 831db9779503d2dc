"""Factor languages, grown one length at a time.

A language word x of length n is a factor of an axiom or a tight factor of
image(v), where v, the cover of x in the previous iterate, is a language
word: x starts inside the image of v's first letter and ends inside the
image of its last.  Images are non-empty, so |v| <= n, and level n (the
words of length n) follows from the shorter levels and from its own words.
Each system has one store, a frozenset per length, that only grows: a word
joining its level is registered, by reference, under the longer lengths its
tight factors reach, so raising the bound computes only the new levels.
Growth holds one lock and appends whole levels, which never change, so
readers need no lock.  FactorSet values are immutable views of the first
max_len + 1 levels.
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


# system -> (levels, {length: the words whose images have tight factors of it})
_CACHE: dict[DF0LSystem, tuple[list[frozenset], dict[int, list[Word]]]] = {}
_GROWTH = threading.Lock()


def clear_language_cache():
    _CACHE.clear()


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


def _levels(system: DF0LSystem, max_len: int) -> list[frozenset]:
    """The system's levels, grown to cover max_len: levels[n] holds length n."""
    system.require_pdf0l()
    store = _CACHE.get(system)
    if store is None or len(store[0]) <= max_len:
        with _GROWTH:
            levels, registered = store = _CACHE.setdefault(system, ([frozenset({()})], {}))
            while len(levels) <= max_len:
                levels.append(_next_level(system, len(levels), registered))
    return store[0]


def factor_language(system: DF0LSystem, max_len: int) -> FactorSet:
    """Exactly the language factors of length <= max_len, as a FactorSet."""
    if max_len < 0:
        raise PreconditionError("max_len must be >= 0")
    return FactorSet(system, max_len, _levels(system, max_len))


def contains(system: DF0LSystem, word) -> bool:
    """Membership of a word in the factor language."""
    word = system.alphabet.check_word(word)
    return word in _levels(system, len(word))[len(word)]


def require_member(system: DF0LSystem, word) -> Word:
    word = system.alphabet.check_word(word)
    if word not in _levels(system, len(word))[len(word)]:
        raise NotInLanguageError(f"word {' '.join(word) or 'ε'!r} is not in the language")
    return word
