"""Factor-language enumeration by saturation.

The set of language factors up to a length bound is the least fixed point of
"factors of the axioms" together with "factors of images of members".  The
computation below closes the set under end-trimming (dropping the first or
last letter) and, for each member v, adds only the factors of image(v) that
start inside the image of v's first letter and end inside the image of its
last letter.  Every factor of an image has such a tight cover, and the cover
is never longer than the factor itself (images are non-empty), so saturation
at bound L is exact for the length-<=L slice of the language.

Results are cached per system.  FactorSet values are immutable and safe to
query concurrently; concurrent cache misses at worst duplicate work and
settle on identical values.
"""

from collections import deque

from .errors import NotInLanguageError, PreconditionError
from .system import DF0LSystem
from .words import Word


class FactorSet:
    """Immutable length-bounded slice of a system's factor language."""

    __slots__ = ("system", "max_len", "words", "_by_len")

    def __init__(self, system: DF0LSystem, max_len: int, words: frozenset):
        self.system = system
        self.max_len = max_len
        self.words = words
        self._by_len = None

    def __contains__(self, word) -> bool:
        return tuple(word) in self.words

    def __len__(self):
        return len(self.words)

    def all_words(self) -> list[Word]:
        """Every word in canonical order, which is length first."""
        return [w for n in range(self.max_len + 1) for w in self.words_of_length(n)]

    def words_of_length(self, n: int) -> tuple[Word, ...]:
        if self._by_len is None:
            by_len = {}
            for w in self.words:
                by_len.setdefault(len(w), []).append(w)
            key = self.system.alphabet.word_key
            self._by_len = {n: tuple(sorted(ws, key=key)) for n, ws in by_len.items()}
        return self._by_len.get(n, ())

    def restrict(self, max_len: int) -> "FactorSet":
        if max_len >= self.max_len:
            return self
        return FactorSet(self.system, max_len,
                         frozenset(w for w in self.words if len(w) <= max_len))

    def __repr__(self):
        return f"FactorSet(max_len={self.max_len}, words={len(self.words)})"


_CACHE: dict[DF0LSystem, FactorSet] = {}


def clear_language_cache():
    _CACHE.clear()


def _saturate(system: DF0LSystem, max_len: int) -> frozenset:
    phi = system.morphism
    known: set[Word] = {()}
    queue: deque[Word] = deque()

    def add_closed(word):
        # insert word plus its end-trim closure (= all of its factors)
        stack = [word]
        while stack:
            x = stack.pop()
            if x in known:
                continue
            known.add(x)
            queue.append(x)
            if len(x) > 1:
                stack.append(x[1:])
                stack.append(x[:-1])

    for axiom in system.axioms:
        if len(axiom) <= max_len:
            add_closed(axiom)
        else:
            for i in range(len(axiom) - max_len + 1):
                add_closed(axiom[i:i + max_len])

    while queue:
        v = queue.popleft()
        if not v:
            continue
        first_len = len(phi.image(v[0]))
        last_len = len(phi.image(v[-1]))
        image = phi.apply(v)
        total = len(image)
        if total - first_len - last_len + 2 > max_len and len(v) > 1:
            continue
        for start in range(first_len):
            for end in range(max(total - last_len + 1, start + 1), total + 1):
                if end - start <= max_len:
                    add_closed(image[start:end])
    return frozenset(known)


def _language_at_least(system: DF0LSystem, max_len: int) -> FactorSet:
    """Cached FactorSet covering at least max_len (may cover more)."""
    system.require_pdf0l()
    fs = _CACHE.get(system)
    if fs is None or fs.max_len < max_len:
        fs = FactorSet(system, max_len, _saturate(system, max_len))
        _CACHE[system] = fs
    return fs


def factor_language(system: DF0LSystem, max_len: int) -> FactorSet:
    """Exactly the language factors of length <= max_len, as a FactorSet."""
    if max_len < 0:
        raise PreconditionError("max_len must be >= 0")
    return _language_at_least(system, max_len).restrict(max_len)


def contains(system: DF0LSystem, word) -> bool:
    """Membership of a word in the factor language."""
    word = system.alphabet.check_word(word)
    return word in _language_at_least(system, len(word)).words


def require_member(system: DF0LSystem, word) -> Word:
    word = system.alphabet.check_word(word)
    if word not in _language_at_least(system, len(word)).words:
        raise NotInLanguageError(f"word {' '.join(word) or 'ε'!r} is not in the language")
    return word
