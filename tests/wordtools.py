"""Word helpers kept as test oracles: primitive roots, conjugacy, pattern
occurrences and the factors of one word.  primitive_root, is_primitive,
occurrences and is_conjugate read any sequence, so they take both words of
letter tokens and code strings.
"""

from df0l.words import Word


def primitive_root(word: Word) -> tuple[Word, int]:
    """Return (root, exponent) with root primitive and root * exponent == word."""
    n = len(word)
    if n == 0:
        raise ValueError("the empty word has no primitive root")
    for d in range(1, n // 2 + 1):
        if n % d == 0 and word[:d] * (n // d) == word:
            return word[:d], n // d
    return word, 1


def is_primitive(word: Word) -> bool:
    return primitive_root(word)[1] == 1


def occurrences(pattern: Word, word: Word) -> list[int]:
    """Ascending 0-based start positions of pattern inside word."""
    if not pattern:
        raise ValueError("pattern must be non-empty")
    m = len(pattern)
    return [i for i in range(len(word) - m + 1) if word[i:i + m] == pattern]


def is_conjugate(u: Word, v: Word) -> bool:
    """True iff u and v are rotations of each other."""
    if len(u) != len(v):
        return False
    if not u:
        return True
    return bool(occurrences(v, u + u))


def factors(word: Word, max_len: int) -> set[Word]:
    """All factors of word of length <= max_len, including the empty word."""
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    out: set[Word] = {()}
    n = len(word)
    for i in range(n):
        top = min(n, i + max_len)
        for j in range(i + 1, top + 1):
            out.add(word[i:j])
    return out
