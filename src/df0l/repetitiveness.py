"""Unbounded-repetitiveness detection through periodic morphic fixed points.

If some power image^l of the morphism maps a letter a to a word starting
with a, then x = image^l(x) is a one-sided fixed point.  For a prefix
u = x[:m], image^l(u) is the prefix x[:total] of x, total = |image^l(u)|,
so image^l(u) = u^n, n = total / m >= 2, holds exactly when m divides total
and x[:total] has period m.  Then every power of u is a language factor: a
certified positive.  A negative answer is complete only up to the searched
period and power bounds and must be read as "no certificate found".
"""

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

from .errors import PreconditionError
from .language import _member, _record, factor_language
from .system import DF0LSystem, LetterMap, unbounded_letters
from .words import Word, factors, is_conjugate, is_primitive, occurrences, primitive_root


@dataclass(frozen=True)
class RepetitivenessVerdict:
    repetitive: bool
    letter: str | None
    power: int | None          # iterate l of the morphism fixing the witness
    witness: Word | None       # primitive u with image^l(u) = u^exponent
    exponent: int | None
    period_bound: int
    power_bound: int


@dataclass(frozen=True)
class OmegaCandidate:
    word: Word
    verified_power: int
    unbounded: bool


def default_period_bound(system: DF0LSystem) -> int:
    """Heuristic witness-period bound; generous at desk scale."""
    return max(64, system.morphism.max_image_len ** (len(system.alphabet) + 1))


def _fixed_prefix(phi, letter: str, n: int) -> str:
    # first n letters, as a code string, of the fixed point x at the code
    # `letter`, whose image starts with `letter` and is longer: x = image(x[0])
    # image(x[1]) ..., so x grows by the images of its own letters after the
    # first, at most as many at a time as letters are missing, since no image
    # is empty; a list, since appending to a str may copy it every time
    word = list(phi.image_codes[letter])
    table = phi.table
    i = 1
    while len(word) < n:
        batch = word[i:i + n - len(word)]
        word += "".join(batch).translate(table)
        i += len(batch)
    return "".join(word[:n])


def fixed_point_prefix(system: DF0LSystem, letter: str, power: int, n: int) -> Word:
    """First n letters of the fixed point lim image^(power·k)(letter)."""
    system.require_pdf0l()
    if power < 1 or n < 1:
        raise PreconditionError("power and n must be >= 1")
    alphabet = system.alphabet
    code = alphabet.encode((letter,))
    phi = system.morphism.power(power)
    start = phi.image_codes[code]
    if len(start) < 2 or start[0] != code:
        raise PreconditionError(
            f"image^{power}({letter}) must start with {letter} and be longer")
    return alphabet.decode(_fixed_prefix(phi, code, n))


def detect_unbounded_repetitive(system: DF0LSystem,
                                period_bound: int | None = None) -> RepetitivenessVerdict:
    """Scan every language letter a and every power l up to the alphabet
    size with image^l(a) starting with a, testing the prefixes u = x[:m],
    m <= period_bound, of the fixed point x, shortest first, for
    image^l(u) = u^n, n >= 2.

    The test is a period test: image^l(u) is x[:total], total = |image^l(u)|,
    so image^l(u) = u^n iff m divides total and x[:total] has period m.  It
    is exact, not a sampled check.  The prefix x[:period_bound] is built
    once per (a, l), linearly, and each m is filtered by one comparison of
    x[m:seen] with x[:seen-m], seen = min(total, period_bound).  When total
    exceeds period_bound, a survivor is confirmed one letter image of u at a
    time against u repeated, so memory stays O(period_bound + max image).
    The first u that passes is primitive: if u = r^j, j >= 2, then
    image^l(r)^j = u^n = r^(jn), so image^l(r) = r^n and the shorter prefix
    r passes first.  The verdict is computed once per system and period
    bound."""
    system.require_pdf0l()
    if period_bound is None:
        period_bound = default_period_bound(system)
    if period_bound < 1:
        raise PreconditionError("period_bound must be >= 1")
    verdicts = _record(system, 1).verdicts
    if period_bound not in verdicts:
        verdicts[period_bound] = _scan(system, period_bound)
    return verdicts[period_bound]


def _scan(system: DF0LSystem, period_bound: int) -> RepetitivenessVerdict:
    phi = system.morphism
    alphabet = system.alphabet
    power_bound = len(alphabet)
    letters = _record(system, 1).levels[1]
    powers = []     # powers[l - 1] = image^l, built when first needed
    for a in alphabet.codes:
        if a not in letters:
            continue
        for ell in range(1, power_bound + 1):
            if len(powers) < ell:
                powers.append(phi.power(ell))
            power = powers[ell - 1]
            images = power.image_codes
            start = images[a]
            if len(start) < 2 or start[0] != a:
                continue
            prefix = _fixed_prefix(power, a, period_bound)
            # ends[m - 1] = |image^l(prefix[:m])|
            ends = list(accumulate(map(len, map(images.__getitem__, prefix))))
            for m, total in enumerate(ends, 1):
                if total % m or total < 2 * m:
                    continue
                seen = min(total, period_bound)
                if prefix[m:seen] != prefix[:seen - m]:
                    continue
                if total > period_bound and not _tiles(power, prefix, ends, m):
                    continue
                return RepetitivenessVerdict(
                    True, alphabet.letters[ord(a)], ell, alphabet.decode(prefix[:m]),
                    total // m, period_bound, power_bound)
    return RepetitivenessVerdict(False, None, None, None, None, period_bound, power_bound)


def _tiles(power, prefix: str, ends, m) -> bool:
    """Whether image^l(u), u = prefix[:m], continues u repeated past the end
    of the prefix, which already has period m.  Its letter images are read
    one at a time from the first that reaches past the prefix, each against
    a window of u repeated just long enough for any image."""
    u = prefix[:m]
    ring = u * (2 + power.max_image_len // m)
    j = bisect_right(ends, len(prefix), 0, m)
    pos = ends[j - 1] if j else 0
    images = power.image_codes
    for c in u[j:]:
        image = images[c]
        if not ring.startswith(image, pos % m):
            return False
        pos += len(image)
    return True


def omega_candidates(system: DF0LSystem, max_len: int, power: int) -> list[OmegaCandidate]:
    """Primitive words v with |v| <= max_len and v^power in the language,
    tagged with unboundedness: a necessary-condition sample of the words
    whose every power stays in the language."""
    system.require_pdf0l()
    if max_len < 1 or power < 1:
        raise PreconditionError("max_len and power must be >= 1")
    alphabet = system.alphabet
    unbounded = set(alphabet.encode(unbounded_letters(system.morphism)))
    out = []
    for v in factor_language(system, max_len)._codes():
        if not v or not is_primitive(v):
            continue
        if _member(system, v * power):
            out.append(OmegaCandidate(alphabet.decode(v), power,
                                      not unbounded.isdisjoint(v)))
    return out


def find_power_in_preimage(mapping, z, v, power: int) -> tuple[Word, int]:
    """Pull a repetition back through an injective letter map.

    Given mapping(z) a factor of some power of the primitive word v, locate
    by pigeonhole on prefix-image lengths mod |v| a primitive u whose power
    u^n (n >= power) is a factor of z and whose image has primitive root
    conjugate to v.  The map must be injective on the factors of z.
    """
    if isinstance(mapping, dict):
        mapping = LetterMap(mapping)
    z, v = tuple(z), tuple(v)
    if power < 2:
        raise PreconditionError("power must be >= 2")
    if not z or not v:
        raise PreconditionError("z and v must be non-empty")
    if not is_primitive(v):
        raise PreconditionError("v must be primitive")
    by_image = {}
    for f in factors(z, len(z)):
        if f:
            by_image.setdefault(mapping.apply(f), []).append(f)
    for image, group in by_image.items():
        if len(group) > 1:
            a, b = sorted(group)[:2]
            raise PreconditionError(
                f"map is not injective on factors of z: {' '.join(a)} and {' '.join(b)}")
    image_z = mapping.apply(z)
    if not image_z:
        raise PreconditionError("mapping erases z entirely")
    reps = len(image_z) // len(v) + 2
    if not occurrences(image_z, v * reps):
        raise PreconditionError("mapping(z) is not a factor of a power of v")

    classes = {}
    acc = 0
    classes.setdefault(0, []).append(0)
    for j, letter in enumerate(z, 1):
        acc += len(mapping.image(letter))
        classes.setdefault(acc % len(v), []).append(j)
    best = max(classes.values(), key=len)
    if len(best) < power + 1:
        raise PreconditionError(
            f"z is too short to exhibit a {power}-th power through the map")
    segments = [z[best[i]:best[i + 1]] for i in range(len(best) - 1)]
    root, _ = primitive_root(segments[0])
    exponent = 0
    for seg in segments:
        seg_root, seg_exp = primitive_root(seg)
        if seg_root != root:
            raise PreconditionError("pigeonhole segments disagree; map not injective")
        exponent += seg_exp
    if root * exponent != z[best[0]:best[-1]]:
        raise AssertionError("extracted power does not tile the segment")
    if not is_conjugate(primitive_root(mapping.apply(root))[0], v):
        raise AssertionError("extracted root does not project onto v")
    return root, exponent


def lift_repetition(system: DF0LSystem, v, search_len: int,
                    min_power: int = 3) -> Word | None:
    """Search for a primitive language word u with primitive_root(image(u))
    conjugate to v and u^min_power still in the language — bounded evidence
    that the repetition generated by v lifts through the morphism.  Squares
    alone are too weak a filter (they occur in many non-repetitive systems),
    so the default demands cubes."""
    system.require_pdf0l()
    v = system.alphabet.encode(v)
    if not v or not is_primitive(v):
        raise PreconditionError("v must be a non-empty primitive word")
    if search_len < 1:
        raise PreconditionError("search_len must be >= 1")
    table = system.morphism.table
    for u in factor_language(system, search_len)._codes():
        if not u or not is_primitive(u):
            continue
        image = u.translate(table)
        if not image or not is_conjugate(primitive_root(image)[0], v):
            continue
        if _member(system, u * min_power):
            return system.alphabet.decode(u)
    return None
