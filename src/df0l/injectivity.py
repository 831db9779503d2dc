"""Injectivity-collision enumeration and twined-morphism verification.

Whether a morphism is eventually injective on its language is not known to
be decidable, so collision enumeration is bounded by a word length and the
delta estimate derived from it is a lower bound: exact exactly when no
longer collisions exist.
"""

from dataclasses import dataclass

from .errors import PreconditionError
from .language import contains, factor_language
from .system import DF0LSystem, LetterMap, Morphism, code_key
from .words import Word


@dataclass(frozen=True)
class CollisionPair:
    u: Word
    v: Word


def collisions_upto(system: DF0LSystem, max_len: int) -> list[CollisionPair]:
    """All unordered pairs of distinct language words of length <= max_len
    with equal images, grouped by image, in canonical order."""
    system.require_pdf0l()
    if max_len < 1:
        raise PreconditionError("max_len must be >= 1")
    table = system.morphism.table
    by_image = {}
    # the codes come in canonical order, and so does every group
    for w in factor_language(system, max_len)._codes():
        by_image.setdefault(w.translate(table), []).append(w)
    pairs = []
    for group in by_image.values():
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                pairs.append((group[i], group[j]))
    pairs.sort(key=lambda p: (code_key(p[0]), code_key(p[1])))
    decode = system.alphabet.decode
    return [CollisionPair(decode(u), decode(v)) for u, v in pairs]


def delta_estimate(system: DF0LSystem, max_len: int) -> tuple[int, int]:
    """(lower bound for the maximal collision image length, pairs found).

    The bound is exact iff no collision pair has a member longer than
    max_len; callers must treat it as a bound, never as the exact value.
    """
    pairs = collisions_upto(system, max_len)
    return _delta_bound(system, pairs), len(pairs)


def _delta_bound(system: DF0LSystem, pairs) -> int:
    """The longest common image among the collision pairs (0 for none)."""
    return max((len(system.morphism.apply(p.u)) for p in pairs), default=0)


def collision_family_check(system: DF0LSystem, n: int, seed_u, seed_v) -> bool:
    """Verify the recurrence u1 = seed_u, u_{k+1} = u1·image(u_k) (same for v)
    yields genuine collisions up to n: distinct members, equal images, both
    in the language."""
    system.require_pdf0l()
    if n < 1:
        raise PreconditionError("n must be >= 1")
    u = seed_u = system.alphabet.check_word(seed_u)
    v = seed_v = system.alphabet.check_word(seed_v)
    phi = system.morphism
    for _ in range(n):
        if u == v or phi.apply(u) != phi.apply(v):
            return False
        if not contains(system, u) or not contains(system, v):
            return False
        u = seed_u + phi.apply(u)
        v = seed_v + phi.apply(v)
    return True


@dataclass(frozen=True)
class TwinedData:
    phi: Morphism
    psi: Morphism
    alpha: LetterMap
    beta: LetterMap


def find_twined_failure(data: TwinedData) -> str | None:
    """First letter breaking beta∘alpha = phi or alpha∘beta = psi, or None."""
    for a in data.phi.alphabet:
        if data.beta.apply(data.alpha.image(a)) != data.phi.image(a):
            return a
    for b in data.psi.alphabet:
        if data.alpha.apply(data.beta.image(b)) != data.psi.image(b):
            return b
    return None


def verify_twined(data: TwinedData) -> bool:
    return find_twined_failure(data) is None


def twined_commutation_check(data: TwinedData, k: int, sample_words,
                             image_samples=None) -> bool:
    """Check alpha∘phi^k = psi^k∘alpha on the samples over phi's alphabet and
    phi^k∘beta = beta∘psi^k on the image samples (derived via alpha when not
    given)."""
    if k < 0:
        raise PreconditionError("k must be >= 0")
    sample_words = [data.phi.alphabet.check_word(w) for w in sample_words]
    if image_samples is None:
        image_samples = [data.alpha.apply(w) for w in sample_words]
    else:
        image_samples = [data.psi.alphabet.check_word(z) for z in image_samples]
    for w in sample_words:
        if data.alpha.apply(data.phi.apply_power(w, k)) != \
                data.psi.apply_power(data.alpha.apply(w), k):
            return False
    for z in image_samples:
        if data.phi.apply_power(data.beta.apply(z), k) != \
                data.beta.apply(data.psi.apply_power(z, k)):
            return False
    return True


def simplification_language_check(system: DF0LSystem, target: DF0LSystem,
                                  alpha: LetterMap, beta: LetterMap,
                                  max_len: int) -> bool:
    """Bounded check that alpha maps the source language into the target
    language and beta maps the target language back."""
    system.require_pdf0l()
    target.require_pdf0l()
    if max_len < 0:
        raise PreconditionError("max_len must be >= 0")
    alpha_stretch = max(1, max(len(alpha.image(a)) for a in system.alphabet))
    beta_stretch = max(1, max(len(beta.image(b)) for b in target.alphabet))
    target_words = factor_language(target, max_len * alpha_stretch)
    for w in factor_language(system, max_len).all_words():
        if alpha.apply(w) not in target_words:
            return False
    source_words = factor_language(system, max_len * beta_stretch)
    for z in factor_language(target, max_len).all_words():
        if beta.apply(z) not in source_words:
            return False
    return True
