"""Injectivity-collision enumeration and twined-morphism verification.

Whether a morphism is injective on every word is decidable: it is iff its
images form a code (fact 4 below).  Whether it is eventually injective on
its language is not known to be decidable, so collision enumeration is
bounded by a word length and the delta estimate derived from it is a lower
bound: exact exactly when no longer collisions exist.  A morphism whose
images form a code has no collision at all, so collisions_upto answers it
from the images alone and builds no language.

The twined checks are exact and need no bound.  Let phi and psi be the
morphisms of two systems with languages L(phi) and L(psi), and alpha and
beta letter maps between their alphabets, applied homomorphically.

1. alpha∘phi and psi∘alpha are morphisms, and morphisms that agree on the
   letters agree on every word.  So alpha∘phi = psi∘alpha iff
   alpha(phi(a)) = psi(alpha(a)) for each letter a, likewise for
   phi∘beta = beta∘psi, and then by induction (alpha∘phi^(k+1) =
   psi^k∘alpha∘phi = psi^(k+1)∘alpha) alpha∘phi^k = psi^k∘alpha and
   phi^k∘beta = beta∘psi^k for every k.
2. Under commutation, alpha maps L(phi) into L(psi) iff alpha(w) is in
   L(psi) for every axiom w of phi's system, and likewise for beta.  The
   axioms are in L(phi).  Conversely, a word x of L(phi) is a factor of
   some phi^k(w), so alpha(x) is a factor of alpha(phi^k(w)) =
   psi^k(alpha(w)); L(psi) is closed under psi and under factors, so with
   alpha(w) it holds both.
3. Twining implies commutation: alpha∘phi = alpha∘beta∘alpha = psi∘alpha,
   and phi∘beta = beta∘alpha∘beta = beta∘psi.

The code test (Sardinas and Patterson, IRE Trans. Inform. Theory, 1953)
reads a non-erasing phi's set C of images.  A dangling suffix is a member
of some U(n): U(1) = C^-1 C minus the empty word, the d with c d = c' for
codewords c != c', and U(n+1) = C^-1 U(n) ∪ U(n)^-1 C, the d' with
c d' = d or d d' = c for a codeword c and d in U(n).

4. If phi's images are distinct and no dangling suffix is a codeword, phi
   is injective on every word.  Take phi(u) = phi(v) with u != v.  Neither
   word is a prefix of the other, as no image is empty, so after their
   longest common prefix u = x a u' and v = x b v' with letters a != b, and
   phi(a u') = phi(b v').  phi(a) != phi(b), and both are prefixes of one
   word, so one is a proper prefix of the other: the longer overhangs it
   by a d in U(1).  Read the two factorizations into images from the left.
   While the side ahead overhangs the other by a dangling suffix d, the
   side behind has a next image c, since both sides end at the same
   length, and c and d are prefixes of the same word.  If c is a proper
   prefix of d, the same side stays ahead by c^-1 d; if d is a proper
   prefix of c, the sides swap and the new overhang is d^-1 c; both are
   dangling suffixes of the next U.  The length read grows at every step,
   so the reading ends, and it can only end with c = d, a dangling suffix
   that is a codeword.
   Conversely, every d in U(n) has words p, q with different first letters
   and phi(p) d = phi(q) (by induction on n, from the same two cases), so
   a dangling codeword phi(e) gives the collision phi(p e) = phi(q).
   Every dangling suffix is a suffix of a codeword, so there are at most
   the sum of |phi(a)| of them, and one worklist over them decides the
   test.
"""

from collections import namedtuple
from itertools import combinations

from .errors import PreconditionError
from .language import _member, factor_language
from .system import DF0LSystem, LetterMap, code_key


class CollisionPair(namedtuple("CollisionPair", "u v")):
    """Two distinct language words u and v (Word) with equal images."""
    __slots__ = ()


def collisions_upto(system: DF0LSystem, max_len: int) -> list[CollisionPair]:
    """All unordered pairs of distinct language words of length <= max_len
    with equal images, grouped by image, in canonical order."""
    system.require_pdf0l()
    if max_len < 1:
        raise PreconditionError("max_len must be >= 1")
    if _is_code(system.morphism):
        return []       # injective on every word (fact 4)
    table = system.morphism.table
    by_image = {}
    # the codes come in canonical order, and so does every group
    for w in factor_language(system, max_len)._codes():
        by_image.setdefault(w.translate(table), []).append(w)
    pairs = [pair for group in by_image.values() for pair in combinations(group, 2)]
    # a word lies in one group, whose pairs come in order, and the sort is stable
    pairs.sort(key=lambda p: code_key(p[0]))
    decode = system.alphabet.decode
    return [CollisionPair(decode(u), decode(v)) for u, v in pairs]


def _is_code(phi) -> bool:
    """Whether the images of the non-erasing phi are distinct and no dangling
    suffix is a codeword (fact 4 of the module docstring), by one worklist
    over the dangling suffixes: a codeword that is a prefix of d is found by
    looking up d's prefixes of codeword lengths, and a codeword that d is a
    proper prefix of through a table from each proper prefix of a codeword
    to its remainders.  A codeword length k >= |d| finds nothing: d[:k] is
    d itself, which has just been found not to be a codeword."""
    codewords = set(phi.image_codes.values())
    if len(codewords) < len(phi.image_codes):
        return False
    lengths = set(map(len, codewords))
    remainders = {}
    for c in codewords:
        for k in range(1, len(c)):
            remainders.setdefault(c[:k], []).append(c[k:])
    todo = [d for c in codewords for d in remainders.get(c, ())]    # U(1)
    seen = set(todo)
    while todo:
        d = todo.pop()
        if d in codewords:
            return False
        found = [d[k:] for k in lengths if d[:k] in codewords]
        for e in found + remainders.get(d, []):
            if e not in seen:
                seen.add(e)
                todo.append(e)
    return True


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
    in the language.  The seeds are encoded once, and the members are
    stepped as code strings."""
    system.require_pdf0l()
    if n < 1:
        raise PreconditionError("n must be >= 1")
    u = seed_u = system.alphabet.encode(seed_u)
    v = seed_v = system.alphabet.encode(seed_v)
    table = system.morphism.table
    for _ in range(n):
        image = u.translate(table)
        if (u == v or v.translate(table) != image
                or not (_member(system, u) and _member(system, v))):
            return False
        u, v = seed_u + image, seed_v + image
    return True


class TwinedData(namedtuple("TwinedData", "phi psi alpha beta")):
    """A candidate twined pair: the morphisms phi and psi (Morphism) of the
    two systems and the letter maps alpha: phi's letters -> psi's words and
    beta: psi's letters -> phi's words (LetterMap)."""
    __slots__ = ()


def _require_matching_alphabets(data: TwinedData):
    """The checks compare code strings, and codes follow each alphabet's
    declaration order, so each map must read and write the letters of the
    morphisms' alphabets in the same order."""
    phi, psi = data.phi.alphabet.letters, data.psi.alphabet.letters
    if ((data.alpha.alphabet.letters, data.alpha.target.letters,
         data.beta.alphabet.letters, data.beta.target.letters) != (phi, psi, psi, phi)):
        raise PreconditionError("alpha must map phi's alphabet to psi's, "
                                "and beta psi's alphabet to phi's")


def find_twined_failure(data: TwinedData) -> str | None:
    """First letter breaking beta∘alpha = phi or alpha∘beta = psi, or None:
    phi's letters first, then psi's, each in declaration order."""
    _require_matching_alphabets(data)
    for phi, alpha, beta in ((data.phi, data.alpha, data.beta),
                             (data.psi, data.beta, data.alpha)):
        for a, code, image in zip(phi.alphabet, alpha.image_codes.values(),
                                  phi.image_codes.values()):
            if code.translate(beta.table) != image:
                return a
    return None


def twined_commutation_check(data: TwinedData) -> bool:
    """Whether alpha∘phi = psi∘alpha and phi∘beta = beta∘psi, and so
    alpha∘phi^k = psi^k∘alpha and phi^k∘beta = beta∘psi^k for every k
    (fact 1 of the module docstring)."""
    _require_matching_alphabets(data)
    phi, psi, alpha, beta = data
    return all(f.image_codes[a].translate(m.table) == m.image_codes[a].translate(g.table)
               for f, g, m in ((phi, psi, alpha), (psi, phi, beta))
               for a in f.alphabet.codes)


def simplification_language_check(system: DF0LSystem, target: DF0LSystem,
                                  alpha: LetterMap, beta: LetterMap) -> bool:
    """Whether alpha maps the source language into the target language and
    beta maps the target language back, read from the axioms (fact 2 of the
    module docstring); the maps must commute with the two morphisms."""
    system.require_pdf0l()
    target.require_pdf0l()
    if not twined_commutation_check(
            TwinedData(system.morphism, target.morphism, alpha, beta)):
        raise PreconditionError("alpha and beta must commute with the morphisms")
    return (all(_member(target, code.translate(alpha.table)) for code in system.axiom_codes)
            and all(_member(system, code.translate(beta.table)) for code in target.axiom_codes))
