"""Alphabets, morphisms, DF0L systems, and letter-growth analysis.

Inside df0l words are code strings (see Alphabet): a word of one-character
tokens is encoded by one str.translate of its spaced join, which is sound
because tokens hold no whitespace, and any other word token by token.  A
LetterMap, from a source alphabet to a target alphabet, holds each image
once, as a code string, with the str.translate table that maps a code
string to its image: apply translates once.  A Morphism is a LetterMap
onto its own alphabet, so Morphism.apply_power and Morphism.power iterate
the table and decode only the answer.  Each map holds its image-length
bounds.  classify_letters, the one way into letter growth, reads it off
one walk of alph vectors, the letter sets of the iterated images, so it
builds no power.
All objects here are immutable after construction and safe to share between
threads; every analysis is a pure function of its arguments.
"""

import sys
from collections import namedtuple
from operator import itemgetter

from .errors import ErasingMorphismError, InvalidSystemError, PreconditionError
from .words import Word


def _check_token(token):
    if not isinstance(token, str) or not token or any(c.isspace() for c in token):
        raise InvalidSystemError(f"bad letter token {token!r}")


class _NotALetter(Exception):
    """A character with no one-character token.  Not a LookupError, which
    str.translate would take as "leave the character as it is"."""


class _OneCharCodes(dict):
    """The str.translate table of the one-character tokens, by code point."""

    __slots__ = ()

    def __missing__(self, key):
        raise _NotALetter


class Alphabet:
    """Ordered set of letter tokens; declaration order is the canonical order.

    Inside df0l a word is a code string: letter i, in declaration order, is
    chr(i).  encode and decode convert at the library boundary, and code
    points follow declaration order, so (len(c), c) is the canonical order.

    encode reads a word of n one-character tokens with one str.translate:
    its spaced join J = " ".join(word) has 2n - 1 characters, and J[::2]
    translates through the table of the one-character tokens.  That is
    sound because a token holds no whitespace: when J has 2n - 1
    characters and every character at an even index is a one-character
    token, no separator sits at an even index, J has n - 1 odd indices
    for the n - 1 separators, so separator k is J[2k - 1], every element
    has one character, and J[::2] is the word.  Any other word takes the
    token-by-token path, with its errors: it fails the join or the length,
    or misses the table, as ("ab", "") does at the space of "ab "."""

    __slots__ = ("letters", "codes", "_encode", "_decode", "_one_char")

    def __init__(self, letters):
        letters = tuple(letters)
        if not letters:
            raise InvalidSystemError("alphabet is empty")
        if len(letters) > sys.maxunicode + 1:
            raise InvalidSystemError(f"alphabet has more than {sys.maxunicode + 1} letters")
        encode = {}
        for token in letters:
            _check_token(token)
            if token in encode:
                raise InvalidSystemError(f"duplicate letter {token!r}")
            encode[token] = chr(len(encode))
        self.letters = letters
        self.codes = "".join(encode.values())
        self._encode = encode
        self._decode = dict(zip(self.codes, letters))
        self._one_char = _OneCharCodes(
            (ord(token), code) for token, code in encode.items() if len(token) == 1)

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __contains__(self, token):
        return token in self._encode

    def __repr__(self):
        return f"Alphabet({' '.join(self.letters)})"

    def encode(self, word) -> str:
        """The code string of a word of letter tokens."""
        word = tuple(word)
        if not word:
            return ""
        try:
            spaced = " ".join(word)
            if len(spaced) == 2 * len(word) - 1:
                return spaced[::2].translate(self._one_char)
        except (TypeError, _NotALetter):
            pass
        try:
            # one item fetches a 1-character str, which join takes as well
            return "".join(itemgetter(*word)(self._encode))
        except KeyError as exc:
            raise InvalidSystemError(f"unknown letter {exc.args[0]!r}") from None

    def decode(self, code: str) -> Word:
        """The word of letter tokens of a code string."""
        if len(code) < 2:   # itemgetter fetches one item bare, and none raises
            return tuple(map(self._decode.__getitem__, code))
        return itemgetter(*code)(self._decode)

    def check_word(self, word: Word) -> Word:
        word = tuple(word)
        self.encode(word)
        return word


def code_key(code: str):
    """The canonical order of code strings: length first, then code points."""
    return len(code), code


class LetterMap:
    """Letter-to-word map from the letters of a source alphabet to words over
    a target alphabet, applied homomorphically; images may be empty.

    image_codes maps each source letter code to the code string of its
    image over the target, the only copy of the images, and
    code.translate(table) is the image of a source code string.  A word of
    tokens is encoded with the source alphabet on the way in and its image
    decoded with the target on the way out."""

    __slots__ = ("alphabet", "target", "image_codes", "table", "max_image_len",
                 "min_image_len")

    def __init__(self, source: Alphabet, target: Alphabet, images):
        missing = [letter for letter in source if letter not in images]
        if missing:
            raise InvalidSystemError(f"no image for letter {missing[0]!r}")
        extra = set(images) - set(source.letters)
        if extra:
            raise InvalidSystemError(f"image given for unknown letter {sorted(extra)[0]!r}")
        # target letters are checked tokens, so encoding checks the images
        self._own(source, target, [target.encode(images[letter]) for letter in source])

    def _own(self, alphabet, target, codes):
        self.alphabet = alphabet
        self.target = target
        self.image_codes = dict(zip(alphabet.codes, codes))
        self.table = str.maketrans(self.image_codes)
        self.max_image_len = max(map(len, codes))
        self.min_image_len = min(map(len, codes))

    def image(self, letter: str) -> Word:
        return self.target.decode(self.image_codes[self.alphabet.encode((letter,))])

    def apply(self, word: Word) -> Word:
        return self.target.decode(self.alphabet.encode(word).translate(self.table))


class Morphism(LetterMap):
    """Endomorphism of a fixed alphabet, images may be empty (erasing): a
    LetterMap onto its own alphabet, so a power is built from code strings
    alone."""

    __slots__ = ("is_nonerasing", "_identity")

    def __init__(self, alphabet, images):
        if not isinstance(alphabet, Alphabet):
            alphabet = Alphabet(alphabet)
        super().__init__(alphabet, alphabet, images)

    def _own(self, alphabet, target, codes):
        super()._own(alphabet, target, codes)
        self.is_nonerasing = self.min_image_len > 0
        # equal morphisms, and only they, have equal identities
        self._identity = (alphabet.letters, tuple(codes))

    def erasing_letters(self) -> tuple[str, ...]:
        return tuple(a for a, code in zip(self.alphabet, self.image_codes.values()) if not code)

    def require_nonerasing(self):
        if not self.is_nonerasing:
            bad = ", ".join(self.erasing_letters())
            raise ErasingMorphismError(f"morphism erases letters: {bad}")

    def apply_power(self, word: Word, k: int) -> Word:
        if k < 0:
            raise PreconditionError("power must be >= 0")
        code = self.alphabet.encode(word)
        for _ in range(k):
            code = code.translate(self.table)
        return self.alphabet.decode(code)

    def power(self, k: int) -> "Morphism":
        """phi^k, by repeated squaring: table is phi^(2^i) as a translate
        table, and codes, the images of the powers of phi taken so far,
        are mapped by it where bit i of k is set."""
        if k < 1:
            raise PreconditionError("power must be >= 1")
        codes, table = list(self.alphabet.codes), self.table
        while True:
            if k & 1:
                codes = [code.translate(table) for code in codes]
            k >>= 1
            if not k:
                break
            table = {a: image.translate(table) for a, image in table.items()}
        power = Morphism.__new__(Morphism)
        power._own(self.alphabet, self.alphabet, codes)
        return power

    def __eq__(self, other):
        return isinstance(other, Morphism) and self._identity == other._identity

    def __hash__(self):
        return hash(self._identity)

    def __repr__(self):
        rules = ", ".join(f"{a}->{' '.join(self.image(a)) or 'ε'}" for a in self.alphabet)
        return f"Morphism({rules})"


class DF0LSystem:
    """A morphism together with a non-empty finite set of non-empty axiom words."""

    __slots__ = ("morphism", "axioms", "axiom_codes", "_identity", "_hash")

    def __init__(self, morphism: Morphism, axioms):
        if not isinstance(morphism, Morphism):
            raise InvalidSystemError("morphism must be a Morphism")
        alphabet = morphism.alphabet
        codes = set()
        for axiom in axioms:
            code = alphabet.encode(axiom)
            if not code:
                raise InvalidSystemError("axioms must be non-empty words")
            codes.add(code)
        if not codes:
            raise InvalidSystemError("axiom set is empty")
        self.morphism = morphism
        self.axiom_codes = tuple(sorted(codes, key=code_key))
        self.axioms = tuple(map(alphabet.decode, self.axiom_codes))
        # equal systems, and only they, have equal identities; built once,
        # since every lookup of a system's record compares them
        self._identity = (morphism._identity, self.axiom_codes)
        self._hash = hash(self._identity)

    @property
    def alphabet(self) -> Alphabet:
        return self.morphism.alphabet

    def require_pdf0l(self):
        self.morphism.require_nonerasing()

    def __eq__(self, other):
        return isinstance(other, DF0LSystem) and self._identity == other._identity

    def __hash__(self):
        return self._hash

    def __repr__(self):
        axioms = ", ".join(" ".join(w) for w in self.axioms)
        return f"DF0LSystem({self.morphism!r}; axioms: {axioms})"


def power_system(system: DF0LSystem, k: int) -> DF0LSystem:
    """The k-th power: morphism taken to the k-th power, axioms closed under
    the first k-1 images so the factor language is preserved; empty iterates
    add no factor and are left out.  An axiom's iterates stop at the first
    that repeats an earlier one, since every later one repeats one too."""
    if k < 1:
        raise PreconditionError("power must be >= 1")
    phi = system.morphism
    codes = set()
    for code in system.axiom_codes:
        iterates = {code}
        for _ in range(k - 1):
            code = code.translate(phi.table)
            if code in iterates:
                break
            iterates.add(code)
        codes |= iterates
    return DF0LSystem(phi.power(k), [phi.alphabet.decode(code) for code in codes if code])


class ValidationReport(namedtuple(
        "ValidationReport", "is_pdf0l erasing_letters min_image_len max_image_len "
        "letter_count axiom_count")):
    """Structural facts of a system: whether its morphism is non-erasing
    (bool), its erasing letters (tuple[str, ...]), its least and greatest
    image lengths, and its numbers of letters and of axioms (int)."""
    __slots__ = ()


def validate(system: DF0LSystem) -> ValidationReport:
    """Report structural facts about an already-constructed system.

    Structural defects (duplicate letters, unknown letters, empty axioms)
    are rejected at construction time; this reports the semantic flags that
    gate the analyses, chiefly whether the morphism is non-erasing.
    """
    phi = system.morphism
    return ValidationReport(
        is_pdf0l=phi.is_nonerasing,
        erasing_letters=phi.erasing_letters(),
        min_image_len=phi.min_image_len,
        max_image_len=phi.max_image_len,
        letter_count=len(system.alphabet),
        axiom_count=len(system.axioms),
    )


def _alph_walk(morphism):
    """The alph vectors walk[k] = (alph(phi^k(a)) for each letter code a),
    as sets of letter codes, for k = 0 .. K-1, up to the first repeat
    walk[K] = walk[s]; returns (walk, s).  Each step takes unions of letter
    sets, so no image word is built."""
    image_alph = {a: frozenset(code) for a, code in morphism.image_codes.items()}
    vec = tuple(map(frozenset, morphism.alphabet.codes))
    seen = {}   # in insertion order, so its keys are the walk
    while vec not in seen:
        seen[vec] = len(seen)
        vec = tuple(frozenset().union(*map(image_alph.__getitem__, v)) for v in vec)
    return list(seen), seen[vec]


class GrowthReport(namedtuple(
        "GrowthReport", "bounded unbounded invariant_exponent "
        "minimal_invariant_subalphabets")):
    """Letter growth: the bounded and unbounded letters (tuple[str, ...]),
    the invariant exponent p (int) and the minimal invariant subalphabets
    (tuple[tuple[str, ...], ...]), in canonical order."""
    __slots__ = ()


def classify_letters(morphism: Morphism) -> GrowthReport:
    """Letter growth, read off one alph walk, so no power is built.

    A letter is unbounded iff it reaches (reflexively) a letter c that lies
    on a cycle of the occurrence graph and has |image(c)| >= 2: such a c
    re-occurs in its own iterated images, so lengths grow past any bound;
    conversely, when every reachable cyclic letter has a one-letter image,
    every long walk is trapped in a deterministic loop and lengths stall.
    Reachability is the union of the alph vectors, and a heavy letter lies
    on a cycle, so it is in its own reach.  The invariant exponent p is the
    least multiple of the walk's period that is >= max(1, its preperiod),
    so alph(phi^p(a)) = alph(phi^(pk)(a)) for every letter a and k >= 1;
    the minimal invariant subalphabets are the inclusion-minimal sets
    alph(phi^p(g)) over unbounded letters g.  Valid for non-erasing
    morphisms only."""
    morphism.require_nonerasing()
    codes, images = morphism.alphabet.codes, morphism.image_codes
    walk, s = _alph_walk(morphism)
    period = len(walk) - s
    p = period * max(1, -(-s // period))
    # the letters reachable in >= 1 step: alph(phi^k(a)) over k = 1 .. K
    reach = [frozenset().union(*col) for col in zip(*walk[1:], walk[s])]
    heavy = {c for c, r in zip(codes, reach) if c in r and len(images[c]) >= 2}
    unbounded = "".join(a for a, r in zip(codes, reach) if r & heavy)
    # alph(phi^p(a)) for p >= s, read off the walk modulo its period
    candidates = {b for a, b in zip(codes, walk[s + (p - s) % period]) if a in unbounded}
    # code points follow declaration order: a sorted letter set lists its
    # letters in canonical order, and code_key orders the sets canonically
    minimal = sorted(("".join(sorted(b)) for b in candidates
                      if not any(c < b for c in candidates)), key=code_key)
    decode = morphism.alphabet.decode
    return GrowthReport(
        bounded=decode("".join(a for a in codes if a not in unbounded)),
        unbounded=decode(unbounded),
        invariant_exponent=p,
        minimal_invariant_subalphabets=tuple(map(decode, minimal)),
    )
