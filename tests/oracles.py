"""Naive references that the tests check df0l against, each defined once.

Every reference works from the definitions, on words as tuples of letter
tokens, with images built letter by letter from each image(a) of a morphism
or letter map, and imports only public df0l names: word helpers, the
canonical order, the encoding of a word token by token, images and
iterates, the factor language by unrolling the axioms, the language levels
by registration, minimal interpretations by scanning images, the unpruned
threshold searches, the repetitiveness detector by iterating the morphism,
letter growth, collisions by imaging every short word, the twined checks on
samples and bounded languages, and checkers of the `repetitive`,
`threshold`, `delta` and `twined` JSON reports.  One reference is the
exception: the parse pass that reads a word one letter at a time takes the
arguments of df0l's full pass, code strings and a record's levels, so that
the two read the same input.
"""

from functools import lru_cache
from itertools import accumulate, combinations, product

from df0l import (Interpretation, InvalidSystemError, RepetitivenessVerdict,
                  Word, contains, factor_language, format_word,
                  interpretation_length_bounds, is_admissible,
                  is_strongly_synchronizing, is_weakly_synchronized, parse_word)


# -- words ---------------------------------------------------------------
# primitive_root, is_primitive, occurrences and is_conjugate read any
# sequence, so they take both words of letter tokens and code strings.

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


def canonical_key(alphabet):
    """The canonical order of words over alphabet, as a sort key: length
    first, then the letters' indices in declaration order."""
    index = {a: i for i, a in enumerate(alphabet.letters)}
    return lambda word: (len(word), tuple(map(index.__getitem__, word)))


def encoded(alphabet, word) -> str:
    """The code string of a word, token by token: letter i of the alphabet,
    in declaration order, is chr(i).  An element that is no letter raises
    InvalidSystemError naming the first such token in word order, and an
    unhashable one the TypeError of its dict lookup."""
    codes = {a: chr(i) for i, a in enumerate(alphabet.letters)}
    out = []
    for token in tuple(word):
        try:
            out.append(codes[token])
        except KeyError:
            raise InvalidSystemError(f"unknown letter {token!r}") from None
    return "".join(out)


# -- images ----------------------------------------------------------------
# Built letter by letter from each image(a) of a morphism or letter map,
# which decodes each image itself, so no reference shares a map's translate
# table with df0l.

@lru_cache(maxsize=256)
def _letter_images(letter_map) -> dict:
    """Every image(a) of a morphism or letter map; cached, as the references
    image many short words under one map."""
    return {a: letter_map.image(a) for a in letter_map.alphabet}


def _image_of(letter_map, word: Word) -> Word:
    """The image of word, one letter image at a time."""
    images = _letter_images(letter_map)
    return tuple(b for a in word for b in images[a])


def _iterate_of(phi, word: Word, k: int) -> Word:
    """image^k(word), by k images of whole words."""
    word = tuple(word)
    for _ in range(k):
        word = _image_of(phi, word)
    return word


# -- the factor language -------------------------------------------------

def unrolled_factors(system, max_len):
    """The language words of length <= max_len, exactly, by unrolling the
    axioms on factor sets.  No image is empty, so a factor of image(w) of
    length <= n lies in image(v) for a factor v of w of length <= n: the
    factor set of each iterate follows from that of the one before.  The
    sets are finitely many, so the sequence repeats, and the union up to
    the first repeat is the union over every iterate."""
    phi = system.morphism
    current = frozenset().union(*(factors(axiom, max_len) for axiom in system.axioms))
    seen, words = set(), set()
    while current not in seen:
        seen.add(current)
        words |= current
        current = frozenset().union(*(factors(_image_of(phi, v), max_len) for v in current))
    return words


def assert_matches_unrolling(system, max_len):
    """Oracle comparison: the language words up to max_len are exactly those
    of unrolled_factors."""
    mine = factor_language(system, max_len)
    oracle = unrolled_factors(system, max_len)
    assert mine == oracle, sorted(map(format_word, mine ^ oracle))[:5]


def _tight(phi, size, v, n):
    """The tight factors of length n of image(v)."""
    image = _image_of(phi, v)
    total = len(image)
    return [image[s:s + n] for s in range(max(0, total - size[v[-1]] + 1 - n),
                                          min(size[v[0]], total - n + 1))]


def registration_levels(system, max_len):
    """Reference levels, on tuples of tokens: a word joining level n is
    registered under every longer length its tight factors reach, and its
    image is built again for each of them."""
    phi = system.morphism
    size = {a: len(phi.image(a)) for a in system.alphabet}
    registered = {}
    levels = [{()}]
    for n in range(1, max_len + 1):
        level = {a[i:i + n] for a in system.axioms for i in range(len(a) - n + 1)}
        for v in registered.pop(n, ()):
            level.update(_tight(phi, size, v, n))
        todo = list(level)
        for x in todo:
            total = sum(size[a] for a in x)
            shortest = max(n, total - size[x[0]] - size[x[-1]] + 2)
            if shortest == n:
                new = set(_tight(phi, size, x, n)) - level
                level |= new
                todo.extend(new)
            for k in range(max(shortest, n + 1), total + 1):
                registered.setdefault(k, []).append(x)
        levels.append(level)
    return levels


# -- interpretations and thresholds --------------------------------------

def letter_pass(phi, heads, levels, u):
    """The minimal interpretations (s, w, t, cuts) of the code string u by
    the pass that reads u one letter at a time, with the arguments of
    df0l's full pass: the states of u[:1], every language letter a at an
    offset j where image(a)[j] = u[0], then one right step per further
    letter c.  A state with t non-empty keeps going if t starts with c and
    drops that letter of t; one with t empty extends w by each letter b of
    heads[c], whose image starts with c, keeps w·b only if it is in its
    level, and takes the rest of image(b) as t.  A state's cuts are the
    image lengths of the letters of w accumulated from -|s|."""
    states = [(image[:j], a, image[j + 1:]) for a, image in phi.image_codes.items()
              if a in levels[1] for j in range(len(image)) if image[j] == u[0]]
    for c in u[1:]:
        stepped = []
        for s, w, t in states:
            if t:
                if t[0] == c:
                    stepped.append((s, w, t[1:]))
            else:
                for b, rest in heads.get(c, ()):
                    if w + b in levels[len(w) + 1]:
                        stepped.append((s, w + b, rest))
        states = stepped
    sizes = {a: len(image) for a, image in phi.image_codes.items()}
    return [(s, w, t, tuple(accumulate(map(sizes.get, w), initial=-len(s))))
            for s, w, t in states]


def naive_minimal_interpretations(system, u, extra=2):
    """Definition-level oracle: scan every language word up to the length
    bound plus `extra`, keep occurrences with minimal cut sizes."""
    phi = system.morphism
    _, hi = interpretation_length_bounds(system, u)
    found = set()
    for v in factor_language(system, hi + extra).all_words():
        if not v:
            continue
        image = _image_of(phi, v)
        for pos in occurrences(u, image) if len(image) >= len(u) else []:
            s, t = image[:pos], image[pos + len(u):]
            if len(s) < len(phi.image(v[0])) and len(t) < len(phi.image(v[-1])):
                found.add(Interpretation(s, v, t))
    return found


def _oracle_weak(system, cutoff):
    """The unpruned weak search: ("found", D) or ("cutoff", None), and the
    failing words of level D, or of the cutoff level, in canonical order."""
    failing = []
    for level in range(1, cutoff + 1):
        words = factor_language(system, level).words_of_length(level)
        bad = [v for v in words if not is_weakly_synchronized(system, v).synchronized]
        if not bad:
            return ("found", level - 1), failing
        failing = bad
    return ("cutoff", None), failing


def _oracle_strong(system, cutoff):
    """The unpruned strong search, as _oracle_weak, with the failing pairs."""
    failing = []
    for size in range(1, cutoff + 1):
        words = factor_language(system, 2 * size).words_of_length(2 * size)
        pairs = [(v[:size], v[size:]) for v in words]
        bad = [(left, right) for left, right in pairs
               if is_admissible(system, left, right)
               and not is_strongly_synchronizing(system, left, right)]
        if not bad:
            return ("found", size - 1), failing
        failing = bad
    return ("cutoff", None), failing


# -- repetitiveness and growth -------------------------------------------

def iterated_prefix(system, letter, power, n):
    """The first n letters of the fixed point lim image^(power·k)(letter),
    by iterating image^power on image^power(letter), which must start with
    letter and be longer."""
    phi = system.morphism
    prefix = _iterate_of(phi, (letter,), power)
    while len(prefix) < n:
        prefix = _iterate_of(phi, prefix, power)
    return prefix[:n]


def _naive_detect(system, period_bound, scanned=None):
    """The detector by its definition: the fixed-point prefix by iterating
    the power, then image^l(u) = u^n, n >= 2, for each prefix u in order,
    with image^l(u) grown one letter image at a time.  Appends each
    (letter, power, prefix) it scans to `scanned`, when given."""
    phi = system.morphism
    power_bound = len(system.alphabet)
    for a in system.alphabet:
        if not contains(system, (a,)):
            continue
        for ell in range(1, power_bound + 1):
            start = _iterate_of(phi, (a,), ell)
            if len(start) < 2 or start[0] != a:
                continue
            prefix = iterated_prefix(system, a, ell, period_bound)
            if scanned is not None:
                scanned.append((a, ell, prefix))
            images = {c: _iterate_of(phi, (c,), ell) for c in system.alphabet}
            image = []
            for m in range(1, period_bound + 1):
                u = prefix[:m]
                image.extend(images[u[-1]])
                n, rest = divmod(len(image), m)
                if n >= 2 and not rest and image == list(u) * n:
                    return RepetitivenessVerdict(True, a, ell, u, n, period_bound,
                                                 power_bound)
    return RepetitivenessVerdict(False, None, None, None, None, period_bound, power_bound)


def _growth_oracle(phi, letter, step_cap=3000, length_cap=500):
    """Bounded iff the iterated image word sequence enters a cycle."""
    seen = set()
    word = (letter,)
    for _ in range(step_cap):
        if word in seen:
            return False
        seen.add(word)
        word = _image_of(phi, word)
        if len(word) > length_cap:
            return True
    raise AssertionError("growth oracle undecided; raise the caps")


# -- injectivity ---------------------------------------------------------

def naive_collision(phi, max_len):
    """Two distinct words of at most max_len letters over phi's alphabet
    with equal images, the second as short as can be, or None; by imaging
    every such word in turn."""
    seen = {}
    for n in range(1, max_len + 1):
        for word in product(phi.alphabet.letters, repeat=n):
            other = seen.setdefault(_image_of(phi, word), word)
            if other != word:
                return other, word
    return None


# -- twined checks -------------------------------------------------------

def sampled_commutation(data, k, sample_words, image_samples=None):
    """Oracle: alpha∘phi^k = psi^k∘alpha on the samples over phi's alphabet
    and phi^k∘beta = beta∘psi^k on the image samples (derived via alpha
    when not given)."""
    phi, psi, alpha, beta = data
    if image_samples is None:
        image_samples = [_image_of(alpha, u) for u in sample_words]
    for u in sample_words:
        if _image_of(alpha, _iterate_of(phi, u, k)) != \
                _iterate_of(psi, _image_of(alpha, u), k):
            return False
    for z in image_samples:
        if _iterate_of(phi, _image_of(beta, z), k) != \
                _image_of(beta, _iterate_of(psi, z, k)):
            return False
    return True


def bounded_language_check(system, target, alpha, beta, max_len):
    """Oracle: alpha maps the source language words up to max_len into the
    target language and beta maps the target words up to max_len back."""
    alpha_stretch = max(1, max(len(alpha.image(a)) for a in system.alphabet))
    beta_stretch = max(1, max(len(beta.image(b)) for b in target.alphabet))
    target_words = factor_language(target, max_len * alpha_stretch)
    for u in factor_language(system, max_len).all_words():
        if _image_of(alpha, u) not in target_words:
            return False
    source_words = factor_language(system, max_len * beta_stretch)
    for z in factor_language(target, max_len).all_words():
        if _image_of(beta, z) not in source_words:
            return False
    return True


# -- report checkers -----------------------------------------------------

def check_repetitive_report(system, result):
    """A `repetitive --json` result: a certificate's witness u starts with
    its letter, image^power(u) = u^exponent with exponent >= 2, and u is
    primitive and a prefix of the iterated fixed point at the letter; a
    negative names none of the four.  Returns whether it certifies."""
    fields = [result[key] for key in ("letter", "power", "witness", "exponent")]
    if result["status"] != "repetitive":
        assert result["status"] == "no_witness" and fields == [None] * 4, result
        return False
    letter, power, witness, exponent = fields
    u = parse_word(witness)
    assert u[0] == letter, result
    assert exponent >= 2 and _iterate_of(system.morphism, u, power) == u * exponent, result
    assert is_primitive(u), result
    assert iterated_prefix(system, letter, power, len(u)) == u, result
    return True


def check_delta_report(system, result):
    """A `delta --json` result at max_len L, against the language unrolled
    exactly to L: every listed pair is two distinct words with equal images,
    both in the language; the list is every such pair, in canonical order;
    count is its length and delta_lower_bound the longest common image."""
    phi = system.morphism
    key = canonical_key(system.alphabet)
    words = unrolled_factors(system, result["max_len"])
    pairs = [tuple(map(parse_word, pair)) for pair in result["pairs"]]
    for u, v in pairs:
        assert u != v and _image_of(phi, u) == _image_of(phi, v), (u, v)
        assert u in words and v in words, (u, v)
    by_image = {}
    for word in sorted(words - {()}, key=key):
        by_image.setdefault(_image_of(phi, word), []).append(word)
    assert pairs == sorted((pair for group in by_image.values()
                            for pair in combinations(group, 2)),
                           key=lambda pair: (key(pair[0]), key(pair[1])))
    assert result["count"] == len(pairs)
    assert result["delta_lower_bound"] == max(
        (len(_image_of(phi, u)) for u, _ in pairs), default=0)


def check_twined_report(system, target, alpha, beta, max_len, result):
    """A `twined --json` result at -L max_len, from images built letter by
    letter: the failure is the first letter a, over phi's letters and then
    psi's, with beta(alpha(a)) != phi(a), or alpha(beta(a)) != psi(a), and
    the pair is twined when there is none; a twined pair commutes and its
    language check is the bounded check at the longest axiom, and a pair
    that is not twined reports neither; max_len is echoed.  Returns whether
    the pair is twined."""
    failures = [a for f, there, back in ((system.morphism, alpha, beta),
                                         (target.morphism, beta, alpha))
                for a in f.alphabet if _image_of(back, there.image(a)) != f.image(a)]
    twined = not failures
    language_check = None
    if twined:
        longest = max(map(len, [*system.axioms, *target.axioms]))
        language_check = bounded_language_check(system, target, alpha, beta, longest)
    assert result == {"twined": twined, "failure": failures[0] if failures else None,
                      "commutation": twined or None, "language_check": language_check,
                      "max_len": max_len}, result
    return twined


def _level_interpretations(system, words, n):
    """The minimal interpretations of every word of length n, from the images
    of the language words `words`, as word -> [(w, cuts)] with cuts[i] =
    |image(w[:i])| - |s| for i = 0..|w|.  `words` must hold every language
    word of length <= n: the images of w's interior letters lie inside u and
    those of its end letters meet u, so |w| <= n."""
    images = _letter_images(system.morphism)
    found = {}
    for v in words:
        if not v or len(v) > n:
            continue
        image = _image_of(system.morphism, v)
        ends = list(accumulate((len(images[a]) for a in v), initial=0))
        # s = image[:pos] shorter than image(v[0]), t shorter than image(v[-1])
        for pos in range(max(0, len(image) - n - len(images[v[-1]]) + 1),
                         min(len(images[v[0]]), len(image) - n + 1)):
            found.setdefault(image[pos:pos + n], []).append((v, [e - pos for e in ends]))
    return found


def _weak_fails(parses, n):
    """No split of a word of length n is compatible with all its parses."""
    return bool(parses) and not any(all(k in cuts for _, cuts in parses)
                                    for k in range(n + 1))


def _strong_fails(parses, k):
    """The split after k letters is compatible with some parse, and the
    parses do not all end its left part with one letter."""
    ends = []
    for v, cuts in parses:
        i = cuts.index(k) if k in cuts else None
        ends.append(None if i is None else v[i - 1] if i else "")
    return (any(end is not None for end in ends)
            and not (ends[0] and ends.count(ends[0]) == len(ends)))


def check_threshold_report(system, result):
    """A `threshold --json` result, against the language unrolled exactly
    (unrolled_factors) and the minimal interpretations read off its images;
    level L holds the words of length L, or of length 2L split in half in
    strong mode.  `found` D: the witness (none when D = 0) is the first
    failing word of level D in canonical order, and no word of level D + 1
    fails.  `cutoff_exceeded`: each survivor is a failing language word of
    the last level, the cutoff, in canonical order.  `not_strongly_circular`:
    the repetition is a certificate.  Returns the status."""
    status, mode, cutoff = result["status"], result["mode"], result["cutoff"]
    fields = [result[key] for key in ("D", "witness", "last_level", "survivors")]
    if status == "not_strongly_circular":
        assert mode == "strong" and fields == [None] * 4, result
        assert check_repetitive_report(system, result["repetition"]), result
        return status
    assert result["repetition"] is None, result
    width = 1 if mode == "weak" else 2
    key = canonical_key(system.alphabet)
    top = result["D"] + 1 if status == "found" else cutoff
    words = unrolled_factors(system, width * top)

    def failing(level):
        n = width * level
        parses = _level_interpretations(system, words, n)
        fails = ((lambda u: _weak_fails(parses.get(u, []), n)) if mode == "weak"
                 else (lambda u: _strong_fails(parses.get(u, []), level)))
        return sorted((u for u in words if len(u) == n and fails(u)), key=key)

    def item(u):
        return format_word(u) if mode == "weak" else [
            format_word(u[:len(u) // 2]), format_word(u[len(u) // 2:])]

    if status == "found":
        threshold, witness, last_level, survivors = fields
        assert 0 <= threshold < cutoff and last_level is None and survivors is None, result
        assert failing(threshold + 1) == [], result
        bad = failing(threshold) if threshold else []
        assert bool(bad) == bool(threshold), result
        assert witness == (item(bad[0]) if bad else None), result
    else:
        assert status == "cutoff_exceeded", result
        assert fields[:2] == [None, None] and fields[2] == cutoff, result
        assert fields[3] == list(map(item, failing(cutoff)[:len(fields[3])])) != [], result
    return status
