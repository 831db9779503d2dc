"""Unbounded-repetitiveness detection through periodic morphic fixed points.

Let f(b) be the first letter of image(b).  A language letter a whose walk
a, f(a), f(f(a)), ... returns to a after c steps, and some letter of whose
cycle has an image longer than one letter, starts the one-sided fixed point
x = image^c(x) = lim image^(ck)(a).  For a prefix u = x[:m], image^c(u) is
the prefix x[:total] of x, total = |image^c(u)|, so image^c(u) = u^n,
n >= 2, holds exactly when m divides total and x[:total] has period m.
Then every power of u is a language factor: a certified positive.

Two facts make one power per letter enough.

1. Every power l with image^l(a) starting with a and longer than a fixes
   the same x, and the l that qualify are the multiples of c.  The morphism
   is non-erasing, so the first letter of image^l(a) is f^l(a), which is a
   iff c divides l.  image^c(a) is longer than a iff some image on the
   cycle is: if every image on it is one letter, image^c(a) = a; if
   image(f^i(a)) is longer, with i < c, so is image^(i+1)(a), and no
   later power is shorter.  image^(ck)(a) is a prefix of
   image^(c(k+1))(a), so all these powers fix the same limit x.

2. For any such l, image^l(u) = u^n with n >= 2 iff x = u^w (u repeated
   forever).  (=>) image^(lk)(u) = u^(n^k) is a prefix of x for every k.
   (<=) Let p be the least period of x and r = x[:p].  Periods of a purely
   periodic word are multiples of its least period (Fine and Wilf), so
   u = r^j, and x = image^l(x) = image^l(r)^w, so |image^l(r)| is a period
   of x and a multiple of p.  Hence t = |image^l(u)| = j|image^l(r)| is a
   multiple of m = jp, and t > m, since image^l(a) is longer than a and no
   image is empty; image^l(u) = x[:t] is then u^(t/m), t/m >= 2.

So whether a prefix length m passes, and the first m that does, do not
depend on the power, and a test that m divides total already implies
total >= 2m.  The first u that passes is primitive: it is r, by (<=).

A third fact answers some letters without a scan, from the images of the
morphism alone.

3. Let S_k be the letter set of image^(ck)(a)[1:], so S_0 is empty.  If no
   S_k holds a, no prefix of x is a witness, whatever the period bound: a
   witness u makes x = u^w purely periodic by fact 2, so a = x[0] occurs
   again at x[|u|], |u| >= 1, and the S_k together are the letter set of
   x[1:].  For, image^(ck)(a) is a prefix of image^(c(k+1))(a) and of x
   (fact 1), so S_k grows with k, and every letter of x[1:] lies in one of
   these prefixes, which grow without bound once image^c(a) is longer than
   a; if it is not, S_1 is empty, and so is every S_k.
   The S_k follow one letter step at a time.  Let T_t be the letter set of
   image^t(a)[1:].  Since image^t(a) = f^t(a)·image^t(a)[1:],
   image^(t+1)(a)[1:] = image(f^t(a))[1:]·image(image^t(a)[1:]), so T_(t+1)
   is the letter set of image(f^t(a))[1:] joined with those of the images
   of the letters of T_t.  f^t(a) depends only on t mod c, so the c steps
   from t = ck to t = c(k+1), a block, are one fixed map B of letter sets,
   and S_(k+1) = B(S_k).  A block that adds nothing ends the growth: from
   S_(k+1) = S_k follows S_(k+2) = B(S_(k+1)) = B(S_k) = S_(k+1), and so
   on.  Until then each block adds a letter, so at most |A| + 1 blocks of
   c <= |A| steps on sets of at most |A| letters decide whether a occurs
   in x[1:]: polynomial time, where image^c(a) can have max|image(b)|^c
   letters.  An empty S_1 means that every image on the cycle is one
   letter (fact 1), so one rule also skips a letter whose cycle does not
   grow.

A negative answer is exact for a letter skipped by fact 3, and otherwise
complete in the power and bounded only by the searched period, and must be
read as "no certificate found".

Several axioms.  The language L of a system with axioms w1, ..., wk is the
union of the languages Li of its one-axiom subsystems, and L is unboundedly
repetitive iff some Li is.  (<=) Li is a subset of L.  (=>) If u^j is in L
for every j, infinitely many of the u^j lie in one Li, since there are k of
them, and Li is factorial, so u^j, a factor of every longer power, is in Li
for every j.  The detector keeps the equivalence: it scans the language
letters, and L's are the union of the Li's, while the scan of one letter
reads only the morphism and the period bound, which the subsystems share.
So the full system is certified iff some subsystem is.
"""

from collections import namedtuple
from itertools import islice

from .errors import PreconditionError
from .language import _record
from .system import DF0LSystem


class RepetitivenessVerdict(namedtuple(
        "RepetitivenessVerdict",
        "repetitive letter power witness exponent period_bound power_bound")):
    """The detector's answer.

    repetitive (bool); for a certificate, the letter (str) whose fixed
    point starts with it, the iterate power l (int) of the morphism fixing
    the witness, the primitive witness u (Word) with image^l(u) =
    u^exponent, and the exponent (int); these four are None without one.
    period_bound and power_bound (int) are the bounds the search ran under.
    """
    __slots__ = ()


def default_period_bound(system: DF0LSystem) -> int:
    """Heuristic witness-period bound; generous at desk scale."""
    return max(64, system.morphism.max_image_len ** (len(system.alphabet) + 1))


def _fixed_prefix(phi, letter: str, n: int) -> str:
    # first n letters, as a code string, of the fixed point x at the code
    # `letter`, whose image starts with `letter` and is longer: x = image(x[0])
    # image(x[1]) ..., so x grows by the images of its own letters after the
    # first, in batches of as many letters as fit in the letters still missing
    # at the longest image each, and at least one, so x never runs more than
    # one image past n; a list, since appending to a str may copy it every time
    word = list(phi.image_codes[letter])
    table, longest = phi.table, phi.max_image_len
    i = 1
    while len(word) < n:
        batch = word[i:i + max(1, (n - len(word)) // longest)]
        word += "".join(batch).translate(table)
        i += len(batch)
    return "".join(word[:n])


def detect_unbounded_repetitive(system: DF0LSystem,
                                period_bound: int | None = None) -> RepetitivenessVerdict:
    """Scan every language letter a, in declaration order, whose first-letter
    walk a, f(a), ... (f(b) the first letter of image(b)) returns to a after
    c <= |A| steps through some image longer than one letter, testing the
    prefixes u = x[:m], m <= period_bound, of the fixed point x of image^c
    at a, shortest first, for image^c(u) = u^n, n >= 2.

    By the module docstring's first two facts, no other power can find a
    witness that image^c misses, and the first u that passes is primitive:
    the answer is complete in the power and bounded only by the period.  A
    letter that never occurs again in its x is skipped without a scan, which
    by fact 3 loses no witness at any period bound, and is found from the
    letter sets of the morphism's images, so image^c is built only for a
    letter that recurs.
    power_bound = |A| is reported as the cycle lengths' upper bound.

    The test is a period test: image^c(u) is x[:total], total = |image^c(u)|,
    so image^c(u) = u^n iff m divides total and x[:total] has period m.  It
    is exact, not a sampled check.  The prefix x[:period_bound] is built
    once per letter, linearly; the m whose first _WINDOW letters of x[m:]
    match x's are found by str.find, and each is filtered by one comparison
    of x[m:seen] with x[:seen-m], seen = min(total, period_bound).  Every
    survivor is confirmed from u and its letter images alone, one image at a
    time against u repeated, so no copy of image^c(u) is made.  The prefix
    costs O(period_bound + max|image^c(b)|) memory, and the power image^c,
    whose images are code strings of one code point per letter,
    |A|·max|image^c(b)| code points.
    The verdict is computed once per system and period bound."""
    system.require_pdf0l()
    if period_bound is None:
        period_bound = default_period_bound(system)
    if period_bound < 1:
        raise PreconditionError("period_bound must be >= 1")
    verdicts = _record(system, 1).verdicts
    if period_bound not in verdicts:
        verdicts[period_bound] = _scan(system, period_bound)
    return verdicts[period_bound]


_WINDOW = 16


def _scan(system: DF0LSystem, period_bound: int) -> RepetitivenessVerdict:
    """One fixed point per language letter on a growing first-letter cycle:
    that of image^c, c the cycle length, the least power whose image of the
    letter starts with it (fact 1); image^c is built once per distinct c.
    Since image^c(a) is longer than a, total > m, so m dividing total
    already gives n = total / m >= 2 (fact 2).  A letter that does not recur
    in its fixed point is skipped before image^c and its prefix are built
    (fact 3), and so is a letter whose cycle has only one-letter images.
    A witness makes x = u^w (fact 2), so x[m:m + _WINDOW] = x[:_WINDOW] is
    necessary, and only the m that `_windows` yields are tried, in
    increasing order as before; total is summed up to each of them in one
    call, with no Python step per letter.  Where every m divides total, as
    with equal image lengths, most m are never yielded, and the scan copies
    no slice of up to period_bound letters for them.  A tail m, where the
    window is cut short, needs no window test of its own: if |prefix| >=
    2·_WINDOW, total >= 2m > |prefix|, so prefix[m:total] is the cut window,
    which the period test compares; otherwise `_tiles`, exact once m
    divides total (fact 2), passes only if x has period m, where the window
    test would pass too."""
    phi = system.morphism
    alphabet = system.alphabet
    images = phi.image_codes
    power_bound = len(alphabet)
    letters = _record(system, 1).levels[1]
    powers = {}     # powers[c] = image^c, built when first needed
    for a in alphabet.codes:
        if a not in letters:
            continue
        b = a
        for cycle in range(1, power_bound + 1):
            b = images[b][0]
            if b == a:
                break
        if b != a or not _recurs(images, a, cycle):
            continue
        if cycle not in powers:
            powers[cycle] = phi.power(cycle)
        power = powers[cycle]
        prefix = _fixed_prefix(power, a, period_bound)
        sizes = map(len, map(power.image_codes.__getitem__, prefix))
        total = done = 0
        for m in _windows(prefix):
            total += sum(islice(sizes, m - done))     # |image^c(prefix[:m])|
            done = m
            # prefix[m:total] is x[m:seen], seen = min(total, period_bound),
            # so the prefix starts with it iff x[:seen] has period m
            if (total % m == 0 and prefix.startswith(prefix[m:total])
                    and _tiles(power, prefix[:m])):
                return RepetitivenessVerdict(
                    True, alphabet.letters[ord(a)], cycle, alphabet.decode(prefix[:m]),
                    total // m, period_bound, power_bound)
    return RepetitivenessVerdict(False, None, None, None, None, period_bound, power_bound)


def _windows(prefix: str):
    """In increasing order, every m >= 1 with prefix[m:m + _WINDOW] =
    prefix[:_WINDOW] where the window fits, found by str.find, then every m
    past |prefix| - _WINDOW up to |prefix|, where the window is cut short;
    `_scan` says why these need no window test."""
    window, m = prefix[:_WINDOW], 0
    while (m := prefix.find(window, m + 1)) != -1:
        yield m
    yield from range(max(len(prefix) - _WINDOW, 0) + 1, len(prefix) + 1)


def _recurs(images, a: str, c: int) -> bool:
    """Whether a occurs in x[1:], x the fixed point of image^c at a, c the
    length of a's first-letter cycle (fact 3).  `rest` is S_k, the letter
    set of image^(ck)(a)[1:], grown one block of c letter steps at a time
    until it holds a or a block adds nothing."""
    rest, previous = set(), None
    while a not in rest and rest != previous:
        previous, b = rest, a
        for _ in range(c):
            rest = set(images[b][1:]).union(*map(images.__getitem__, rest))
            b = images[b][0]
    return a in rest


def _tiles(power, u: str) -> bool:
    """Whether image^c(u) is u repeated.  Its letter images are read in one
    pass, each against a window of u repeated just long enough for any
    image, so no copy of image^c(u) is made."""
    m = len(u)
    ring = u * (2 + power.max_image_len // m)
    images = power.image_codes
    pos = 0
    for c in u:
        image = images[c]
        if not ring.startswith(image, pos):
            return False
        pos = (pos + len(image)) % m
    return True
