"""Factor languages, grown one length at a time, and all that df0l remembers.

A language word x of length n is a factor of an axiom or a tight factor of
image(v), where v, the cover of x in the previous iterate, is a language
word: x starts inside the image of v's first letter and ends inside the
image of its last.  Images are non-empty, so |v| <= n, and level n (the
words of length n) follows from the shorter levels and from its own words.
A word x of level n, with T = |image(x)| and l0, l1 the image lengths of
its first and last letters, has tight factors of exactly the lengths
max(1, T - l0 - l1 + 2) .. T, and those below n are in earlier levels, so x
matters from f(x) = max(n, T - l0 - l1 + 2) on.  A word with f(x) > n is
registered once, by reference, under f(x); one with f(x) = n is cut inside
the closure of level n.  Cutting x computes image(x) once and every tight
factor once: those of length f(x) join that level, and each longer one goes
into the pending set of its length, which seeds that level.  Pending sets
reach at most 2 max|image(a)| - 2 lengths past the bound.
Each system has one record, and each system text that the CLI parsed is
kept with its system: that is all the memoized state in df0l, and
clear_language_cache() forgets both.  A record's levels, a
frozenset per length, only grow; registered words and pending sets survive
a raise of the bound, so raising it computes only the new levels.  Growth
holds one lock and appends whole levels, which never change, so readers
need no lock.  Growth is all-or-nothing: a level build that raises (a
MemoryError, a KeyboardInterrupt) has already taken words from the
registered and pending sets, so the system's record is dropped and the
next query starts from a cold build.  The record also keeps the minimal
interpretations of queried words, all forgotten at once when
_PARSE_MEMO_SIZE are held, the repetitiveness verdict per period bound,
and the parse tables of the full pass and the frontier steps below, built
once with the record from the morphism alone: heads and tails for the
steps, the start states per first letter and the run table for the pass.
Every word held here is a code string, one character per letter (see
Alphabet), so a stored word of length n over at most 128 letters costs
49 + n bytes, where a tuple of tokens costs 56 + 8n with its GC header.
Queries are encoded on the way in, and words are decoded only on the way
out.  A system has a record only once its morphism has been checked
non-erasing, so a query on a known system finds its record with one
lookup, and an erasing system, which never has one, raises on every call.
A FactorSet is an immutable view of the first max_len + 1 levels and is
itself a read-only set of words, decoded one at a time, equal to and hashed
like the frozenset of the same words.
Membership reads the same recurrence: u is in the language iff it is a
factor of an axiom or has a minimal interpretation (s, w, t), a language
word w with image(w) = s·u·t, s and t shorter than the images of w's first
and last letters.  `_member` is the only membership rule: one lookup where
level |u| is built, else the parse of u.  Its full pass reads the levels
up to the length bound hi of `interpretation_length_bounds`, about
|u| / min|image(a)|; a parse stepped from a memoized trim, where the levels
are not yet built to hi, builds them only as deep as the step probes: one
past the longest w of the trim's states for a right step, two for a left
step and then a right one, and never past hi.
Minimal interpretations are found by desubstitution (Mossé, TCS 1992).
A cold parse, the full pass, reads image(w) against u one image at a time.
The first image puts u[0] at offset |s| of image(w[0]), so w[0] is a
language letter a with image(a)[j] = u[0], j = |s|, and |s| < |image(w[0])|.
Each later image starts where the one before it ended, and it must agree
with u up to u's end.  The last image is the first one to reach u's end,
and its overhang is t; it is the first image or starts inside u, so |t| <
|image(w[-1])|.  So every minimal interpretation is read this way, and
every (s, w, t) read this way with w a language word is one.  The offsets
at which the images start follow from |s| and w, so (s, w) fixes the path,
and the pass, which extends a state by distinct letters, finds no parse
twice.  The language is factorial, so requiring w[:k] to be a language
word at each step keeps exactly the w that are in it: the parse set is the
set of minimal interpretations.  A state's w, no longer than hi, is a
language word whose image agrees with u up to its last image, which starts
with the letter of u there; the pass tests that image when it reads the
state.  So its work follows the minimal interpretations of the prefixes of
u, not the size of the language, and it takes one step per image, not one
per letter.
Where an image is one letter long, the pass crosses a run of it in one
step.  Let b be the only letter whose image is the single letter x, and
let no other image that starts with x continue with x; the record's run
table maps x to b.  Take a state whose images end at u[:e], where a run of
x, u[e:l+1], starts, with its last letter at l > e.  An image that starts
at e + i < l is image(b): any other image that starts with x continues
with a letter other than x, which it would put at e + i + 1 <= l, where u
has x.  So every interpretation read from this state has w·b^(l - e) as a
prefix of its w, and the pass goes on from l with that w, where every
image that starts with x may start.  The crossing needs no probe of its
own: the pass probes each extension of w·b^(l - e) at l, as at any image
end, and the language is factorial, so an extension is a language word
only if w·b^(l - e) is; a crossed w that is not one ends the state there.
The images of w·b^(l - e) end at u[:l] and each holds a letter of u, so
an extension at l has at most l + 1 <= |u| letters, and |u| is hi when
some image has one letter: its level is built.
The right step takes the minimal interpretations (s, w, t) of u to those
of u·c: a state with t non-empty advances if t starts with c, and t loses
that letter; a state with t empty extends w by each letter b whose image
starts with c, keeps w·b only if it is a language word, and takes the rest
of image(b) as its t.  The right step is exact because every minimal
interpretation (s, w, t) of u·c restricts to one of u: w is kept and t
grows by c, or, when the image of w's last letter starts at c, w drops
that letter and t is empty; s and the first letter of w stay.  So the
states after a right step are exactly the minimal interpretations of u·c,
with no duplicates, as (s, w) fixes the state.
The left step, u to c·u, is its mirror and works on s: a state with s
non-empty is kept if s ends with c, and s loses that letter; a state with s
empty extends w on the left by each letter b whose image ends with c,
keeps b·w only if it is a language word, and takes image(b) without its
last letter as its s.  The restriction argument reads the same from right
to left: a minimal interpretation (s, w, t) of c·u gives (s·c, w, t) of u,
or (ε, w[1:], t) when image(w[0]) = s·c, since then w[1:] is a non-empty
language word whose image is u·t.  So a word whose trim u[:-1] or u[1:-1]
has a memoized parse is parsed by one or two steps from it, which is how
the threshold searches parse their candidates: a weak candidate's u[:-1]
and a strong candidate's u[1:-1] were parsed at the previous level.
Every parse is a tuple of states (s, w, t, cuts), with the cut tuple of
`interpretations`, measured from u's first letter, whichever path finds
it.  The full pass reads the cuts off its walk: a path appends the end of
each image it reads to one list, a state copies that list only for each
extension past its first, and it freezes the list into a tuple once, when
it closes.  The steps carry them: a right step keeps the cuts of a state
that advances inside t and appends cuts[-1] + |image(b)| when it extends w
by b; a left step adds one to every cut, and an extension by b also
prepends -|s|.  Each cut tuple is built from a list or a tuple, at its
size: a tuple grown from an iterator of no known length is reallocated
as it grows, and on a long run those reallocations fragment the heap.
A parse is in
no fixed order: it follows the trim it was stepped from, which follows the
order in which the searches visit a level's set of words; only
`minimal_interpretations` sorts.
"""

import threading
from collections import defaultdict
from collections.abc import Set
from itertools import accumulate

from .errors import InvalidSystemError, PreconditionError
from .system import DF0LSystem
from .words import Word


class FactorSet(Set):
    """Immutable length-bounded slice of a system's factor language: a
    read-only set of its words, decoded one at a time."""

    __slots__ = ("system", "max_len", "_levels")

    def __init__(self, system: DF0LSystem, max_len: int, levels):
        self.system = system
        self.max_len = max_len
        self._levels = tuple(levels[:max_len + 1])

    @property
    def words(self) -> Set:
        """The set itself; kept for callers that read its words by name."""
        return self

    def __contains__(self, word) -> bool:
        # a word is a tuple of letter tokens, as in the equal frozenset
        if not isinstance(word, tuple):
            return False
        try:
            code = self.system.alphabet.encode(word)
        except InvalidSystemError:
            return False
        return len(code) <= self.max_len and code in self._levels[len(code)]

    def __len__(self):
        return sum(map(len, self._levels))

    def __iter__(self):
        decode = self.system.alphabet.decode
        for level in self._levels:
            yield from map(decode, level)

    # equal to, and hashed like, the frozenset of the same words
    __hash__ = Set._hash

    @classmethod
    def _from_iterable(cls, words):
        # the results of the set operators are plain frozensets
        return frozenset(words)

    def _codes(self):
        """Every code string in canonical order, which is length first."""
        for level in self._levels:
            yield from sorted(level)

    def all_words(self) -> list[Word]:
        """Every word in canonical order, which is length first."""
        return list(map(self.system.alphabet.decode, self._codes()))

    def words_of_length(self, n: int) -> tuple[Word, ...]:
        level = self._levels[n] if 0 <= n <= self.max_len else ()
        return tuple(map(self.system.alphabet.decode, sorted(level)))

    def __repr__(self):
        return f"FactorSet(max_len={self.max_len}, words={len(self)})"


class _Record:
    """What df0l remembers about one system; see the module docstring.
    The parse tables come from the morphism alone.  heads[c] lists each
    letter b whose image starts with c, with the rest of that image, and
    tails[c] each b whose image ends with c, with the image before c; the
    full pass and the frontier steps read them.  starts[c] lists each
    (s, a, rest) with image(a) = s·c·rest, the full pass's start states
    for a word that starts with c, and runs[c], where it exists, is the
    letter whose image is c that lets the full pass cross a run of c."""

    __slots__ = ("levels", "registered", "pending", "parses", "verdicts", "heads", "tails",
                 "starts", "runs")

    def __init__(self, phi):
        self.levels = [frozenset({""})]
        self.registered = defaultdict(list)     # f(x) -> the words x cut when its level is built
        self.pending = defaultdict(set)         # length -> its words cut from shorter levels
        self.parses = {}                        # word -> its minimal interpretations with their cuts
        self.verdicts = {}                      # period bound -> RepetitivenessVerdict
        self.heads, self.tails, self.starts, self.runs = {}, {}, {}, {}
        for b, code in phi.image_codes.items():     # non-erasing, as _record checks
            self.heads.setdefault(code[0], []).append((b, code[1:]))
            self.tails.setdefault(code[-1], []).append((b, code[:-1]))
            for j, c in enumerate(code):
                self.starts.setdefault(c, []).append((code[:j], b, code[j + 1:]))
        for c, starting in self.heads.items():
            ones = [b for b, rest in starting if not rest]
            if len(ones) == 1 and all(rest[:1] != c for _, rest in starting):
                self.runs[c] = ones[0]


_PARSE_MEMO_SIZE = 1 << 17
_RECORDS: dict[DF0LSystem, _Record] = {}
_SYSTEMS: dict[str, DF0LSystem] = {}    # system file text -> the system parsed from it
_GROWTH = threading.Lock()


def clear_language_cache():
    """Forget everything remembered about every system, and every system
    text the CLI parsed."""
    _RECORDS.clear()
    _SYSTEMS.clear()


def clear_interpretation_cache():
    """Forget the minimal interpretations; levels and verdicts stay."""
    for record in list(_RECORDS.values()):
        record.parses.clear()


def _next_level(system: DF0LSystem, n: int, record: _Record) -> frozenset:
    """Level n from the axioms, its pending set, the words registered under n
    and its own words; the record's registered words and pending sets grow."""
    phi = system.morphism
    table = phi.table
    lengths = {a: len(image) for a, image in phi.image_codes.items()}
    registered, pending = record.registered, record.pending

    def cut(v, own):
        """Append the tight factors of image(v) of length n to own; longer ones are pending."""
        image = v.translate(table)
        total = len(image)
        after = total - lengths[v[-1]]      # a tight factor ends past this index
        for i in range(min(lengths[v[0]], total - n + 1)):     # and starts in image(v[0])
            j = i + n
            if j > after:
                own.append(image[i:j])
            for j in range(max(j, after) + 1, total + 1):
                pending[j - i].add(image[i:j])

    level = {a[i:i + n] for a in system.axiom_codes for i in range(len(a) - n + 1)}
    level.update(pending.pop(n, ()))
    cuts = []
    for v in registered.pop(n, ()):
        cut(v, cuts)
    level.update(cuts)
    todo = list(level)
    for x in todo:      # grows while the level closes over its own words
        total = sum(map(lengths.__getitem__, x))
        shortest = total - lengths[x[0]] - lengths[x[-1]] + 2
        if shortest > n:
            registered[shortest].append(x)
        else:
            new = []
            cut(x, new)
            for y in new:
                if y not in level:
                    level.add(y)
                    todo.append(y)
    return frozenset(level)


def _record(system: DF0LSystem, max_len: int) -> _Record:
    """The system's record, its levels (the words by length) grown to cover max_len.

    A record is made only after require_pdf0l() passes, and equal systems
    have equal images, so an erasing system never has one: a record found
    long enough is returned with no check, and every other call checks
    first, so an erasing system raises on every call."""
    record = _RECORDS.get(system)
    if record is None or len(record.levels) <= max_len:
        system.require_pdf0l()
        with _GROWTH:
            record = _RECORDS.get(system) or _RECORDS.setdefault(system, _Record(system.morphism))
            levels = record.levels
            try:
                while len(levels) <= max_len:
                    levels.append(_next_level(system, len(levels), record))
            except BaseException:
                # a level that raised has taken its pending and registered
                # words and kept part of what it cut: forget the system
                del _RECORDS[system]
                raise
    return record


def factor_language(system: DF0LSystem, max_len: int) -> FactorSet:
    """Exactly the language factors of length <= max_len, as a FactorSet."""
    if max_len < 0:
        raise PreconditionError("max_len must be >= 0")
    return FactorSet(system, max_len, _record(system, max_len).levels)


def interpretation_length_bounds(system: DF0LSystem, u) -> tuple[int, int]:
    """Possible lengths of w in a minimal interpretation of u: the image of w
    must cover u, and the interior letters of w map strictly inside u."""
    n = len(system.alphabet.encode(u))
    system.require_pdf0l()
    if not n:
        raise PreconditionError("interpretations are defined for non-empty words")
    return _length_bounds(system.morphism, n)


def _length_bounds(phi, n: int) -> tuple[int, int]:
    """interpretation_length_bounds for a word of length n >= 1."""
    return -(-n // phi.max_image_len), max(1, 2 + (n - 2) // phi.min_image_len)


def _cuts(phi, s_len: int, w: str) -> tuple[int, ...]:
    """|image(w[:i])| - s_len for i = 0..|w|: where in u each prefix image ends."""
    return tuple([*accumulate(map(len, map(phi.image_codes.__getitem__, w)), initial=-s_len)])


def _right_step(states, c: str, heads, levels) -> list:
    """The frontier step u -> u·c: the minimal interpretations (s, w, t, cuts)
    of u·c from those of u, read on t; cuts gains the end of each letter
    that extends w."""
    starting = heads.get(c, ())
    stepped = []
    for s, w, t, cuts in states:
        if t:
            if t[0] == c:
                stepped.append((s, w, t[1:], cuts))
        else:
            level = levels[len(w) + 1]
            for b, rest in starting:
                v = w + b
                if v in level:
                    stepped.append((s, v, rest, cuts + (cuts[-1] + len(rest) + 1,)))
    return stepped


def _left_step(states, c: str, tails, levels) -> list:
    """Its mirror u -> c·u, read on s; cuts move one letter on, and a letter
    that extends w on the left prepends its start."""
    ending = tails.get(c, ())
    stepped = []
    for s, w, t, cuts in states:
        if s:
            if s[-1] == c:
                stepped.append((s[:-1], w, t, tuple([k + 1 for k in cuts])))
        else:
            level = levels[len(w) + 1]
            for b, rest in ending:
                v = b + w
                if v in level:
                    stepped.append((rest, v, t, (-len(rest), *[k + 1 for k in cuts])))
    return stepped


def _full_pass(record: _Record, levels, u: str) -> list:
    """The minimal interpretations (s, w, t, cuts) of u, read one letter
    image at a time, with the record's parse tables and levels built to the
    length bound; see the module docstring.  A state (s, w, rest, pos, cuts)
    has image(w) = s·u[:pos]·rest, where rest, the part of the last image
    not yet read, must agree with u from pos on, and cuts is the list of
    the ends of its images.  It starts as each start state of u[0] whose
    letter is a language letter, a state with one extension follows it in
    place, appending to its cuts, and a run of a letter in the record's run
    table is crossed in one step."""
    n = len(u)
    heads, runs, letters = record.heads, record.runs, levels[1]
    found = []
    todo = [(s, a, rest, 1, [-len(s), len(rest) + 1])
            for s, a, rest in record.starts.get(u[0], ()) if a in letters]
    while todo:
        s, w, rest, pos, cuts = todo.pop()
        while True:
            end = pos + len(rest)
            if end >= n:    # the last image: its overhang is t
                if rest.startswith(u[pos:]):
                    found.append((s, w, rest[n - pos:], tuple(cuts)))
                break
            if rest and not u.startswith(rest, pos):
                break
            c = u[end]
            if c in runs and u.startswith(c, end + 1):
                # the run of c, up to its last letter, is images of runs[c]
                k = n - len(u[end:].lstrip(c)) - 1 - end
                w += runs[c] * k
                cuts += range(end + 1, end + k + 1)
                end += k
            level = levels[len(w) + 1]
            follow = None
            for b, after in heads.get(c, ()):
                v = w + b
                if v in level:
                    if follow is None:
                        follow = v, after
                    else:
                        todo.append((s, v, after, end + 1, [*cuts, end + 1 + len(after)]))
            if follow is None:
                break
            (w, rest), pos = follow, end + 1
            cuts.append(pos + len(rest))
    return found


def _parses(system: DF0LSystem, u: str,
            record: _Record | None = None) -> tuple[tuple[str, str, str, tuple[int, ...]], ...]:
    """Every minimal interpretation (s, w, t) of the code string u, with its
    cuts, in no fixed order; record, if given, is the system's record,
    looked up by the caller.

    A memoized parse is returned as it is.  Else u is parsed by frontier
    steps from the memoized parse of a trim, whose cuts the steps carry: a
    right step from u[:-1], which a weak candidate's search memoized, or a
    left and then a right step from u[1:-1], the core that a strong
    candidate's search memoized; a step builds the levels only as deep as
    it probes, the full pass to the length bound hi.  Only with neither
    memoized does the full pass run."""
    if record is None:
        record = _record(system, 0)
    memo = record.parses
    known = memo.get(u)
    if known is not None:
        return known
    _, hi = _length_bounds(system.morphism, len(u))
    levels, heads, tails = record.levels, record.heads, record.tails
    if (trim := memo.get(u[:-1])) is not None:
        steps = 1
    elif (trim := memo.get(u[1:-1])) is not None:
        steps = 2
    if len(levels) <= hi:
        # a step probes levels up to steps + max|w| over the trim's states
        depth = hi if trim is None else min(hi, steps + max(
            (len(w) for _, w, _, _ in trim), default=0))
        levels = _record(system, depth).levels
    if trim is None:
        parses = tuple(_full_pass(record, levels, u))
    elif steps == 1:
        parses = tuple(_right_step(trim, u[-1], heads, levels))
    else:
        parses = tuple(_right_step(_left_step(trim, u[0], tails, levels),
                                   u[-1], heads, levels))
    if len(memo) >= _PARSE_MEMO_SIZE:
        memo.clear()
    memo[u] = parses
    return parses


def _member(system: DF0LSystem, code: str) -> bool:
    """Whether the code string is a language word; see the module docstring."""
    record = _record(system, 0)
    levels = record.levels
    if len(code) < len(levels):
        return code in levels[len(code)]
    return bool(_parses(system, code, record)) or any(code in a for a in system.axiom_codes)


def contains(system: DF0LSystem, word) -> bool:
    """Membership of a word in the factor language."""
    return _member(system, system.alphabet.encode(word))
