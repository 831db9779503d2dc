import random

import pytest

import df0l.interpretations
import df0l.language
from df0l import (Interpretation, NotInLanguageError, PairSplit, PreconditionError,
                  clear_interpretation_cache, compatible_split, contains,
                  factor_language, interpretation_length_bounds, is_admissible,
                  is_strongly_synchronizing, is_weakly_synchronized,
                  is_weakly_synchronizing, minimal_interpretations,
                  strong_sync_letter)
from df0l.language import _full_pass, _length_bounds, _parses, _record

from conftest import binary_census, random_pdf0l, sys1, w
from oracles import canonical_key, letter_pass, naive_minimal_interpretations, occurrences


def test_thue_morse_aba(thue_morse):
    got = minimal_interpretations(thue_morse, w("aba"))
    assert set(got) == {Interpretation(w("b"), w("bb"), ()),
                        Interpretation((), w("aa"), w("b"))}


def test_thue_morse_aa(thue_morse):
    # direct computation: image(ba) = baab, so the right cut is b, not a
    assert minimal_interpretations(thue_morse, w("aa")) == \
        [Interpretation(w("b"), w("ba"), w("b"))]


def test_thue_morse_single_letter(thue_morse):
    assert set(minimal_interpretations(thue_morse, w("a"))) == {
        Interpretation((), w("a"), w("b")),
        Interpretation(w("b"), w("b"), ()),
    }


def test_rejects_non_members(thue_morse):
    with pytest.raises(NotInLanguageError):
        minimal_interpretations(thue_morse, w("aaa"))


def test_compatible_split_cases(thue_morse):
    interp = Interpretation((), w("aa"), w("b"))  # of aba
    assert compatible_split(thue_morse, interp, w("a"), w("ba")) is None
    assert compatible_split(thue_morse, interp, w("ab"), w("a")) == \
        PairSplit(w("a"), w("a"))
    with pytest.raises(ValueError):
        compatible_split(thue_morse, interp, w("ab"), w("ab"))
    # image(w) must be s·left·right·t, not merely as long as it: image(a) is
    # a b, so s = b, left = b is no interpretation of a, and neither is
    # s = a b a, which is longer than image(a)
    with pytest.raises(PreconditionError):
        compatible_split(thue_morse, Interpretation(w("b"), w("a"), ()), w("b"), ())
    with pytest.raises(PreconditionError):
        compatible_split(thue_morse, Interpretation(w("aba"), w("a"), ()), (), ())


def test_whole_word_split(thue_morse):
    interp = Interpretation((), w("ba"), ())  # of baab
    split = compatible_split(thue_morse, interp, w("baab"), ())
    assert split == PairSplit(w("ba"), ())


def test_admissibility(thue_morse):
    assert is_admissible(thue_morse, w("ab"), w("a"))
    assert is_admissible(thue_morse, w("a"), w("ba"))


def test_admissibility_vacuous_case():
    # xy occurs only as an axiom: no interpretations, hence not admissible
    system = sys1("xyab", {"x": "ab", "y": "ba", "a": "ab", "b": "ba"}, ["xy"])
    assert minimal_interpretations(system, w("xy")) == []
    assert not is_admissible(system, w("x"), w("y"))
    assert is_weakly_synchronized(system, w("xy")).vacuous


def test_word_synchronization(thue_morse):
    assert not is_weakly_synchronized(thue_morse, w("aba")).synchronized
    report = is_weakly_synchronized(thue_morse, w("aa"))
    assert report.synchronized and not report.vacuous and report.split_at == 1
    # every language word of length 4 is weakly synchronized (one interpretation)
    for v in factor_language(thue_morse, 4).words_of_length(4):
        assert len(minimal_interpretations(thue_morse, v)) == 1
        assert is_weakly_synchronized(thue_morse, v).synchronized
    # words containing aa synchronize through the factor
    for v in factor_language(thue_morse, 5).all_words():
        if occurrences(w("aa"), v):
            assert is_weakly_synchronized(thue_morse, v).synchronized


def test_strong_synchronization_levels(thue_morse):
    # all admissible equal pairs of side length 2 are strongly synchronizing
    for v in factor_language(thue_morse, 4).words_of_length(4):
        left, right = v[:2], v[2:]
        if is_admissible(thue_morse, left, right):
            assert is_strongly_synchronizing(thue_morse, left, right)
    # some admissible pair of side length 1 is not
    failing = [(v[:1], v[1:])
               for v in factor_language(thue_morse, 2).words_of_length(2)
               if is_admissible(thue_morse, v[:1], v[1:])
               and not is_strongly_synchronizing(thue_morse, v[:1], v[1:])]
    assert failing


def test_strong_requires_nonempty_left(thue_morse):
    with pytest.raises(ValueError):
        is_strongly_synchronizing(thue_morse, (), w("ab"))


def test_words_may_be_lists_and_iterators(thue_morse):
    assert is_admissible(thue_morse, ["a", "b"], ["a"])
    assert is_weakly_synchronized(thue_morse, iter(w("aa"))) == (True, 1, False)
    with pytest.raises(PreconditionError):
        strong_sync_letter(thue_morse, iter(()), w("ab"))


def test_strong_implies_weak(thue_morse, collapse_bounded):
    for system in (thue_morse, collapse_bounded):
        for v in factor_language(system, 6).all_words():
            if len(v) < 2:
                continue
            for cut in range(1, len(v)):
                left, right = v[:cut], v[cut:]
                if is_strongly_synchronizing(system, left, right):
                    assert is_weakly_synchronizing(system, left, right)


def test_strong_letter_is_reported(thue_morse):
    for v in factor_language(thue_morse, 4).words_of_length(4):
        left, right = v[:2], v[2:]
        if is_admissible(thue_morse, left, right):
            assert strong_sync_letter(thue_morse, left, right) in ("a", "b")


def test_length_bounds_hold_on_random_systems():
    rng = random.Random(31)
    checked = 0
    for _ in range(80):
        system = random_pdf0l(rng, max_letters=3, max_image_len=3)
        phi = system.morphism
        for u in factor_language(system, 6).all_words():
            if not u:
                continue
            lo, hi = interpretation_length_bounds(system, u)
            assert lo * phi.max_image_len >= len(u)
            for interp in minimal_interpretations(system, u):
                assert lo <= len(interp.w) <= hi
                assert phi.apply(interp.w) == interp.s + u + interp.t
                checked += 1
    assert checked > 500


def test_oracle_equivalence_on_fixtures(thue_morse, collapse_bounded,
                                        collapse_unbounded, two_fixed,
                                        repetitive_square):
    for system in (thue_morse, collapse_bounded, collapse_unbounded,
                   two_fixed, repetitive_square):
        for u in factor_language(system, 5).all_words():
            if u:
                assert set(minimal_interpretations(system, u)) == \
                    naive_minimal_interpretations(system, u)


def test_oracle_equivalence_on_random_systems():
    rng = random.Random(37)
    for _ in range(40):
        system = random_pdf0l(rng, max_letters=3, max_image_len=3)
        for u in factor_language(system, 4).all_words():
            if u:
                assert set(minimal_interpretations(system, u)) == \
                    naive_minimal_interpretations(system, u)


def test_split_is_unique_by_brute_force(thue_morse, collapse_bounded):
    """At most one prefix of w can satisfy image(prefix) = s·left."""
    for system in (thue_morse, collapse_bounded):
        phi = system.morphism
        for u in factor_language(system, 4).all_words():
            if not u:
                continue
            for interp in minimal_interpretations(system, u):
                for cut in range(len(u) + 1):
                    left, right = u[:cut], u[cut:]
                    matches = [i for i in range(len(interp.w) + 1)
                               if phi.apply(interp.w[:i]) == interp.s + left]
                    assert len(matches) <= 1
                    split = compatible_split(system, interp, left, right)
                    if matches:
                        i = matches[0]
                        assert split == PairSplit(interp.w[:i], interp.w[i:])
                        assert phi.apply(split.right) == right + interp.t
                    else:
                        assert split is None


def test_extension_preserves_synchronization(thue_morse, collapse_bounded):
    """A synchronizing pair stays synchronizing under outward extension."""
    for system in (thue_morse, collapse_bounded):
        lang = factor_language(system, 8)
        for v in lang.all_words():
            if not 2 <= len(v) <= 4:
                continue
            for cut in range(1, len(v)):
                left, right = v[:cut], v[cut:]
                weak = is_weakly_synchronizing(system, left, right)
                strong = is_strongly_synchronizing(system, left, right)
                if not (weak or strong):
                    continue
                for host in lang.words_of_length(len(v) + 2):
                    for pos in occurrences(v, host):
                        bigger_left = host[:pos] + left
                        bigger_right = right + host[pos + len(v):]
                        if weak:
                            assert is_weakly_synchronizing(
                                system, bigger_left, bigger_right)
                        if strong:
                            assert is_strongly_synchronizing(
                                system, bigger_left, bigger_right)


def _rederived(system, u, interps):
    """Every synchronization predicate at every split of u, re-derived from
    the given interpretations by applying the morphism to prefixes of w."""
    phi = system.morphism
    ends = [{len(phi.apply(i.w[:j])) - len(i.s): j for j in range(len(i.w) + 1)}
            for i in interps]
    splits = range(len(u) + 1)
    common = [k for k in splits if all(k in e for e in ends)]
    if not interps:
        synchronized = (True, 0, True)
    else:
        synchronized = (bool(common), common[0] if common else None, False)
    admissible = [any(k in e for e in ends) for k in splits]
    weakly = [all(k in e for e in ends) for k in splits]
    letters = []
    for k in splits[1:]:
        last = {i.w[e[k] - 1] if e.get(k) else None for i, e in zip(interps, ends)}
        if not interps:
            letters.append(system.alphabet.letters[0])
        else:
            letters.append(last.pop() if len(last) == 1 else None)
    return synchronized, admissible, weakly, letters


def test_exhaustive_binary_family_matches_oracle():
    systems = list(binary_census(2))
    assert len(systems) == 72
    words = 0
    for system in systems:
        key = canonical_key(system.alphabet)
        for u in factor_language(system, 6).all_words():
            if not u:
                continue
            expected = sorted(naive_minimal_interpretations(system, u),
                              key=lambda i: (key(i.s), key(i.w), key(i.t)))
            assert minimal_interpretations(system, u) == expected, (system, u)
            report = is_weakly_synchronized(system, u)
            got = ((report.synchronized, report.split_at, report.vacuous),
                   [is_admissible(system, u[:k], u[k:]) for k in range(len(u) + 1)],
                   [is_weakly_synchronizing(system, u[:k], u[k:])
                    for k in range(len(u) + 1)],
                   [strong_sync_letter(system, u[:k], u[k:])
                    for k in range(1, len(u) + 1)])
            assert got == _rederived(system, u, expected), (system, u)
            words += 1
    assert words > 1000


def test_membership_prunes_letters_with_a_shared_image(collapse_unbounded):
    """b and c share the image aba, so every interpretation through b has a
    twin through c with the same image; only language members are kept."""
    phi = collapse_unbounded.morphism
    lang = factor_language(collapse_unbounded, 12)
    pruned = 0
    for u in lang.all_words():
        if not 4 <= len(u) <= 8:
            continue
        got = minimal_interpretations(collapse_unbounded, u)
        assert set(got) == naive_minimal_interpretations(collapse_unbounded, u)
        for interp in got:
            for j, letter in enumerate(interp.w):
                if letter in "bc":
                    twin = interp.w[:j] + ("c" if letter == "b" else "b",) \
                        + interp.w[j + 1:]
                    assert phi.apply(twin) == phi.apply(interp.w)
                    if twin not in lang:
                        pruned += 1
                        assert Interpretation(interp.s, twin, interp.t) not in got
    assert pruned > 0


def _sample_words(system, lengths, count, rng):
    """Up to `count` seeded language words of each length in `lengths`."""
    lang = factor_language(system, max(lengths))
    words = []
    for n in lengths:
        level = sorted(lang.words_of_length(n))
        words += rng.sample(level, min(count, len(level)))
    return words


def test_long_words_match_oracle(two_fixed, collapse_unbounded):
    """The full pass reads u one letter image at a time; long words make it
    cross many image boundaries."""
    rng = random.Random(41)
    checked = 0
    for system in (two_fixed, collapse_unbounded):
        for u in _sample_words(system, range(20, 41, 5), 3, rng):
            assert set(minimal_interpretations(system, u)) == \
                naive_minimal_interpretations(system, u), (system, u)
            checked += 1
    assert checked == 30


def test_long_words_match_oracle_on_random_systems():
    """20 random systems with at least three words of length 16."""
    rng = random.Random(43)
    systems = checked = 0
    while systems < 20:
        system = random_pdf0l(rng, max_letters=3, max_image_len=3)
        if len(factor_language(system, 16).words_of_length(16)) < 3:
            continue
        systems += 1
        for u in _sample_words(system, (10, 13, 16), 3, rng):
            assert set(minimal_interpretations(system, u)) == \
                naive_minimal_interpretations(system, u), (system, u)
            checked += 1
    assert checked == 180


def test_membership_comes_from_the_parse(thue_morse, collapse_bounded, two_fixed):
    """A word that is not a factor of an axiom is in the language iff it has
    a minimal interpretation, so the public predicates refuse exactly the
    words that `contains` rejects."""
    rng = random.Random(47)
    systems = [thue_morse, collapse_bounded, two_fixed]
    systems += [random_pdf0l(rng, max_letters=3, max_image_len=3) for _ in range(20)]
    refused = 0
    for system in systems:
        for u in _sample_words(system, range(1, 9), 3, rng):
            k = rng.randrange(len(u))
            for b in system.alphabet.letters:
                v = u[:k] + (b,) + u[k + 1:]
                if contains(system, v):
                    found = minimal_interpretations(system, v)
                    assert found or any(occurrences(v, a) for a in system.axioms)
                    is_admissible(system, v[:k], v[k:])
                else:
                    with pytest.raises(NotInLanguageError):
                        minimal_interpretations(system, v)
                    with pytest.raises(NotInLanguageError):
                        is_admissible(system, v[:k], v[k:])
                    refused += 1
    assert refused > 100


def test_interpretations_grow_levels_only_to_the_length_bound():
    """A cold query on the 400-letter Thue-Morse prefix reads levels up to
    hi = 2 + 398 // 2 = 201 only, its membership check included."""
    system = sys1("pq", {"p": "pq", "q": "qp"}, ["p"])
    text = "p"
    while len(text) < 400:
        text = text.translate(str.maketrans({"p": "pq", "q": "qp"}))
    u = w(text[:400])
    assert interpretation_length_bounds(system, u) == (200, 201)
    # the prefix is the image of the 200-letter prefix, and only of it
    assert minimal_interpretations(system, u) == [Interpretation((), u[:200], ())]
    assert len(_record(system, 0).levels) <= 202


def test_each_query_parses_its_word_once(thue_morse, monkeypatch):
    """A public query fetches the parse of its word once, for the membership
    check and its answer both."""
    calls = []
    parses = df0l.interpretations._parses

    def counted(system, u):
        calls.append(u)
        return parses(system, u)

    monkeypatch.setattr(df0l.interpretations, "_parses", counted)
    u = w("abbaab")
    word, pair = (u,), (u[:2], u[2:])
    for query, args in ((minimal_interpretations, word), (is_weakly_synchronized, word),
                        (is_admissible, pair), (is_weakly_synchronizing, pair),
                        (strong_sync_letter, pair)):
        calls.clear()
        query(thue_morse, *args)
        assert calls == [thue_morse.alphabet.encode(u)], query.__name__


def test_a_full_parse_memo_empties_itself(thue_morse, monkeypatch):
    """With room for 4 parses, 10 words asked twice over empty the memo and
    refill it, and every answer is the one a cold query gives."""
    words = sorted(factor_language(thue_morse, 7).words_of_length(7))[:10]
    assert len(words) == 10
    cold = []
    for u in words:
        clear_interpretation_cache()
        cold.append(minimal_interpretations(thue_morse, u))
    monkeypatch.setattr(df0l.language, "_PARSE_MEMO_SIZE", 4)
    clear_interpretation_cache()
    memo = _record(thue_morse, 0).parses
    sizes = []
    for u, expected in list(zip(words, cold)) * 2:
        assert minimal_interpretations(thue_morse, u) == expected, u
        sizes.append(len(memo))
    assert max(sizes) == 4 and sizes.count(1) > 1, sizes


def _seeded_words():
    """Every language word u of length 2-9, with its system, of 25 seeded
    random systems whose level 9 holds 1 to 60 words."""
    rng = random.Random(53)
    systems = 0
    while systems < 25:
        system = random_pdf0l(rng, max_letters=3, max_image_len=3)
        language = factor_language(system, 9)
        if not 0 < len(language.words_of_length(9)) <= 60:
            continue
        systems += 1
        for u in language.all_words():
            if len(u) >= 2:
                yield system, u


def _parsed(full_passes, system, code, trim=None):
    """The parse of code from a cold memo, or from one holding only the
    parse of trim, which then must not run the full pass."""
    clear_interpretation_cache()
    if trim is not None:
        _parses(system, trim)
    full_passes.clear()
    parsed = _parses(system, code)
    assert len(full_passes) == (trim is None), (system, code, trim)
    return parsed


def test_stepped_parses_equal_the_full_pass_and_the_oracle(full_passes):
    """On every language word u of length 2-9 of seeded random systems, the
    full pass, the parse stepped right from that of u[:-1], and left then
    right from that of u[1:-1] each equal the definition-level oracle, cuts
    included, once sorted canonically; the full pass has no duplicates."""

    def canonical(parse):
        return [(len(x), x) for x in parse[:3]]

    def parse(system, code, trim=None):
        return sorted(_parsed(full_passes, system, code, trim), key=canonical)

    words = 0
    for system, u in _seeded_words():
        encode, image = system.alphabet.encode, system.morphism.apply
        expected = sorted(
            ((encode(i.s), encode(i.w), encode(i.t),
              tuple(len(image(i.w[:k])) - len(i.s) for k in range(len(i.w) + 1)))
             for i in naive_minimal_interpretations(system, u)), key=canonical)
        code = encode(u)
        full = parse(system, code)
        assert len(set(full)) == len(full), (system, u)
        assert full == expected, (system, u)
        assert parse(system, code, code[:-1]) == expected, (system, u)
        if len(code) > 2:
            assert parse(system, code, code[1:-1]) == expected, (system, u)
        words += 1
    assert words > 1000, words


def test_stepped_interpretations_come_in_canonical_order(full_passes):
    """On the same words, minimal_interpretations returns canonical order
    when the memo holds only the parse of u[:-1] or only that of u[1:-1],
    whatever order the step left its parse in."""
    words = unordered = 0
    for system, u in _seeded_words():
        key = canonical_key(system.alphabet)
        code = system.alphabet.encode(u)
        for trim in (code[:-1], code[1:-1]):
            if not trim:
                continue
            parsed = _parsed(full_passes, system, code, trim)
            interps = minimal_interpretations(system, u)
            assert interps == sorted(interps, key=lambda i: (key(i.s), key(i.w), key(i.t))), \
                (system, u, trim)
            unordered += [p[:3] for p in parsed] != [tuple(map(system.alphabet.encode, i))
                                                    for i in interps]
        words += 1
    assert words > 1000 and unordered, (words, unordered)


def _same_pass(system, code):
    """The full pass on the code string, checked against the letter-by-letter
    pass on the system's levels built to the length bound: the same parses,
    cuts included, none twice."""
    phi = system.morphism
    record = _record(system, _length_bounds(phi, len(code))[1])
    parse = _full_pass(phi, record.heads, record.levels, code)
    assert len(set(parse)) == len(parse), (system, code)
    assert sorted(parse) == sorted(letter_pass(phi, record.heads, record.levels, code)), \
        (system, code)
    return parse


def test_full_pass_matches_the_letter_pass(thue_morse, collapse_bounded):
    """The pass by whole images finds the parses of the pass by letters,
    cuts included: on every language word up to length 8 of the binary
    census; on seeded random systems with images up to 5 letters, on
    language words up to length 30 and on each with one letter changed; on
    words that start and end inside an image of collapse_bounded_delta, so
    that s and t are both non-empty; and on the 400-letter Thue-Morse
    prefix."""
    words = 0
    for system in binary_census():
        for level in _record(system, 8).levels[1:9]:
            for code in level:
                _same_pass(system, code)
                words += 1
    assert words > 10000, words

    rng = random.Random(59)
    changed = 0
    for _ in range(12):
        system = random_pdf0l(rng, max_letters=4, max_image_len=5)
        codes = system.alphabet.codes
        levels = _record(system, 30).levels
        for n in range(2, 31):
            for code in rng.sample(sorted(levels[n]), min(2, len(levels[n]))):
                _same_pass(system, code)
                k = rng.randrange(n)
                changed += not _same_pass(system, code[:k] + rng.choice(codes) + code[k + 1:])
    assert changed > 100, changed

    phi = collapse_bounded.morphism
    inside = 0
    for v in sorted(set().union(*_record(collapse_bounded, 6).levels[1:7])):
        image = v.translate(phi.table)
        for i in range(1, len(phi.image_codes[v[0]])):
            for j in range(max(i, len(image) - len(phi.image_codes[v[-1]])) + 1, len(image)):
                parse = _same_pass(collapse_bounded, image[i:j])
                assert (image[:i], v, image[j:]) in [p[:3] for p in parse]
                inside += 1
    assert inside > 300, inside

    prefix = "".join("ab"[bin(i).count("1") % 2] for i in range(400))
    assert _same_pass(thue_morse, thue_morse.alphabet.encode(w(prefix)))


def test_full_pass_reads_its_levels_a_linear_number_of_times(collapse_unbounded):
    """b and c share the image aba, so a pass that checked membership only
    once u is read would double its states at every aba.  On a 400-letter
    factor of phi^7(a), the pass reads the levels at most 4|u| times, each
    level it takes and each membership probe counted, and it finds the
    parses of the pass by letters."""
    phi = collapse_unbounded.morphism
    code = collapse_unbounded.alphabet.encode(phi.apply_power(w("a"), 7)[100:500])
    record = _record(collapse_unbounded, _length_bounds(phi, len(code))[1])
    reads = []

    def read():
        reads.append(None)
        if len(reads) > 4 * len(code):
            raise AssertionError("the pass read its levels more than 4|u| times")

    class Level(frozenset):
        def __contains__(self, word):
            read()
            return frozenset.__contains__(self, word)

    class Levels(list):
        def __getitem__(self, k):
            read()
            return list.__getitem__(self, k)

    parse = _full_pass(phi, record.heads, Levels(map(Level, record.levels)), code)
    assert parse and sorted(parse) == sorted(letter_pass(phi, record.heads, record.levels, code))
    assert len(reads) > len(code) // 4, len(reads)
