import random
import tracemalloc
import types

import pytest

import df0l.system
from df0l import (Alphabet, DF0LSystem, ErasingMorphismError,
                  InvalidSystemError, LetterMap, Morphism, classify_letters,
                  factor_language, power_system, validate)
from df0l.system import _alph_walk

from conftest import binary_census, random_pdf0l, sys1, w
from oracles import _growth_oracle, _iterate_of, canonical_key


def test_alphabet_rejects_bad_input():
    with pytest.raises(InvalidSystemError):
        Alphabet(())
    with pytest.raises(InvalidSystemError):
        Alphabet(("a", "a"))
    with pytest.raises(InvalidSystemError):
        Alphabet(("a", "b c"))
    with pytest.raises(InvalidSystemError):
        Alphabet(("a", ""))
    with pytest.raises(InvalidSystemError):
        Alphabet([1])   # a token is a string


def test_alphabet_has_at_most_one_letter_per_code_point(monkeypatch):
    """Letter i has code chr(i), so an alphabet holds at most
    sys.maxunicode + 1 letters; with a code space of 4 the fifth letter is
    refused."""
    monkeypatch.setattr(df0l.system, "sys", types.SimpleNamespace(maxunicode=3))
    assert Alphabet("abcd").codes == "\x00\x01\x02\x03"
    with pytest.raises(InvalidSystemError, match="alphabet has more than 4 letters"):
        Alphabet("abcde")


def test_alphabet_reads_words_from_any_iterable():
    alpha = Alphabet(("a", "b"))
    assert alpha.encode(iter(())) == ""
    assert alpha.encode(iter(("b", "a"))) == "\x01\x00"
    assert alpha.check_word(["a"]) == ("a",)


def test_alphabet_canonical_order_uses_declaration_order():
    alpha = Alphabet(("z", "a"))
    assert sorted([("a",), ("z",)], key=canonical_key(alpha)) == [("z",), ("a",)]


def test_morphism_validation():
    alpha = Alphabet(("a", "b"))
    with pytest.raises(InvalidSystemError):
        Morphism(alpha, {"a": ("a",)})  # missing map for b
    with pytest.raises(InvalidSystemError):
        Morphism(alpha, {"a": ("a",), "b": ("c",)})  # unknown letter in image
    with pytest.raises(InvalidSystemError):
        Morphism(alpha, {"a": ("a",), "b": ("b",), "c": ("a",)})  # extra map
    # image tokens are checked against the alphabet, which holds only good tokens
    for token in ("c", "a b", "", " a"):
        with pytest.raises(InvalidSystemError, match=f"unknown letter {token!r}"):
            Morphism(alpha, {"a": ("a", token), "b": ("b",)})


def test_system_validation():
    m = Morphism(Alphabet(("a",)), {"a": ("a",)})
    with pytest.raises(InvalidSystemError):
        DF0LSystem(m, [])
    with pytest.raises(InvalidSystemError):
        DF0LSystem(m, [()])
    s = DF0LSystem(m, [("a",), ("a",)])
    assert s.axioms == (("a",),)  # deduplicated
    with pytest.raises(InvalidSystemError):
        DF0LSystem({"a": ("a",)}, [("a",)])


def test_equality_and_repr_read_images_and_axioms():
    alpha = Alphabet(("a", "b"))
    phi = Morphism(alpha, {"a": ("a", "b"), "b": ("b",)})
    psi = Morphism(alpha, {"a": ("a", "b"), "b": ("a",)})
    assert phi == Morphism(alpha, {"a": ("a", "b"), "b": ("b",)})
    assert phi != psi and phi != 5
    system = DF0LSystem(phi, [("a",)])
    assert system == DF0LSystem(phi, [("a",)])
    for other in (DF0LSystem(psi, [("a",)]), DF0LSystem(phi, [("b",)]), 5):
        assert system != other
    assert repr(alpha) == "Alphabet(a b)"
    assert repr(phi) == "Morphism(a->a b, b->b)"
    assert repr(DF0LSystem(phi, [("b", "a"), ("a",)])) == \
        "DF0LSystem(Morphism(a->a b, b->b); axioms: a, b a)"
    assert repr(Morphism(alpha, {"a": ("a", "b"), "b": ()})) == "Morphism(a->a b, b->ε)"


def test_validate_reports(thue_morse):
    report = validate(thue_morse)
    assert report.is_pdf0l and report.erasing_letters == ()
    assert (report.min_image_len, report.max_image_len) == (2, 2)

    erasing = DF0LSystem(
        Morphism(Alphabet(("a", "c")), {"a": ("a", "c"), "c": ()}), [("a",)])
    report = validate(erasing)
    assert not report.is_pdf0l and report.erasing_letters == ("c",)
    with pytest.raises(ErasingMorphismError):
        factor_language(erasing, 3)


def test_apply_and_power(thue_morse, two_fixed):
    phi = thue_morse.morphism
    assert phi.apply(w("ba")) == w("baab")
    assert phi.apply(()) == ()
    assert two_fixed.morphism.apply_power(w("b"), 2) == w("cbd")
    assert two_fixed.morphism.apply_power(w("b"), 0) == w("b")


def test_apply_names_a_letter_without_image(thue_morse):
    plain = LetterMap(Alphabet(("A", "B")), thue_morse.alphabet, {"A": ("a", "b"), "B": ()})
    assert plain.apply(("A", "B", "A")) == w("abab")
    with pytest.raises(InvalidSystemError, match="unknown letter 'C'"):
        plain.apply(("A", "C", "B"))
    with pytest.raises(InvalidSystemError, match="unknown letter 'z'"):
        thue_morse.morphism.apply(w("abz"))
    with pytest.raises(InvalidSystemError, match="unknown letter 'z'"):
        thue_morse.morphism.apply_power(w("z"), 2)


def test_power_is_the_iterated_image_of_each_letter():
    rng = random.Random(8)
    morphisms = [random_pdf0l(rng).morphism for _ in range(50)]
    morphisms.append(Morphism(Alphabet(("a", "b", "c")),
                              {"a": ("a", "c"), "b": ("c", "b", "a"), "c": ()}))
    for phi in morphisms:
        for k in (1, 2, 3, 6):
            power = phi.power(k)
            expected = Morphism(phi.alphabet,
                                {a: _iterate_of(phi, (a,), k) for a in phi.alphabet})
            assert power == expected
            assert hash(power) == hash(expected)
            lengths = [len(power.image(a)) for a in phi.alphabet]
            assert (power.min_image_len, power.max_image_len) == (min(lengths),
                                                                  max(lengths))
            assert power.is_nonerasing == phi.is_nonerasing


def test_image_length_bounds(thue_morse, collapse_bounded):
    assert (thue_morse.morphism.min_image_len,
            thue_morse.morphism.max_image_len) == (2, 2)
    assert (collapse_bounded.morphism.min_image_len,
            collapse_bounded.morphism.max_image_len) == (3, 5)
    ident = Morphism(Alphabet(("a",)), {"a": ("a",)})
    assert (ident.min_image_len, ident.max_image_len) == (1, 1)
    erasing = Morphism(Alphabet(("a", "b")), {"a": ("a", "b"), "b": ()})
    assert (erasing.min_image_len, erasing.max_image_len) == (0, 2)
    # plain letter maps, such as twined data, work too
    alpha = LetterMap(Alphabet(("A", "B")), erasing.alphabet,
                      {"A": ("a", "b", "a"), "B": ("b",)})
    assert (alpha.min_image_len, alpha.max_image_len) == (1, 3)


def test_power_system(thue_morse, two_fixed):
    squared = power_system(thue_morse, 2)
    assert squared.morphism.image("a") == w("abba")
    assert squared.morphism.image("b") == w("baab")
    assert squared.axioms == (w("a"), w("ab"))

    p2 = power_system(two_fixed, 2)
    assert p2.axioms == (w("b"), w("ad"))
    assert power_system(thue_morse, 1) == thue_morse

    # an erasing morphism can map an axiom to the empty word, which is dropped
    erasing = sys1("ac", {"a": "ac", "c": ""}, ["c", "a"])
    for k in (2, 3):
        powered = power_system(erasing, k)
        assert powered.axioms == (w("a"), w("c"), w("ac"))
        assert powered.morphism.image("a") == w("ac")
        assert powered.morphism.image("c") == ()


def test_power_system_matches_every_iterate_on_the_binary_census():
    """On every system of the binary census and k <= 5, the power system,
    whose axioms stop at the first repeated iterate, is the one built from
    phi^k and all k iterates of each axiom, one image at a time."""
    for system in binary_census():
        phi = system.morphism
        for k in range(1, 6):
            images = {a: _iterate_of(phi, (a,), k) for a in phi.alphabet}
            axioms = [_iterate_of(phi, axiom, i) for axiom in system.axioms for i in range(k)]
            assert power_system(system, k) == DF0LSystem(Morphism(phi.alphabet, images),
                                                         axioms), (system, k)


def test_power_preserves_language(thue_morse, two_fixed, repetitive_square):
    for system in (thue_morse, two_fixed, repetitive_square):
        for k in (2, 3):
            assert (factor_language(power_system(system, k), 8)
                    == factor_language(system, 8))


def test_classify_letters(thue_morse, two_fixed, repetitive_square):
    assert classify_letters(thue_morse.morphism).unbounded == ("a", "b")
    assert classify_letters(repetitive_square.morphism).unbounded == ("a", "b", "c")
    growth = classify_letters(two_fixed.morphism)
    assert growth.bounded == ("c", "d")
    assert growth.unbounded == ("a", "b")
    # c has a two-letter image but lies on no cycle, so a -> c -> b b -> b b
    # stays bounded
    growth = classify_letters(sys1("abc", {"a": "c", "b": "b", "c": "bb"}, ["a"]).morphism)
    assert growth.bounded == ("a", "b", "c") and growth.unbounded == ()


def test_invariant_exponent(thue_morse, two_fixed):
    assert classify_letters(thue_morse.morphism).invariant_exponent == 1
    assert classify_letters(two_fixed.morphism).invariant_exponent == 2
    ident = Morphism(Alphabet(("a",)), {"a": ("a",)})
    assert classify_letters(ident).invariant_exponent == 1


def test_invariant_exponent_is_invariant(thue_morse, two_fixed,
                                         repetitive_square, collapse_bounded):
    for system in (thue_morse, two_fixed, repetitive_square, collapse_bounded):
        phi = system.morphism
        p = classify_letters(phi).invariant_exponent
        for a in phi.alphabet:
            base = set(phi.apply_power((a,), p))
            assert set(phi.apply_power((a,), 2 * p)) == base
            assert set(phi.apply_power((a,), 3 * p)) == base


def test_minimal_invariant_subalphabets(thue_morse, repetitive_square):
    growth = classify_letters(thue_morse.morphism)
    assert growth.invariant_exponent == 1
    assert growth.minimal_invariant_subalphabets == (("a", "b"),)
    growth = classify_letters(repetitive_square.morphism)
    # alph(phi(a)) = {a,c} but alph(phi^2(a)) = {a,b,c}
    assert growth.invariant_exponent == 2
    assert growth.minimal_invariant_subalphabets == (("b", "c"),)
    all_bounded = Morphism(Alphabet(("a",)), {"a": ("a",)})
    growth = classify_letters(all_bounded)
    assert growth.invariant_exponent == 1
    assert growth.minimal_invariant_subalphabets == ()


def test_subalphabets_are_closed(two_fixed, repetitive_square, collapse_bounded):
    for system in (two_fixed, repetitive_square, collapse_bounded):
        phi = system.morphism
        growth = classify_letters(phi)
        unbounded = set(growth.unbounded)
        power = phi.power(growth.invariant_exponent)
        for sub in map(frozenset, growth.minimal_invariant_subalphabets):
            assert sub & unbounded
            assert frozenset().union(*(set(power.image(g)) for g in sub)) == sub


def test_multichar_tokens_behave_like_their_isomorph():
    from df0l import minimal_interpretations, weak_threshold
    plain = sys1("ab", {"a": "ab", "b": "ba"}, ["a"])
    fancy = DF0LSystem(
        Morphism(Alphabet(("x1", "y22")),
                 {"x1": ("x1", "y22"), "y22": ("y22", "x1")}),
        [("x1",)])
    rename = {"a": "x1", "b": "y22"}
    report = weak_threshold(fancy, 8)
    assert report.threshold == weak_threshold(plain, 8).threshold == 3
    assert report.witness == tuple(rename[t] for t in w("aba"))
    fancy_interps = minimal_interpretations(fancy, ("x1", "y22", "x1"))
    plain_interps = minimal_interpretations(plain, w("aba"))
    translate = lambda word: tuple(rename[t] for t in word)
    assert {(i.s, i.w, i.t) for i in fancy_interps} == \
        {(translate(i.s), translate(i.w), translate(i.t)) for i in plain_interps}


def test_minimal_subalphabets_match_subset_enumeration():
    """Brute force over all subalphabets: the computed sets are exactly the
    inclusion-minimal invariant ones."""
    from itertools import combinations
    rng = random.Random(71)
    for _ in range(80):
        system = random_pdf0l(rng, max_letters=4, max_image_len=3)
        phi = system.morphism
        growth = classify_letters(phi)
        power = phi.power(growth.invariant_exponent)
        unbounded = set(growth.unbounded)
        letters = phi.alphabet.letters
        invariant = []
        for size in range(1, len(letters) + 1):
            for combo in combinations(letters, size):
                subset = frozenset(combo)
                if not subset & unbounded:
                    continue
                closure = frozenset().union(*(set(power.image(a)) for a in subset))
                if closure == subset:
                    invariant.append(subset)
        minimal = {b for b in invariant
                   if not any(c < b for c in invariant)}
        assert set(map(frozenset, growth.minimal_invariant_subalphabets)) == minimal


def test_minimal_subalphabets_at_multiples_of_the_exponent():
    """The subalphabets, read off the alph walk modulo its period, are the
    minimal sets alph(phi^q(g)) over unbounded letters g at q = p, 2p and 3p
    for the exponent p, built as iterated images.  Some morphisms have
    preperiod 0, where p is the walk's length, so walk[p] is past its end."""
    rng = random.Random(12)
    wrapped = 0
    for _ in range(80):
        phi = random_pdf0l(rng, max_letters=4, max_image_len=3).morphism
        growth = classify_letters(phi)
        p = growth.invariant_exponent
        walk, s = _alph_walk(phi)
        if s == 0 and growth.unbounded:
            assert p == len(walk)
            wrapped += 1
        result = growth.minimal_invariant_subalphabets
        for q in (p, 2 * p, 3 * p):
            candidates = {frozenset(_iterate_of(phi, (g,), q)) for g in growth.unbounded}
            minimal = {b for b in candidates if not any(c < b for c in candidates)}
            assert len(result) == len(minimal) and set(map(frozenset, result)) == minimal, (
                phi, q)
    assert wrapped >= 5
def test_letter_growth_builds_no_power():
    """a -> a a b, b -> c0 -> ... -> c17 -> b: phi^19(a) has over 2^19
    letters, but its letter set is read off letter sets in under 4 MiB."""
    cycle = ["b"] + [f"c{i}" for i in range(18)]
    images = {x: (y,) for x, y in zip(cycle, cycle[1:] + cycle[:1])}
    images["a"] = ("a", "a", "b")
    phi = Morphism(Alphabet(["a"] + cycle), images)
    tracemalloc.start()
    try:
        growth = classify_letters(phi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert growth.invariant_exponent == 19
    assert growth.unbounded == ("a",)
    assert growth.minimal_invariant_subalphabets == (phi.alphabet.letters,)
    assert peak < 4 * 2**20


def test_growth_classification_matches_oracle():
    rng = random.Random(101)
    for _ in range(150):
        system = random_pdf0l(rng, max_letters=3, max_image_len=3)
        phi = system.morphism
        unbounded = classify_letters(phi).unbounded
        for a in phi.alphabet:
            lengths = [len(phi.apply_power((a,), k)) for k in range(6)]
            assert all(x <= y for x, y in zip(lengths, lengths[1:]))
            assert (a in unbounded) == _growth_oracle(phi, a)
