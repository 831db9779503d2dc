import json
import os
import random
import time
from itertools import product

import pytest

from df0l import (Alphabet, DF0LSystem, LetterMap, Morphism, PreconditionError,
                  TwinedData, collision_family_check, collisions_upto, contains,
                  delta_estimate, find_twined_failure, render_system,
                  simplification_language_check, twined_commutation_check)
from df0l.cli import main
from df0l.injectivity import _is_code

from conftest import w
from oracles import (bounded_language_check, canonical_key, check_twined_report,
                     naive_collision, sampled_commutation)

SAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, "samples")


def test_collisions_collapse_bounded(collapse_bounded):
    assert collisions_upto(collapse_bounded, 1) == [(w("b"), w("c"))]
    pairs = collisions_upto(collapse_bounded, 3)
    assert {(p.u, p.v) for p in pairs} == {
        (w("b"), w("c")), (w("ba"), w("ca")),
        (w("ab"), w("ac")), (w("bac"), w("cab"))}
    # the same four pairs and no more up to length 6
    assert collisions_upto(collapse_bounded, 6) == pairs


def test_collision_pairs_are_genuine(collapse_bounded, collapse_unbounded):
    for system in (collapse_bounded, collapse_unbounded):
        phi = system.morphism
        for pair in collisions_upto(system, 4):
            assert pair.u != pair.v
            assert phi.apply(pair.u) == phi.apply(pair.v)
            assert contains(system, pair.u) and contains(system, pair.v)


def test_collisions_monotone(collapse_unbounded):
    small = set(map(tuple, ((p.u, p.v) for p in collisions_upto(collapse_unbounded, 2))))
    large = set(map(tuple, ((p.u, p.v) for p in collisions_upto(collapse_unbounded, 4))))
    assert small <= large
    assert delta_estimate(collapse_unbounded, 2)[0] <= \
        delta_estimate(collapse_unbounded, 4)[0]


def test_no_collisions_thue_morse(thue_morse, monkeypatch):
    """Thue-Morse's images form a code, so collisions_upto answers from the
    images alone, at any length, and builds no language."""
    def unused(*args):
        raise AssertionError("a code needs no language")

    monkeypatch.setattr("df0l.injectivity.factor_language", unused)
    for max_len in (1, 8, 1000):
        assert collisions_upto(thue_morse, max_len) == []
        assert delta_estimate(thue_morse, max_len) == (0, 0)


def _morphism(letters, images):
    return Morphism(Alphabet(tuple(letters)),
                    {a: tuple(image) for a, image in zip(letters, images)})


def test_code_test_matches_the_collision_oracle():
    """The images form a code iff no two distinct words of at most 5 letters
    have equal images: on all 196 morphisms over {a, b} with images of
    length 1-3, 170 of them codes, on 300 seeded morphisms over {a, b, c},
    265 of them codes, and on a -> a, b -> c c, c -> a c c a, where the
    dangling suffix c c a starts with a codeword longer than the shortest
    and leaves the codeword a.  Every collision found has at most 3
    letters."""
    binary = ["".join(p) for n in (1, 2, 3) for p in product("ab", repeat=n)]
    ternary = ["".join(p) for n in (1, 2, 3) for p in product("abc", repeat=n)]
    rng = random.Random(26)
    morphisms = [_morphism("ab", images) for images in product(binary, repeat=2)]
    morphisms += [_morphism("abc", rng.choices(ternary, k=3)) for _ in range(300)]
    morphisms.append(_morphism("abc", ["a", "cc", "acca"]))
    codes = []
    for phi in morphisms:
        collision = naive_collision(phi, 5)
        assert _is_code(phi) == (collision is None), phi
        assert collision is None or len(collision[1]) <= 3, (phi, collision)
        codes.append(collision is None)
    assert (sum(codes[:196]), sum(codes[196:-1]), codes[-1]) == (170, 265, False)


def test_code_test_on_2000_letters():
    """x0 -> x0 and x_i -> x_(i-1) x_i for 0 < i < 1999: the dangling
    suffixes are x1, x2, ... x1998, one after the other.  With
    x1999 -> x1998 the last is a codeword, and x0 x2 ... x1998 and
    x1 x3 ... x1997 x1999 have equal images; with x1999 -> x1999 x1999 none
    is, and the images form a code.  Each is decided in well under a
    second."""
    letters = [f"x{i}" for i in range(2000)]
    chain = [letters[max(i - 1, 0):i + 1] for i in range(1999)]
    non_code = _morphism(letters, chain + [["x1998"]])
    code = _morphism(letters, chain + [["x1999", "x1999"]])
    assert non_code.apply(letters[0:1999:2]) == non_code.apply(letters[1::2])
    for phi, expected in ((non_code, False), (code, True)):
        start = time.perf_counter()
        assert _is_code(phi) is expected
        assert time.perf_counter() - start < 1.0


def test_delta_estimate(collapse_bounded):
    assert delta_estimate(collapse_bounded, 3) == (11, 4)
    assert delta_estimate(collapse_bounded, 6) == (11, 4)


def test_delta_grows_for_unbounded_family(collapse_unbounded):
    # image lengths of the collision members keep growing with the bound
    estimates = [delta_estimate(collapse_unbounded, L)[0] for L in (3, 6, 9)]
    assert estimates == [13, 26, 39]
    pairs3 = {(p.u, p.v) for p in collisions_upto(collapse_unbounded, 3)}
    assert (w("b"), w("c")) in pairs3
    assert (w("aba"), w("aca")) in pairs3


def test_collision_family(collapse_unbounded, collapse_bounded):
    seeds = w("aca"), w("aba")
    assert collision_family_check(collapse_unbounded, 1, *seeds)
    assert collision_family_check(collapse_unbounded, 3, *seeds)
    # in the bounded-delta system the seed word aca is not in the language
    assert not collision_family_check(collapse_bounded, 1, *seeds)
    assert not contains(collapse_bounded, w("aca"))
    # ... whichever seed it is, while aba is
    assert contains(collapse_bounded, w("aba"))
    assert not collision_family_check(collapse_bounded, 1, w("aba"), w("aca"))
    # b, c collide, but the next members b a b a, c a b a do not: b a b a
    # is not in the language, so delta stays bounded
    assert collision_family_check(collapse_bounded, 1, w("b"), w("c"))
    assert not collision_family_check(collapse_bounded, 2, w("b"), w("c"))
    # seeds whose images differ, and equal seeds, are no collision
    assert not collision_family_check(collapse_unbounded, 1, w("a"), w("b"))
    assert not collision_family_check(collapse_unbounded, 1, w("aca"), w("aca"))


def _example_twining(collapse_bounded):
    target = Alphabet(("A", "B"))
    psi = Morphism(target, {"A": ("A", "B", "A", "B", "B"), "B": ("A", "B", "A")})
    source = collapse_bounded.alphabet
    alpha = LetterMap(source, target, {"a": ("A",), "b": ("B",), "c": ("B",)})
    beta = LetterMap(target, source, {"A": w("abacc"), "B": w("aba")})
    return TwinedData(collapse_bounded.morphism, psi, alpha, beta)


def test_verify_twined(collapse_bounded):
    data = _example_twining(collapse_bounded)
    assert find_twined_failure(data) is None


def test_identity_twining(thue_morse):
    # alpha the identity and beta the morphism itself twine phi with phi
    phi = thue_morse.morphism
    identity = LetterMap(phi.alphabet, phi.alphabet, {a: (a,) for a in phi.alphabet})
    as_map = LetterMap(phi.alphabet, phi.alphabet, {a: phi.image(a) for a in phi.alphabet})
    assert find_twined_failure(TwinedData(phi, phi, identity, as_map)) is None


def test_perturbed_twining_pinpoints_letter(collapse_bounded):
    data = _example_twining(collapse_bounded)
    broken = TwinedData(data.phi, data.psi,
                        LetterMap(data.phi.alphabet, data.psi.alphabet,
                                  {"a": ("A",), "b": ("A",), "c": ("B",)}),
                        data.beta)
    assert find_twined_failure(broken) == "b"


def test_commutation(collapse_bounded):
    data = _example_twining(collapse_bounded)
    assert twined_commutation_check(data)
    samples = [w("a"), w("ab"), w("abacc"), w("cba")]
    for k in range(4):
        assert sampled_commutation(data, k, samples)
    # explicit image-side samples
    assert sampled_commutation(data, 2, samples,
                               image_samples=[("A",), ("B", "A"), ("A", "B", "B")])


def test_language_check(collapse_bounded):
    data = _example_twining(collapse_bounded)
    target = DF0LSystem(data.psi, [data.alpha.apply(ax)
                                   for ax in collapse_bounded.axioms])
    assert simplification_language_check(
        collapse_bounded, target, data.alpha, data.beta)
    # identity twining trivially passes
    phi = collapse_bounded.morphism
    identity = LetterMap(phi.alphabet, phi.alphabet, {a: (a,) for a in phi.alphabet})
    assert simplification_language_check(
        collapse_bounded, collapse_bounded, identity, identity)
    # a beta with an image outside the source language (bb never occurs)
    # does not commute with the morphisms, so the check refuses it
    bad_beta = LetterMap(data.psi.alphabet, phi.alphabet, {"A": w("abacc"), "B": w("abb")})
    with pytest.raises(PreconditionError):
        simplification_language_check(collapse_bounded, target, data.alpha, bad_beta)
    # commuting maps whose axiom image leaves the language must fail: the
    # identity carries the axiom bb of the second system to bb
    from_bb = DF0LSystem(phi, [w("bb")])
    assert not contains(collapse_bounded, w("bb"))
    assert not simplification_language_check(
        from_bb, collapse_bounded, identity, identity)


def test_maps_must_read_and_write_the_pairs_alphabets(collapse_bounded):
    """The checks compare code strings, which follow declaration order, so a
    map over the same letters in another order, or over other letters, is
    refused by each check."""
    data = _example_twining(collapse_bounded)
    source, target = data.phi.alphabet, data.psi.alphabet
    reordered = Alphabet(("B", "A"))
    images = {"a": ("A",), "b": ("B",), "c": ("B",)}
    bad = [data._replace(alpha=LetterMap(source, reordered, images)),
           data._replace(alpha=LetterMap(Alphabet(("c", "b", "a")), target, images)),
           data._replace(beta=LetterMap(reordered, source,
                                        {"A": w("abacc"), "B": w("aba")})),
           data._replace(beta=data.alpha), data._replace(alpha=data.beta)]
    system = DF0LSystem(data.phi, [w("a")])
    target_system = DF0LSystem(data.psi, [("A",)])
    for broken in bad:
        with pytest.raises(PreconditionError, match="alpha must map"):
            find_twined_failure(broken)
        with pytest.raises(PreconditionError, match="alpha must map"):
            twined_commutation_check(broken)
        with pytest.raises(PreconditionError, match="alpha must map"):
            simplification_language_check(system, target_system, broken.alpha, broken.beta)
    assert find_twined_failure(data) is None


def test_canonical_pair_order(collapse_bounded):
    pairs = collisions_upto(collapse_bounded, 3)
    key = canonical_key(collapse_bounded.alphabet)
    assert pairs == sorted(pairs, key=lambda p: (key(p.u), key(p.v)))
    for pair in pairs:
        assert key(pair.u) < key(pair.v)


def _random_twined_pair(rng):
    """A seeded twined pair: phi = beta∘alpha, psi = alpha∘beta, with random
    axioms of length 1-2 on each side."""
    source = Alphabet(tuple("abc"[:rng.randint(2, 3)]))
    target = Alphabet(tuple("ABC"[:rng.randint(1, 3)]))
    alpha = LetterMap(source, target,
                      {a: tuple(rng.choices(target.letters, k=rng.randint(1, 2)))
                       for a in source})
    beta = LetterMap(target, source,
                     {b: tuple(rng.choices(source.letters, k=rng.randint(1, 3)))
                      for b in target})
    phi = Morphism(source, {a: beta.apply(alpha.image(a)) for a in source})
    psi = Morphism(target, {b: alpha.apply(beta.image(b)) for b in target})

    def axioms(alphabet):
        return [tuple(rng.choices(alphabet.letters, k=rng.randint(1, 2)))
                for _ in range(rng.randint(1, 2))]
    return DF0LSystem(phi, axioms(source)), DF0LSystem(psi, axioms(target)), alpha, beta


TWINED_PAIRS = [_random_twined_pair(random.Random(seed)) for seed in range(500)]


def test_language_check_is_exact():
    """The axiom check equals the bounded check once L reaches the longest
    axiom, and at L = 6; the bounded check at L = 1 passes pairs the exact
    check refuses."""
    negatives = passed_at_1 = 0
    for system, target, alpha, beta in TWINED_PAIRS:
        exact = simplification_language_check(system, target, alpha, beta)
        longest = max(map(len, [*system.axioms, *target.axioms]))
        assert exact == bounded_language_check(system, target, alpha, beta, longest)
        assert exact == bounded_language_check(system, target, alpha, beta, 6)
        if not exact:
            negatives += 1
            passed_at_1 += bounded_language_check(system, target, alpha, beta, 1)
    assert negatives > 0 and passed_at_1 > 0


def test_commutation_is_decided_on_letters():
    """The letter check equals the sampled check with every letter as a
    sample for k <= 3, on random maps (mostly not twined) and on powers of
    one morphism (commuting, mostly not twined); it holds on every twined
    pair."""
    rng = random.Random(7)
    outcomes = []
    for _ in range(3000):
        source = Alphabet(tuple("abc"[:rng.randint(2, 3)]))
        target = Alphabet(tuple("ABC"[:rng.randint(1, 3)]))
        phi = Morphism(source, {a: tuple(rng.choices(source.letters, k=rng.randint(1, 3)))
                                for a in source})
        if rng.random() < 0.2:
            # phi commutes with its own powers
            psi = phi
            powers = [phi.power(rng.randint(1, 2)) for _ in range(2)]
            alpha, beta = (LetterMap(phi.alphabet, phi.alphabet,
                                     {a: power.image(a) for a in phi.alphabet})
                           for power in powers)
        else:
            psi = Morphism(target, {b: tuple(rng.choices(target.letters, k=rng.randint(1, 3)))
                                    for b in target})
            alpha = LetterMap(source, target,
                              {a: tuple(rng.choices(target.letters, k=rng.randint(1, 2)))
                               for a in source})
            beta = LetterMap(target, source,
                             {b: tuple(rng.choices(source.letters, k=rng.randint(1, 3)))
                              for b in target})
        data = TwinedData(phi, psi, alpha, beta)
        letters = [(a,) for a in data.phi.alphabet]
        image_letters = [(b,) for b in data.psi.alphabet]
        exact = twined_commutation_check(data)
        assert exact == all(sampled_commutation(data, k, letters, image_letters)
                            for k in range(1, 4))
        outcomes.append(exact)
    assert outcomes.count(True) > 100 and outcomes.count(False) > 1000
    for system, target, alpha, beta in TWINED_PAIRS:
        assert twined_commutation_check(
            TwinedData(system.morphism, target.morphism, alpha, beta))


def _rules(letter_map):
    return "; ".join(f"{a} -> {' '.join(letter_map.image(a))}" for a in letter_map.alphabet)


def _twined_report(capsys, path, other, alpha_rules, beta_rules, max_len=4):
    code = main(["twined", str(path), str(other), "--alpha", alpha_rules,
                 "--beta", beta_rules, "-L", str(max_len), "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    del payload["elapsed_ms"]
    return payload


def _reversed(system):
    """The same system with its alphabet declared in reverse order."""
    phi = system.morphism
    alphabet = Alphabet(reversed(phi.alphabet.letters))
    return DF0LSystem(Morphism(alphabet, {a: phi.image(a) for a in alphabet}),
                      system.axioms)


def test_twined_reports_pass_the_checker(capsys, tmp_path):
    """The `twined --json` reports of the seeded twined pairs, and of one
    perturbed alpha per pair, pass check_twined_report, with pinned counts;
    a target file that declares its alphabet in reverse order gives the same
    reports, for the seeded pairs and for the sample pair."""
    path, other, flipped = (tmp_path / name for name in ("phi.sys", "psi.sys", "rev.sys"))
    counts = {"language ok": 0, "twined": 0, "failed on phi": 0, "failed on psi": 0}
    for seed, (system, target, alpha, beta) in enumerate(TWINED_PAIRS):
        path.write_text(render_system(system), encoding="utf-8")
        other.write_text(render_system(target), encoding="utf-8")
        flipped.write_text(render_system(_reversed(target)), encoding="utf-8")
        rng = random.Random(seed)
        max_len = rng.randint(1, 6)
        report = _twined_report(capsys, path, other, _rules(alpha), _rules(beta), max_len)
        assert check_twined_report(system, target, alpha, beta, max_len, report["result"])
        assert _twined_report(capsys, path, flipped, _rules(alpha), _rules(beta),
                              max_len) == report
        counts["language ok"] += report["result"]["language_check"]
        images = {a: alpha.image(a) for a in system.alphabet}
        images[rng.choice(system.alphabet.letters)] = tuple(
            rng.choices(target.alphabet.letters, k=rng.randint(1, 2)))
        perturbed = LetterMap(system.alphabet, target.alphabet, images)
        report = _twined_report(capsys, path, other, _rules(perturbed), _rules(beta), max_len)
        if check_twined_report(system, target, perturbed, beta, max_len, report["result"]):
            counts["twined"] += 1
        elif report["result"]["failure"] in system.alphabet:
            counts["failed on phi"] += 1
        else:
            counts["failed on psi"] += 1
    assert counts == {"language ok": 330, "twined": 164, "failed on phi": 325,
                      "failed on psi": 11}
    collapse = os.path.join(SAMPLES, "collapse_bounded_delta.sys")
    simplified = os.path.join(SAMPLES, "simplified_collapse.sys")
    with open(simplified, encoding="utf-8") as handle:
        text = handle.read()
    flipped.write_text(text.replace("alphabet: A B", "alphabet: B A"), encoding="utf-8")
    rules = "a -> A; b -> B; c -> B", "A -> a b a c c; B -> a b a"
    report = _twined_report(capsys, collapse, simplified, *rules)
    assert _twined_report(capsys, collapse, flipped, *rules) == report
    assert report["result"] == {"twined": True, "failure": None, "commutation": True,
                                "language_check": True, "max_len": 4}
