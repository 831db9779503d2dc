import random

import pytest

from df0l import (Alphabet, DF0LSystem, LetterMap, Morphism, PreconditionError,
                  TwinedData, collision_family_check, collisions_upto, contains,
                  delta_estimate, find_twined_failure,
                  simplification_language_check, twined_commutation_check)

from conftest import w
from oracles import bounded_language_check, canonical_key, sampled_commutation


def test_collisions_collapse_bounded(collapse_bounded):
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


def test_no_collisions_thue_morse(thue_morse):
    assert collisions_upto(thue_morse, 8) == []
    assert delta_estimate(thue_morse, 8) == (0, 0)


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


def _example_twining(collapse_bounded):
    target = Alphabet(("A", "B"))
    psi = Morphism(target, {"A": ("A", "B", "A", "B", "B"), "B": ("A", "B", "A")})
    alpha = LetterMap({"a": ("A",), "b": ("B",), "c": ("B",)})
    beta = LetterMap({"A": w("abacc"), "B": w("aba")})
    return TwinedData(collapse_bounded.morphism, psi, alpha, beta)


def test_verify_twined(collapse_bounded):
    data = _example_twining(collapse_bounded)
    assert find_twined_failure(data) is None


def test_identity_twining(thue_morse):
    # alpha the identity and beta the morphism itself twine phi with phi
    phi = thue_morse.morphism
    identity = LetterMap({a: (a,) for a in phi.alphabet})
    as_map = LetterMap({a: phi.image(a) for a in phi.alphabet})
    assert find_twined_failure(TwinedData(phi, phi, identity, as_map)) is None


def test_perturbed_twining_pinpoints_letter(collapse_bounded):
    data = _example_twining(collapse_bounded)
    broken = TwinedData(data.phi, data.psi,
                        LetterMap({"a": ("A",), "b": ("A",), "c": ("B",)}),
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
    identity = LetterMap({a: (a,) for a in phi.alphabet})
    assert simplification_language_check(
        collapse_bounded, collapse_bounded, identity, identity)
    # a beta with an image outside the source language (bb never occurs)
    # does not commute with the morphisms, so the check refuses it
    bad_beta = LetterMap({"A": w("abacc"), "B": w("abb")})
    with pytest.raises(PreconditionError):
        simplification_language_check(collapse_bounded, target, data.alpha, bad_beta)
    # commuting maps whose axiom image leaves the language must fail: the
    # identity carries the axiom bb of the second system to bb
    from_bb = DF0LSystem(phi, [w("bb")])
    assert not contains(collapse_bounded, w("bb"))
    assert not simplification_language_check(
        from_bb, collapse_bounded, identity, identity)


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
    alpha = LetterMap({a: tuple(rng.choices(target.letters, k=rng.randint(1, 2)))
                       for a in source})
    beta = LetterMap({b: tuple(rng.choices(source.letters, k=rng.randint(1, 3)))
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
            alpha, beta = (LetterMap({a: power.image(a) for a in phi.alphabet})
                           for power in powers)
        else:
            psi = Morphism(target, {b: tuple(rng.choices(target.letters, k=rng.randint(1, 3)))
                                    for b in target})
            alpha = LetterMap({a: tuple(rng.choices(target.letters, k=rng.randint(1, 2)))
                               for a in source})
            beta = LetterMap({b: tuple(rng.choices(source.letters, k=rng.randint(1, 3)))
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
