from df0l import (Alphabet, LetterMap, Morphism, TwinedData,
                  collision_family_check, collisions_upto, contains,
                  delta_estimate, factor_language, find_twined_failure,
                  simplification_language_check, twined_commutation_check,
                  verify_twined)

from conftest import w


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
    assert verify_twined(data)
    assert find_twined_failure(data) is None


def test_identity_twining(thue_morse):
    # alpha the identity and beta the morphism itself twine phi with phi
    phi = thue_morse.morphism
    identity = LetterMap({a: (a,) for a in phi.alphabet})
    as_map = LetterMap({a: phi.image(a) for a in phi.alphabet})
    assert verify_twined(TwinedData(phi, phi, identity, as_map))


def test_perturbed_twining_pinpoints_letter(collapse_bounded):
    data = _example_twining(collapse_bounded)
    broken = TwinedData(data.phi, data.psi,
                        LetterMap({"a": ("A",), "b": ("A",), "c": ("B",)}),
                        data.beta)
    assert find_twined_failure(broken) == "b"


def test_commutation(collapse_bounded):
    data = _example_twining(collapse_bounded)
    samples = [w("a"), w("ab"), w("abacc"), w("cba")]
    for k in range(4):
        assert twined_commutation_check(data, k, samples)
    # explicit image-side samples
    assert twined_commutation_check(data, 2, samples,
                                    image_samples=[("A",), ("B", "A"), ("A", "B", "B")])


def test_language_check(collapse_bounded):
    from df0l import DF0LSystem
    data = _example_twining(collapse_bounded)
    target = DF0LSystem(data.psi, [data.alpha.apply(ax)
                                   for ax in collapse_bounded.axioms])
    assert simplification_language_check(
        collapse_bounded, target, data.alpha, data.beta, 4)
    # identity twining trivially passes
    phi = collapse_bounded.morphism
    identity = LetterMap({a: (a,) for a in phi.alphabet})
    assert simplification_language_check(
        collapse_bounded, collapse_bounded, identity, identity, 4)
    # a beta image outside the source language must fail (bb never occurs)
    bad_beta = LetterMap({"A": w("abacc"), "B": w("abb")})
    assert not simplification_language_check(
        collapse_bounded, target, data.alpha, bad_beta, 4)


def test_canonical_pair_order(collapse_bounded):
    pairs = collisions_upto(collapse_bounded, 3)
    key = collapse_bounded.alphabet.word_key
    assert pairs == sorted(pairs, key=lambda p: (key(p.u), key(p.v)))
    for pair in pairs:
        assert key(pair.u) < key(pair.v)
