"""End-to-end acceptance criteria.

Each test prints one PASS line; tolerances are exact matches and the stated
wall-clock budgets.  Caches are cleared before every timed criterion so the
measured time covers a cold run.
"""

import json
import random
import time

from df0l import (DF0LSystem, LetterMap, Morphism, TwinedData,
                  clear_interpretation_cache, clear_language_cache,
                  collision_family_check, contains, factor_language,
                  find_twined_failure, interpretation_length_bounds,
                  is_strongly_synchronizing, is_weakly_synchronized,
                  is_weakly_synchronizing, minimal_interpretations,
                  parse_system, parse_word, power_system, strong_threshold,
                  twined_commutation_check, weak_power_transfer_bound,
                  weak_threshold)
from df0l.cli import main as cli_main

from conftest import random_pdf0l, sys1, w
from oracles import (assert_matches_unrolling, is_conjugate,
                     naive_minimal_interpretations, occurrences, primitive_root,
                     sampled_commutation)

SEED = 20240808


def fresh():
    clear_language_cache()
    clear_interpretation_cache()
    return time.monotonic()


def elapsed(t0):
    return time.monotonic() - t0


def cli_json(capsys, *argv):
    code = cli_main([*argv, "--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_criterion_1_thue_morse(capsys, tmp_path):
    t0 = fresh()
    path = tmp_path / "tm.sys"
    path.write_text("alphabet: a b\nmap a -> a b\nmap b -> b a\naxiom: a\n")

    code, payload = cli_json(capsys, "threshold", str(path), "--mode", "weak")
    assert code == 0
    assert payload["result"]["status"] == "found"
    assert payload["result"]["D"] == 3
    assert len(parse_word(payload["result"]["witness"])) == 3

    code, payload = cli_json(capsys, "threshold", str(path), "--mode", "strong")
    assert code == 0
    assert payload["result"]["D"] == 1

    tm = sys1("ab", {"a": "ab", "b": "ba"}, ["a"])
    got = {(i.s, i.w, i.t) for i in minimal_interpretations(tm, w("aba"))}
    assert got == {(w("b"), w("bb"), ()), ((), w("aa"), w("b"))}

    took = elapsed(t0)
    assert took < 5.0
    print(f"\nACCEPTANCE 1: PASS - Thue-Morse D_w=3 (witness len 3), D_s=1, "
          f"interpretations of aba exact ({took:.2f}s < 5s)")


def test_criterion_2_bounded_collapse(capsys, tmp_path):
    t0 = fresh()
    path = tmp_path / "ex.sys"
    path.write_text("alphabet: a b c\nmap a -> a b a c c\n"
                    "map b -> a b a\nmap c -> a b a\naxiom: a\n")
    system = parse_system(path.read_text())

    assert weak_threshold(system, 10).threshold == 3
    assert strong_threshold(system, 10).threshold == 3

    code, payload = cli_json(capsys, "delta", str(path), "-L", "6")
    assert code == 0
    assert payload["result"]["delta_lower_bound"] == 11
    assert sorted(map(tuple, payload["result"]["pairs"])) == sorted([
        ("b", "c"), ("b a", "c a"), ("a b", "a c"), ("b a c", "c a b")])

    took = elapsed(t0)
    assert took < 30.0
    print(f"\nACCEPTANCE 2: PASS - collapse system D_w=D_s=3, delta -L 6 gives "
          f"the four pairs and bound 11 ({took:.2f}s < 30s)")


def test_criterion_3_unbounded_collapse():
    t0 = fresh()
    system = sys1("abc", {"a": "abaca", "b": "aba", "c": "aba"}, ["a"])

    assert weak_threshold(system, 10).threshold == 3
    report = strong_threshold(system, 15)
    assert report.threshold == 9

    for n in (1, 2, 3):
        assert collision_family_check(system, n, w("aca"), w("aba"))

    took = elapsed(t0)
    assert took < 120.0
    print(f"\nACCEPTANCE 3: PASS - non-eventually-injective system D_w=3, D_s=9, "
          f"collision recurrence verified to n=3 ({took:.2f}s < 120s)")


def test_criterion_4_power_axioms(capsys, tmp_path):
    t0 = fresh()
    system = sys1("abcd", {"a": "cb", "b": "ad", "c": "c", "d": "d"}, ["b"])
    assert contains(system, w("ad"))

    single_axiom_square = DF0LSystem(system.morphism.power(2), [w("b")])
    assert not contains(single_axiom_square, w("ad"))

    path = tmp_path / "sys.sys"
    path.write_text("alphabet: a b c d\nmap a -> c b\nmap b -> a d\n"
                    "map c -> c\nmap d -> d\naxiom: b\n")
    code, payload = cli_json(capsys, "power", str(path), "-k", "2")
    assert code == 0
    assert payload["result"]["axioms"] == ["b", "a d"]

    squared = power_system(system, 2)
    assert factor_language(system, 12) == factor_language(squared, 12)

    print(f"\nACCEPTANCE 4: PASS - ad in L(S) but not in the single-axiom "
          f"square; power axioms {{b, ad}}; languages agree to length 12 "
          f"({elapsed(t0):.2f}s)")


def test_criterion_5_repetitive_square(capsys, tmp_path):
    t0 = fresh()
    path = tmp_path / "sq.sys"
    path.write_text("alphabet: a b c\nmap a -> a a c\nmap b -> b c\n"
                    "map c -> b c\naxiom: a\n")
    system = parse_system(path.read_text())

    assert weak_threshold(system, 10).threshold == 1

    code, payload = cli_json(capsys, "repetitive", str(path))
    assert code == 0
    assert payload["result"]["status"] == "repetitive"
    witness = parse_word(payload["result"]["witness"])
    assert is_conjugate(primitive_root(witness)[0], w("bc"))

    code, payload = cli_json(capsys, "threshold", str(path), "--mode", "strong")
    assert code == 0
    assert payload["result"]["status"] == "not_strongly_circular"

    squared = power_system(system, 2)
    report = weak_threshold(squared, 20)
    assert report.status == "cutoff_exceeded" and report.last_level == 20
    bc4 = w("bc") * 4
    assert contains(squared, bc4)
    assert not is_weakly_synchronized(squared, bc4).synchronized

    print(f"\nACCEPTANCE 5: PASS - D_w=1, repetitive witness conjugate to bc, "
          f"not strongly circular, square diverges at cutoff 20 and (bc)^4 is "
          f"not weakly synchronized ({elapsed(t0):.2f}s)")


def _sample_words(rng, lang, count, min_len=1, max_len=8):
    pool = [v for v in lang.all_words() if min_len <= len(v) <= max_len]
    if len(pool) <= count:
        return pool
    return rng.sample(pool, count)


def _check_interpretation_bounds(rng, system, lang):
    phi = system.morphism
    checked = 0
    for u in _sample_words(rng, lang, 12):
        lo, hi = interpretation_length_bounds(system, u)
        for interp in minimal_interpretations(system, u):
            assert lo <= len(interp.w) <= hi, (system, u, interp)
            assert phi.apply(interp.w) == interp.s + u + interp.t
            checked += 1
    return checked


def _check_pair_extension(rng, system, lang):
    checked = 0
    for v in _sample_words(rng, lang, 8, min_len=2, max_len=4):
        for cut in range(1, len(v)):
            left, right = v[:cut], v[cut:]
            weak = is_weakly_synchronizing(system, left, right)
            strong = left and is_strongly_synchronizing(system, left, right)
            if not (weak or strong):
                continue
            for host in lang.words_of_length(len(v) + 2)[:6]:
                for pos in occurrences(v, host)[:2]:
                    big_left = host[:pos] + left
                    big_right = right + host[pos + len(v):]
                    if weak:
                        assert is_weakly_synchronizing(system, big_left, big_right)
                    if strong:
                        assert is_strongly_synchronizing(system, big_left, big_right)
                    checked += 1
    return checked


def _check_threshold_inequality(system):
    weak = weak_threshold(system, 4)
    strong = strong_threshold(system, 3)
    if weak.found and strong.found:
        assert weak.threshold <= 2 * strong.threshold + system.morphism.max_image_len
        return 1
    return 0


def _check_power_transfer(system, k):
    bound = weak_power_transfer_bound(system, k)
    if bound > 9:
        return 0
    powered = power_system(system, k)
    top = min(bound + 2, 11)
    lang = factor_language(system, top)
    checked = 0
    for length in range(bound + 1, top + 1):
        for u in lang.words_of_length(length):
            if is_weakly_synchronized(powered, u).synchronized:
                assert is_weakly_synchronized(system, u).synchronized, (system, u)
                checked += 1
    return checked


def test_criterion_6_property_suites():
    t0 = fresh()
    rng = random.Random(SEED)

    systems_checked = 0
    bound_hits = extension_hits = 0
    while systems_checked < 500:
        system = random_pdf0l(rng)
        lang = factor_language(system, 8)
        if len(lang) > 60_000:
            continue
        bound_hits += _check_interpretation_bounds(rng, system, lang)
        extension_hits += _check_pair_extension(rng, system, lang)
        systems_checked += 1
    assert bound_hits > 2000 and extension_hits > 2000

    inequality_hits = 0
    rng1 = random.Random(SEED + 1)
    for _ in range(120):
        inequality_hits += _check_threshold_inequality(random_pdf0l(rng1, max_letters=3, max_image_len=3))
    assert inequality_hits > 40

    transfer_hits = {2: 0, 3: 0}
    rng2 = random.Random(SEED + 2)
    for _ in range(120):
        system = random_pdf0l(rng2, max_letters=3, max_image_len=3,
                              max_axioms=1, max_axiom_len=1)
        for k in (2, 3):
            transfer_hits[k] += _check_power_transfer(system, k)
    assert transfer_hits[2] > 100 and transfer_hits[3] > 100

    # commutation identity for the verified twining of the collapse system
    phi = Morphism(("a", "b", "c"),
                   {"a": w("abacc"), "b": w("aba"), "c": w("aba")})
    psi = Morphism(("A", "B"), {"A": ("A", "B", "A", "B", "B"), "B": ("A", "B", "A")})
    data = TwinedData(phi, psi,
                      LetterMap(phi.alphabet, psi.alphabet,
                                {"a": ("A",), "b": ("B",), "c": ("B",)}),
                      LetterMap(psi.alphabet, phi.alphabet, {"A": w("abacc"), "B": w("aba")}))
    assert find_twined_failure(data) is None
    assert twined_commutation_check(data)
    samples = [w("a"), w("ab"), w("abacc"), w("ccaba")]
    for k in range(4):
        assert sampled_commutation(data, k, samples)

    print(f"\nACCEPTANCE 6: PASS - {systems_checked} random systems: "
          f"interpretation bounds ({bound_hits} interps), pair extension "
          f"({extension_hits} pairs), threshold inequality ({inequality_hits} systems), "
          f"power transfer (k=2: {transfer_hits[2]}, k=3: {transfer_hits[3]} words), "
          f"twining commutation; zero violations ({elapsed(t0):.1f}s)")


def test_criterion_7_oracle_equivalence():
    t0 = fresh()
    fixtures = [
        sys1("ab", {"a": "ab", "b": "ba"}, ["a"]),
        sys1("abc", {"a": "abacc", "b": "aba", "c": "aba"}, ["a"]),
        sys1("abc", {"a": "abaca", "b": "aba", "c": "aba"}, ["a"]),
        sys1("abcd", {"a": "cb", "b": "ad", "c": "c", "d": "d"}, ["b"]),
        sys1("abc", {"a": "aac", "b": "bc", "c": "bc"}, ["a"]),
    ]
    interp_checks = language_checks = 0
    for system in fixtures:
        for max_len in (0, 1, 4, 6):
            assert_matches_unrolling(system, max_len)
            language_checks += 1
        for u in factor_language(system, 5).all_words():
            if u:
                assert set(minimal_interpretations(system, u)) == \
                    naive_minimal_interpretations(system, u)
                interp_checks += 1

    rng = random.Random(SEED + 3)
    for _ in range(100):
        system = random_pdf0l(rng, max_letters=3, max_image_len=3)
        assert_matches_unrolling(system, 5)
        language_checks += 1
        for u in factor_language(system, 4).all_words():
            if u:
                assert set(minimal_interpretations(system, u)) == \
                    naive_minimal_interpretations(system, u)
                interp_checks += 1

    print(f"\nACCEPTANCE 7: PASS - saturation matches unrolling "
          f"({language_checks} languages) and interpretation search matches "
          f"the naive scan ({interp_checks} words); zero mismatches "
          f"({elapsed(t0):.1f}s)")
