import pytest

from df0l import (Alphabet, DF0LSystem, InvalidSystemError, Morphism, ParseError,
                  parse_letter_map, parse_system, power_system, render_system, validate)

from conftest import w

THUE_MORSE = """\
# Thue-Morse
alphabet: a b
map a -> a b
map b -> b a
axiom: a
"""


def test_parse_thue_morse():
    system = parse_system(THUE_MORSE)
    assert system.alphabet.letters == ("a", "b")
    assert system.morphism.image("a") == w("ab")
    assert system.axioms == (w("a"),)
    assert validate(system).is_pdf0l


def test_round_trip(thue_morse, collapse_bounded, two_fixed, repetitive_square):
    for system in (thue_morse, collapse_bounded, two_fixed, repetitive_square):
        assert parse_system(render_system(system)) == system
    powered = power_system(two_fixed, 3)
    assert parse_system(render_system(powered)) == powered


def test_multichar_tokens_round_trip():
    text = "alphabet: aa b1\nmap aa -> aa b1\nmap b1 -> b1 aa\naxiom: aa b1\n"
    system = parse_system(text)
    assert system.alphabet.letters == ("aa", "b1")
    assert parse_system(render_system(system)) == system


def test_render_refuses_a_letter_that_starts_a_comment():
    """'#' starts a comment in a system file, so a letter holding it would
    not read back; rendering names the letter instead."""
    system = DF0LSystem(Morphism(Alphabet(["a#", "b"]), {"a#": ("a#", "b"), "b": ("b",)}),
                        [("a#",)])
    with pytest.raises(InvalidSystemError, match="'a#'"):
        render_system(system)


def test_erasing_image_parses():
    system = parse_system("alphabet: a b\nmap a -> a b\nmap b ->\naxiom: a\n")
    assert not validate(system).is_pdf0l
    assert validate(system).erasing_letters == ("b",)


def test_comments_and_blank_lines():
    text = "\n# leading comment\nalphabet: a  b\t\nmap a -> a b # trailing\n\nmap b -> b a\naxiom: a\n"
    assert parse_system(text).morphism.image("a") == w("ab")


@pytest.mark.parametrize("text,line,fragment", [
    ("alphabet: a a\nmap a -> a\naxiom: a", 1, "duplicate letter"),
    ("alphabet: a\nmap b -> a\naxiom: a", 2, "unknown letter"),
    ("alphabet: a\nmap a -> b\naxiom: a", 2, "unknown letter"),
    ("alphabet: a\nmap a -> a\nmap a -> a\naxiom: a", 3, "duplicate map"),
    ("alphabet: a\nmap a -> a\naxiom:", 3, "no letters"),
    ("alphabet: a\nmap a -> a\naxiom: b", 3, "unknown letter"),
    ("alphabet: a\nmap a a\naxiom: a", 2, "map syntax"),
    ("map a -> a\nalphabet: a\naxiom: a", 1, "before alphabet"),
    ("alphabet: a\nmap a -> a\nbogus: x", 3, "unknown directive"),
    ("alphabet: a\nalphabet: a\nmap a -> a\naxiom: a", 2, "duplicate alphabet line"),
    ("alphabet:\nmap a -> a\naxiom: a", 1, "alphabet line has no letters"),
])
def test_line_numbered_errors(text, line, fragment):
    with pytest.raises(ParseError) as err:
        parse_system(text)
    assert err.value.line == line
    assert fragment in str(err.value)


@pytest.mark.parametrize("text,fragment", [
    ("alphabet: a b\nmap a -> a\naxiom: a", "missing map for letter 'b'"),
    ("alphabet: a\nmap a -> a", "no axiom"),
    ("# nothing\n", "missing alphabet"),
])
def test_structural_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_system(text)
    assert fragment in str(err.value)


def test_parser_fuzz_fails_cleanly():
    import random
    rng = random.Random(5150)
    fragments = ["alphabet:", "map", "->", "axiom:", "a", "b", "#x", "",
                 "  ", ":", "alphabet", "map a ->", "\t"]
    for _ in range(500):
        lines = [" ".join(rng.choice(fragments) for _ in range(rng.randint(0, 5)))
                 for _ in range(rng.randint(0, 8))]
        try:
            parse_system("\n".join(lines))
        except ParseError:
            pass


def test_parse_letter_map():
    source, target = Alphabet(("a", "b")), Alphabet(("X",))
    mapping = parse_letter_map("a -> X; b -> X X", source, target)
    assert mapping.image("a") == ("X",)
    assert mapping.image("b") == ("X", "X")
    # an empty rule, between two others or after a trailing ';', is skipped
    for rules in ("a -> X; ; b -> X X", "a -> X; b -> X X;"):
        spaced = parse_letter_map(rules, source, target)
        assert spaced.image_codes == mapping.image_codes
    with pytest.raises(ParseError):
        parse_letter_map("a -> X", source, target)  # missing rule for b
    with pytest.raises(ParseError):
        parse_letter_map("a -> X; b -> Y", source, target)  # unknown target
    with pytest.raises(ParseError):
        parse_letter_map("a -> X; a -> X; b -> X", source, target)
