"""Line-oriented system file format.

    # comments run to end of line
    alphabet: a b c
    map a -> a b
    map b -> b a
    map c ->            # empty right side: erasing image
    axiom: a
    axiom: b a

Tokens are separated by spaces or tabs.  The alphabet line must come first;
every letter needs exactly one map line; at least one axiom is required.
Rendering and parsing round-trip exactly: a letter token holds no
whitespace, and render_system refuses one that holds '#', which would
start a comment.
"""

from .errors import InvalidSystemError, ParseError
from .system import Alphabet, DF0LSystem, LetterMap, Morphism


def parse_system(text: str) -> DF0LSystem:
    alphabet = None
    images = {}
    axioms = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]
        try:
            if head == "alphabet:":
                if alphabet is not None:
                    raise ParseError("duplicate alphabet line")
                if len(tokens) == 1:
                    raise ParseError("alphabet line has no letters")
                alphabet = Alphabet(tokens[1:])
            elif head == "map":
                if alphabet is None:
                    raise ParseError("map before alphabet line")
                if len(tokens) < 3 or tokens[2] != "->":
                    raise ParseError("map syntax is: map <letter> -> <letter> ...")
                (letter,) = alphabet.check_word(tokens[1:2])
                if letter in images:
                    raise ParseError(f"duplicate map for letter {letter!r}")
                images[letter] = alphabet.check_word(tokens[3:])
            elif head == "axiom:":
                if alphabet is None:
                    raise ParseError("axiom before alphabet line")
                if len(tokens) == 1:
                    raise ParseError("axiom line has no letters")
                axioms.append(alphabet.check_word(tokens[1:]))
            else:
                raise ParseError(f"unknown directive {head!r}")
        except InvalidSystemError as exc:
            # the syntax checks above and the model's own letter checks
            # (duplicate and unknown letters) report the line they fail on
            raise ParseError(str(exc), lineno) from None
    if alphabet is None:
        raise ParseError("missing alphabet line")
    for letter in alphabet:
        if letter not in images:
            raise ParseError(f"missing map for letter {letter!r}")
    if not axioms:
        raise ParseError("no axiom lines")
    return DF0LSystem(Morphism(alphabet, images), axioms)


def render_system(system: DF0LSystem) -> str:
    """The system file text that parse_system reads back as the system."""
    if letter := next((a for a in system.alphabet.letters if "#" in a), None):
        raise InvalidSystemError(f"letter {letter!r} holds '#', which starts a comment")
    lines = ["alphabet: " + " ".join(system.alphabet.letters)]
    for letter in system.alphabet:
        image = system.morphism.image(letter)
        lines.append(f"map {letter} ->" + (" " + " ".join(image) if image else ""))
    for axiom in system.axioms:
        lines.append("axiom: " + " ".join(axiom))
    return "\n".join(lines) + "\n"


def parse_letter_map(rules: str, source: Alphabet, target: Alphabet) -> LetterMap:
    """Parse rules like "a -> x y; b -> y" into a total LetterMap from
    source to target."""
    images = {}
    for chunk in rules.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        tokens = chunk.split()
        if len(tokens) < 2 or tokens[1] != "->":
            raise ParseError(f"bad rule {chunk!r}: expected <letter> -> <letter> ...")
        letter = tokens[0]
        if letter not in source:
            raise ParseError(f"unknown source letter {letter!r}")
        if letter in images:
            raise ParseError(f"duplicate rule for letter {letter!r}")
        for tok in tokens[2:]:
            if tok not in target:
                raise ParseError(f"unknown target letter {tok!r}")
        images[letter] = tuple(tokens[2:])
    for letter in source:
        if letter not in images:
            raise ParseError(f"missing rule for letter {letter!r}")
    return LetterMap(source, target, images)
