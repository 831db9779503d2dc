"""Word primitives.

A word is a tuple of letter tokens.  Tokens are arbitrary non-empty strings
without whitespace, so alphabets are not limited to single characters; in
textual form the tokens of a word are separated by spaces.  Inside df0l a
word is held as a code string instead, one character per letter (see
`Alphabet`).
"""

Word = tuple[str, ...]


def parse_word(text: str) -> Word:
    """Parse a whitespace-separated token sequence ('' gives the empty word)."""
    return tuple(text.split())


def format_word(word: Word) -> str:
    return " ".join(word)
