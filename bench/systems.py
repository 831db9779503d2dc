"""The fixed systems of deep_language and sync_queries, with their reference
texts: long iterates in which every language factor of the lengths the
benchmark asks about occurs."""

import os

import references
from common import SAMPLES

INLINE = {
    "fibonacci": "alphabet: a b\nmap a -> a b\nmap b -> a\naxiom: a\n",
    "period_doubling": "alphabet: a b\nmap a -> a b\nmap b -> a a\naxiom: a\n",
}

# Length of the longest reference iterate.  For a primitive morphism every
# factor of length n recurs within a window linear in n: the shortest
# prefixes holding all factors up to the lengths used here are 500-1000
# letters long, so 4096 leaves a wide margin.  two_fixed_letters is not
# primitive; its iterates are c^i x d^j, so the last two iterates hold every
# factor shorter than both of them.
REFERENCE_LEN = 4096
TWO_FIXED_LEN = 512


class FixedSystem:
    def __init__(self, df0l, name):
        if name in INLINE:
            self.text = INLINE[name]
        else:
            with open(os.path.join(SAMPLES, name + ".sys"), encoding="utf-8") as handle:
                self.text = handle.read()
        self.name = name
        self.system = df0l.parse_system(self.text)
        self.images, axiom = references.read_images(self.text)
        self.letters = sorted(self.images)
        min_len = TWO_FIXED_LEN if name == "two_fixed_letters" else REFERENCE_LEN
        *_, before, last = references.iterates(self.images, axiom, min_len)
        # when the morphism extends its axiom, each iterate is a prefix of the next
        self.texts = [last] if last.startswith(before) else [before, last]

    def member(self, word):
        return references.occurs(word, self.texts)
