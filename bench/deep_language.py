"""deep_language: factor languages at large L, then membership lookups.

One unit builds one fixed system's language from a cleared cache and then
answers that system's seeded contains queries: half are factors cut from a
deep iterate, half are the same factors with one letter changed.  Builds
write the language, queries read it.
"""

import random
import time
from statistics import median

import references
from common import spread
from systems import FixedSystem

# (system, L); Thue-Morse and Fibonacci also have closed-form factor counts
SYSTEMS = (
    ("thue_morse", 220),
    ("fibonacci", 300),
    ("period_doubling", 200),
    ("collapse_unbounded_delta", 200),
    ("two_fixed_letters", 200),
)
COMPLEXITY = {"thue_morse": references.thue_morse_complexity,
              "fibonacci": references.fibonacci_complexity}


class DeepLanguage:
    # p99.9 of a lookup of a few microseconds is host jitter: over ten seeds
    # its quartile distance was 26-29 % of the median
    tail_pct = 99
    # a set-up takes over a second: most of it checks 75 000 mutated words
    # against the reference texts
    setup_repeats = 3
    aliases = {"ops_per_s": "language.member_queries_per_s",
               "op_p50_ms": "language.member_query_p50_ms",
               "op_tail_ms": "language.member_query_tail_ms",
               "build_s": "language.build_s"}

    def __init__(self, df0l, seed, scale, workdir, golden):
        self.df0l = df0l
        rng = random.Random(seed)
        self.units = []
        for name, max_len in SYSTEMS:
            fixed = FixedSystem(df0l, name)
            max_len = min(max_len, scale["deep_max_len"])
            lengths = spread(1, max_len, scale["deep_queries"])
            queries = [self._query(rng, fixed, n, i % 2 == 1)
                       for i, n in enumerate(lengths)]
            self.units.append((fixed, max_len, queries))

    @staticmethod
    def _query(rng, fixed, n, mutate):
        text = rng.choice(fixed.texts)
        start = rng.randrange(len(text) - n + 1)
        word = text[start:start + n]
        if not mutate:
            return word, True
        pos = rng.randrange(n)
        letter = rng.choice([a for a in fixed.letters if a != word[pos]])
        word = word[:pos] + letter + word[pos + 1:]
        return word, fixed.member(word)

    def build_seconds(self, builds):
        """Sum over the systems of each one's median build time."""
        return sum(median(times) for times in builds.values())

    def __len__(self):
        return len(self.units)

    def start_pass(self, tally):
        pass

    def run_unit(self, index, tally, first_pass):
        fixed, max_len, queries = self.units[index]
        language = self.df0l.language
        self.df0l.clear_language_cache()
        started = time.perf_counter()
        factor_set = language.factor_language(fixed.system, max_len)
        tally.build(fixed.name, started, time.perf_counter() - started)
        tally.speed.tick(time.perf_counter())
        tally.check(self._count_problem(fixed.name, factor_set, max_len),
                    f"{fixed.name} build at L={max_len}")
        system, contains = fixed.system, language.contains
        timed = tally.timed
        for word, expected in queries:
            query = tuple(word)
            started = time.perf_counter()
            got = contains(system, query)
            timed(started, time.perf_counter())
            if got == expected:
                tally.attempted += 1
            else:
                tally.check(f"contains returned {got}", f"{fixed.name} query {word}")
        if first_pass:
            tally.decided += 1 + len(queries)

    @staticmethod
    def _count_problem(name, factor_set, max_len):
        reference = COMPLEXITY.get(name)
        if reference is None:
            return None
        counts = [0] * (max_len + 1)
        for word in factor_set.words:
            counts[len(word)] += 1
        wrong = [n for n in range(max_len + 1) if counts[n] != reference(n)]
        if wrong:
            n = wrong[0]
            return f"{counts[n]} factors of length {n}, closed form gives {reference(n)}"
        return None
