"""sync_queries: interpretations and synchronization of long language words.

Set-up builds each system's language deep enough for its longest query, so
the timed stream is almost pure interpretation work.  One operation is one
query on a distinct language word: its minimal interpretations, whether it
is weakly synchronized, and the strong-synchronization letter and
admissibility of its middle split.
"""

import random
import time
from statistics import median

import references
from common import spread
from systems import FixedSystem

SYSTEMS = ("thue_morse", "fibonacci", "period_doubling", "collapse_unbounded_delta",
           "two_fixed_letters", "collapse_bounded_delta", "repetitive_square")
MIN_LEN = 8


class SyncQueries:
    tail_pct = 99
    aliases = {"ops_per_s": "sync.queries_per_s",
               "op_p50_ms": "sync.query_p50_ms",
               "op_tail_ms": "sync.query_tail_ms"}

    def __init__(self, df0l, seed, scale, workdir, golden):
        self.df0l = df0l
        rng = random.Random(seed)
        fixed = [FixedSystem(df0l, name) for name in SYSTEMS]
        self.queries = []
        for k, system in enumerate(fixed):
            count = len(range(k, scale["sync_queries"], len(fixed)))
            seen = set()
            for length in spread(MIN_LEN, scale["sync_max_len"], count):
                self.queries.append((system, self._draw(rng, system, seen, length)))
        rng.shuffle(self.queries)
        self.golden = golden.get("sync_queries") if golden else None
        self.digests = [None] * len(self.queries)
        depths = []
        for system in fixed:
            longest = max((w for f, w in self.queries if f is system), key=len)
            _, hi = df0l.interpretation_length_bounds(system.system, tuple(longest))
            depths.append((system.system, max(hi, len(longest))))
        # the caches are cold: set-up clears them before each repeat
        started = time.perf_counter()
        for system, depth in depths:
            df0l.language.factor_language(system, depth)
        self.setup_build = (started, time.perf_counter() - started)

    @staticmethod
    def _draw(rng, system, seen, n):
        while True:
            text = rng.choice(system.texts)
            start = rng.randrange(len(text) - n + 1)
            word = text[start:start + n]
            if word not in seen:
                seen.add(word)
                return word

    def build_seconds(self, builds):
        """The median of the set-ups' builds of the seven languages."""
        return median(builds["setup"])

    def __len__(self):
        return len(self.queries)

    def start_pass(self, tally):
        """Every query word is distinct within a pass, so clearing the
        interpretation cache keeps a pass from answering from an earlier one."""
        self.df0l.clear_interpretation_cache()

    def run_unit(self, index, tally, first_pass):
        fixed, word = self.queries[index]
        interpretations = self.df0l.interpretations
        system, u = fixed.system, tuple(word)
        middle = len(u) // 2
        started = time.perf_counter()
        found = interpretations.minimal_interpretations(system, u)
        weak = interpretations.is_weakly_synchronized(system, u)
        letter = interpretations.strong_sync_letter(system, u[:middle], u[middle:])
        admissible = interpretations.is_admissible(system, u[:middle], u[middle:])
        tally.timed(started, time.perf_counter())
        answer = {"interpretations": [["".join(i.s), "".join(i.w), "".join(i.t)]
                                      for i in found],
                  "weak": [weak.synchronized, weak.split_at, weak.vacuous],
                  "letter": letter, "admissible": admissible}
        problem = self.verify(fixed, word, middle, answer)
        self.digests[index] = references.digest(answer)
        if problem is None and self.golden is not None \
                and self.digests[index] != self.golden[index]:
            problem = f"answer digest {self.digests[index]} differs from the golden digest"
        tally.check(problem, f"{fixed.name} query {word}")
        if first_pass:
            tally.decided += 1

    @staticmethod
    def verify(fixed, word, middle, answer):
        """Re-derive every predicate from the interpretations with plain
        string code, and check each interpretation itself."""
        images = fixed.images
        cuts = []
        for s, w, t in answer["interpretations"]:
            if not fixed.member(w):
                return f"interpretation word {w} is not in the language"
            if references.apply(images, w) != s + word + t:
                return f"image of {w} is not {s}.u.{t}"
            if len(s) >= len(images[w[0]]) or len(t) >= len(images[w[-1]]):
                return f"interpretation ({s}, {w}, {t}) is not minimal"
            offsets, total = {0: 0}, 0
            for k, c in enumerate(w, 1):
                total += len(images[c])
                offsets[total] = k
            cuts.append((len(s), offsets, w))
        if len({tuple(i) for i in answer["interpretations"]}) != len(cuts):
            return "duplicate interpretations"
        if not cuts:
            weak = [True, 0, True]
            letter, admissible = next(iter(images)), False
        else:
            split = next((k for k in range(len(word) + 1)
                          if all(s + k in offsets for s, offsets, _ in cuts)), None)
            weak = [split is not None, split, False]
            admissible = any(s + middle in offsets for s, offsets, _ in cuts)
            ends = {w[offsets[s + middle] - 1] if offsets.get(s + middle) else None
                    for s, offsets, w in cuts}
            letter = ends.pop() if len(ends) == 1 else None
        for key, expected in (("weak", weak), ("letter", letter),
                              ("admissible", admissible)):
            if answer[key] != expected:
                return f"{key} is {answer[key]}, re-derived {expected}"
        return None
