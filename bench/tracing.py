"""Spans around the public df0l functions that the benchmark and df0l.cli
reach through module attributes.

Installing the tracer replaces those attributes with timing wrappers and
removing it puts the originals back; the untraced run wraps nothing.  Calls
from one library module into another go through names bound at import time
and are not wrapped, so their time stays in the outer span; calls inside one
module go through its globals and are wrapped (require_member calling
contains, delta_estimate calling collisions_upto).  Work counts come from
the wrapped functions' return values.
"""

import time
from collections import defaultdict


def _levels(report):
    """Last level a threshold search reached."""
    if report.status == "cutoff_exceeded":
        return report.last_level
    if report.status == "found":
        return report.threshold + 1
    return 0


# (module, attribute, span name, work count from the return value)
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("cli", "parse_system", "fileformat.parse", None),
    ("cli", "parse_letter_map", "fileformat.letter_map", None),
    ("cli", "classify_letters", "system.classify", None),
    ("cli", "validate", "system.validate", None),
    ("language", "factor_language", "language.build", len),
    ("language", "contains", "language.contains", int),
    ("interpretations", "minimal_interpretations", "interpretations.minimal", len),
    ("interpretations", "is_weakly_synchronized", "interpretations.weak_sync", None),
    ("interpretations", "strong_sync_letter", "interpretations.strong_letter", None),
    ("interpretations", "is_admissible", "interpretations.admissible", None),
    ("circularity", "weak_threshold", "circularity.weak", _levels),
    ("circularity", "strong_threshold", "circularity.strong", _levels),
    ("repetitiveness", "detect_unbounded_repetitive", "repetitiveness.detect",
     lambda verdict: int(verdict.repetitive)),
    ("injectivity", "collisions_upto", "injectivity.collisions", len),
    ("injectivity", "delta_estimate", "injectivity.delta", None),
    ("injectivity", "find_twined_failure", "injectivity.twined", None),
    ("injectivity", "twined_commutation_check", "injectivity.twined", None),
    ("injectivity", "simplification_language_check", "injectivity.twined", None),
)

# Per-layer metrics: name -> unit, better.  Listed in BENCHMARK.json too.
LAYER_METRICS = {
    "fileformat.parse.calls": ("count", "lower"),
    "fileformat.parse.s": ("s", "lower"),
    "cli.main.calls": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.json_bytes": ("bytes", "lower"),
    "system.classify.calls": ("count", "lower"),
    "system.classify.s": ("s", "lower"),
    "language.build.calls": ("count", "lower"),
    "language.build.s": ("s", "lower"),
    "language.words": ("count", "lower"),
    "language.contains.calls": ("count", "lower"),
    "language.contains.s": ("s", "lower"),
    "language.member_share": ("share", "higher"),
    "interpretations.queries": ("count", "lower"),
    "interpretations.s": ("s", "lower"),
    "interpretations.found": ("count", "lower"),
    "interpretations.vacuous_share": ("share", "lower"),
    "circularity.weak.calls": ("count", "lower"),
    "circularity.weak.s": ("s", "lower"),
    "circularity.strong.calls": ("count", "lower"),
    "circularity.strong.s": ("s", "lower"),
    "circularity.levels": ("count", "lower"),
    "repetitiveness.detect.calls": ("count", "lower"),
    "repetitiveness.detect.s": ("s", "lower"),
    "repetitiveness.certificates": ("count", "higher"),
    "injectivity.collisions.calls": ("count", "lower"),
    "injectivity.collisions.s": ("s", "lower"),
    "injectivity.pairs": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_share": ("share", "lower"),
}


class Tracer:
    """Context manager that records spans [name, start, end, parent, op, work]."""

    def __init__(self, df0l):
        self.df0l = df0l
        self.spans = []
        self.op = 0
        self._stack = []
        self._saved = []

    def __enter__(self):
        for module_name, attr, name, work in TARGETS:
            module = getattr(self.df0l, module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, work))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, function, name, work):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if work is not None:
                span[5] = work(result)
            return result

        traced.__wrapped__ = function
        return traced


def layer_metrics(spans, json_bytes):
    """Per-layer metrics of one traced pass (without the overhead pair)."""
    by_name = defaultdict(list)
    child_time = defaultdict(float)
    for index, (name, start, end, parent, _, _) in enumerate(spans):
        by_name[name].append(index)
        if parent is not None:
            child_time[parent] += end - start

    def calls(name):
        return len(by_name[name])

    def work(name):
        return sum(spans[i][5] for i in by_name[name])

    def seconds(*names):
        # time inside the calls, counting a call nested in one of the same
        # names only once
        return sum(spans[i][2] - spans[i][1] for name in names for i in by_name[name]
                   if spans[i][3] is None or spans[spans[i][3]][0] not in names)

    def share(part, whole):
        return part / whole if whole else 0.0

    interp = ("interpretations.minimal", "interpretations.weak_sync",
              "interpretations.strong_letter", "interpretations.admissible")
    minimal = by_name["interpretations.minimal"]
    return {
        "fileformat.parse.calls": calls("fileformat.parse"),
        "fileformat.parse.s": seconds("fileformat.parse"),
        "cli.main.calls": calls("cli.main"),
        "cli.self_s": sum(spans[i][2] - spans[i][1] - child_time[i]
                          for i in by_name["cli.main"]),
        "cli.json_bytes": json_bytes,
        "system.classify.calls": calls("system.classify"),
        "system.classify.s": seconds("system.classify"),
        "language.build.calls": calls("language.build"),
        "language.build.s": seconds("language.build"),
        "language.words": work("language.build"),
        "language.contains.calls": calls("language.contains"),
        "language.contains.s": seconds("language.contains"),
        "language.member_share": share(work("language.contains"),
                                       calls("language.contains")),
        "interpretations.queries": sum(calls(name) for name in interp),
        "interpretations.s": seconds(*interp),
        "interpretations.found": work("interpretations.minimal"),
        "interpretations.vacuous_share": share(
            sum(1 for i in minimal if spans[i][5] == 0), len(minimal)),
        "circularity.weak.calls": calls("circularity.weak"),
        "circularity.weak.s": seconds("circularity.weak"),
        "circularity.strong.calls": calls("circularity.strong"),
        "circularity.strong.s": seconds("circularity.strong"),
        "circularity.levels": work("circularity.weak") + work("circularity.strong"),
        "repetitiveness.detect.calls": calls("repetitiveness.detect"),
        "repetitiveness.detect.s": seconds("repetitiveness.detect"),
        "repetitiveness.certificates": work("repetitiveness.detect"),
        "injectivity.collisions.calls": calls("injectivity.collisions"),
        "injectivity.collisions.s": seconds("injectivity.collisions", "injectivity.delta"),
        "injectivity.pairs": work("injectivity.collisions"),
    }
