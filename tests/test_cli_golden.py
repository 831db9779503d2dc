"""Golden `--json` reports of the CLI on every sample, with `elapsed_ms` removed.

The reports in cli_golden.json pin interpretations, weak and strong pair
synchronization, both threshold searches, letter growth, the repetitiveness
detector, the second and third power systems, injectivity collisions and the
factor language byte for byte.  Regenerate the
file with `PYTHONPATH=src python tests/test_cli_golden.py`, and only when a
report is meant to change.
"""

import contextlib
import io
import json
import os

import pytest

from df0l.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
SAMPLES = os.path.join(HERE, os.pardir, "samples")
GOLDEN = os.path.join(HERE, "cli_golden.json")

# language members of lengths 2, 4, 7 and 10
WORDS = {
    "collapse_bounded_delta.sys":
        ["c a", "b a a b", "c a b a c c a", "b a a b a c c a b a"],
    "collapse_unbounded_delta.sys":
        ["c a", "a a b a", "b a c a a b a", "c a a b a c a a b a"],
    "repetitive_square.sys":
        ["a c", "a a c a", "a c b c b c b", "a a c b c b c b c a"],
    "simplified_collapse.sys":
        ["B A", "B B A B", "B B A B A B B", "A B B A B A A B A A"],
    "thue_morse.sys":
        ["b b", "b b a a", "a b a a b a b", "b a b a a b a b b a"],
    "two_fixed_letters.sys":
        ["b d", "a d d d", "c c c a d d d", "c c c c c c b d d d"],
}


def _cases():
    """(case id, argv) for every pinned report."""
    for name, words in WORDS.items():
        path = os.path.join(SAMPLES, name)
        for word in words:
            yield f"{name} interpretations {word}", ["interpretations", path, word]
        for word in words[1:3]:
            tokens = word.split()
            left = " ".join(tokens[:len(tokens) // 2])
            right = " ".join(tokens[len(tokens) // 2:])
            for mode in ("weak", "strong"):
                yield (f"{name} sync {left} | {right} {mode}",
                       ["sync", path, left, right, "--mode", mode])
        yield (f"{name} threshold weak 20",
               ["threshold", path, "--mode", "weak", "--cutoff", "20"])
        yield (f"{name} threshold strong 12",
               ["threshold", path, "--mode", "strong", "--cutoff", "12"])
        yield f"{name} letters", ["letters", path]
        yield f"{name} repetitive", ["repetitive", path]
        for k in ("2", "3"):
            yield f"{name} power -k {k}", ["power", path, "-k", k]
        yield f"{name} delta -L 6", ["delta", path, "-L", "6"]
        yield f"{name} language -L 5", ["language", path, "-L", "5"]


CASES = dict(_cases())


def _report(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["--json", *argv])
    payload = json.loads(out.getvalue())
    payload.pop("elapsed_ms")
    return {"exit_code": code, "payload": payload}


def _golden():
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(CASES)


@pytest.mark.parametrize("case", list(CASES))
def test_cli_report_matches_golden(case):
    assert _report(CASES[case]) == _golden()[case]


if __name__ == "__main__":
    reports = {case: _report(argv) for case, argv in CASES.items()}
    # one report per line, so that a changed report shows as one changed line
    lines = [f"{json.dumps(case)}: {json.dumps(reports[case], sort_keys=True)}"
             for case in sorted(reports)]
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        handle.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(reports)} reports to {GOLDEN}")
