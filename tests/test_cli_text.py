"""Golden text reports of the CLI, and the invariants of its argument parsing.

The reports in cli_text_golden.json pin the text output (stdout, stderr and
exit code) of every command byte for byte, including every threshold status
in both modes and both repetitiveness verdicts.  Every case runs in a
temporary working directory that holds the small systems of WRITTEN, so that
`power -o` writes there.  Regenerate the file with
`PYTHONPATH=src python tests/test_cli_text.py`, and only when a report is
meant to change.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest

from df0l.cli import _COMMANDS, main

HERE = os.path.dirname(os.path.abspath(__file__))
SAMPLES = os.path.join(HERE, os.pardir, "samples")
GOLDEN = os.path.join(HERE, "cli_text_golden.json")


def sample(name):
    return os.path.join(SAMPLES, name)


TM = sample("thue_morse.sys")
BOUNDED = sample("collapse_bounded_delta.sys")
UNBOUNDED = sample("collapse_unbounded_delta.sys")
SQUARE = sample("repetitive_square.sys")
FIXED = sample("two_fixed_letters.sys")
SIMPLIFIED = sample("simplified_collapse.sys")
TWINED_MAPS = ["--alpha", "a -> A; b -> B; c -> B",
               "--beta", "A -> a b a c c; B -> a b a"]
IDENTITY_MAPS = ["--alpha", "a -> a; b -> b", "--beta", "a -> a; b -> b"]

# systems written into the working directory of every case, by file name
WRITTEN = {
    # every word of {ε, a, x} synchronizes: D = 0 in both modes, no witness
    "swap.sys": "alphabet: a x\nmap a -> x\nmap x -> a\naxiom: a\n",
    # a lies in no image, so it has no interpretation
    "sink.sys": "alphabet: a b\nmap a -> b\nmap b -> b\naxiom: a\n",
    # twined with identity.sys by the identity maps, but b is not in its language
    "identity.sys": "alphabet: a b\nmap a -> a\nmap b -> b\naxiom: a\n",
    "identity_b.sys": "alphabet: a b\nmap a -> a\nmap b -> b\naxiom: b\n",
}

# case id -> argv; paths are sample files or WRITTEN file names, so no report
# depends on where the repository lives
CASES = {
    "threshold weak found": ["threshold", TM, "--mode", "weak"],
    "threshold strong found": ["threshold", TM, "--mode", "strong"],
    "threshold strong found D=9": ["threshold", UNBOUNDED, "--mode", "strong",
                                   "--cutoff", "12"],
    "threshold weak cutoff_exceeded": ["threshold", TM, "--mode", "weak",
                                       "--cutoff", "2"],
    "threshold strong cutoff_exceeded": ["threshold", UNBOUNDED, "--mode", "strong",
                                         "--cutoff", "5"],
    "threshold strong not_strongly_circular": ["threshold", SQUARE, "--mode",
                                               "strong"],
    "threshold weak found D=0": ["threshold", "swap.sys", "--mode", "weak"],
    "threshold strong found D=0": ["threshold", "swap.sys", "--mode", "strong"],
    "repetitive certificate": ["repetitive", SQUARE],
    "repetitive no witness": ["repetitive", TM],
    "letters thue_morse": ["letters", TM],
    "letters two_fixed_letters": ["letters", FIXED],
    "sync weak yes": ["sync", BOUNDED, "b a", "a b", "--mode", "weak"],
    "sync weak no": ["sync", TM, "a a", "b", "--mode", "weak"],
    "sync strong yes": ["sync", TM, "a", "a b", "--mode", "strong"],
    "sync strong no": ["sync", BOUNDED, "a", "b a", "--mode", "strong"],
    "sync weak vacuous": ["sync", "sink.sys", "a", ""],
    "delta": ["delta", BOUNDED, "-L", "6"],
    "delta no pair": ["delta", TM, "-L", "4"],
    "language": ["language", TM, "-L", "3"],
    "interpretations": ["interpretations", TM, "a b a"],
    "interpretations none": ["interpretations", "sink.sys", "a"],
    "power": ["power", FIXED, "-k", "2"],
    "power to a file": ["power", FIXED, "-k", "2", "-o", "squared.sys"],
    "twined yes": ["twined", BOUNDED, SIMPLIFIED, *TWINED_MAPS],
    "twined no": ["twined", BOUNDED, SIMPLIFIED, "--alpha", "a -> A; b -> A; c -> B",
                  "--beta", "A -> a b a c c; B -> a b a"],
    "twined language check failed": ["twined", "identity.sys", "identity_b.sys",
                                     *IDENTITY_MAPS],
    "error unknown letter": ["interpretations", TM, "a z"],
    "error not in language": ["interpretations", TM, "a a a"],
}

# the first case of each command
COMMANDS = {}
for _argv in CASES.values():
    COMMANDS.setdefault(_argv[0], _argv)


@contextlib.contextmanager
def _workdir():
    """A temporary working directory holding the WRITTEN systems."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in WRITTEN.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as handle:
                handle.write(text)
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            yield tmp
        finally:
            os.chdir(cwd)


@pytest.fixture(autouse=True)
def workdir():
    with _workdir() as tmp:
        yield tmp


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"exit_code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _json_report(argv):
    report = _run(argv)
    payload = json.loads(report["stdout"])
    payload.pop("elapsed_ms")
    return report["exit_code"], payload


def _golden():
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(CASES)
    assert sorted(COMMANDS) == ["delta", "interpretations", "language", "letters",
                                "power", "repetitive", "sync", "threshold", "twined"]


@pytest.mark.parametrize("case", list(CASES))
def test_text_report_matches_golden(case):
    assert _run(CASES[case]) == _golden()[case]


@pytest.mark.parametrize("command", list(COMMANDS))
def test_json_flag_before_or_after_the_command(command):
    argv = COMMANDS[command]
    before = _json_report(["--json", *argv])
    assert before[0] == 0
    assert before[1]["command"] == command
    assert _json_report([*argv, "--json"]) == before


@pytest.mark.parametrize("case", [case for case, report in sorted(_golden().items())
                                  if report["exit_code"] == 0])
def test_text_report_is_rendered_from_the_json_result(case):
    """The text report is the command's renderer applied to the JSON result
    alone, so it states nothing that the JSON report does not."""
    argv = CASES[case]
    code, payload = _json_report(["--json", *argv])
    assert code == 0
    render = _COMMANDS.choices[argv[0]].get_default("text")
    assert _run(argv)["stdout"] == "".join(line + "\n" for line in render(payload["result"]))


def test_power_writes_the_rendered_system(workdir):
    assert _run(CASES["power to a file"])["exit_code"] == 0
    with open(os.path.join(workdir, "squared.sys"), encoding="utf-8") as handle:
        assert handle.read() == _golden()["power"]["stdout"]


def test_usage_error_leaves_later_calls_unchanged():
    argv = ["--json", "threshold", TM, "--mode", "strong"]
    first = _json_report(argv)
    text = _run(CASES["threshold weak found"])
    for bad in (["threshold", TM],                       # --mode is required
                ["--json", "sync", TM, "a", "b", "--mode", "medium"],
                ["no-such-command", TM]):
        with contextlib.redirect_stderr(io.StringIO()), \
                pytest.raises(SystemExit) as stop:
            main(bad)
        assert stop.value.code == 2
    assert _json_report(argv) == first
    assert _run(CASES["threshold weak found"]) == text


if __name__ == "__main__":
    with _workdir():
        reports = {case: _run(argv) for case, argv in CASES.items()}
    # one report per line, so that a changed report shows as one changed line
    lines = [f"{json.dumps(case)}: {json.dumps(reports[case], sort_keys=True)}"
             for case in sorted(reports)]
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        handle.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(reports)} reports to {GOLDEN}")
