"""Whole CLI runs at full size, each in a fresh interpreter under the limits
that large or hostile input must keep: a cap on the address space, a
timeout, or both, with the exit code and the report the run must end in.

Each row names its systems by file name; the files of SYSTEMS that a row
names are written into the run's working directory.  Samples are named by
path.  The child imports the df0l package that the test process imported,
so a run against an installed package checks that package.
"""

import json
import os
import re
from typing import NamedTuple, Optional

import pytest

from df0l import parse_system

from conftest import run_df0l

SAMPLES = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "samples")


def sample(name):
    return os.path.join(SAMPLES, name)


def _text(images, axiom):
    """A system file: the letters declared in the order of images."""
    lines = ["alphabet: " + " ".join(images)]
    lines += [f"map {a} -> {image}" for a, image in images.items()]
    return "\n".join(lines + [f"axiom: {axiom}", ""])


def _cycle(k):
    """c_i -> c_(i+1) c_(i+1), indices mod k, from c0."""
    return _text({f"c{i}": f"c{(i + 1) % k} c{(i + 1) % k}" for i in range(k)}, "c0")


SYSTEMS = {
    # a -> a a b, b -> c0 -> ... -> c27 -> b
    "cycle30.sys": _text({"a": "a a b", "b": "c0",
                          **{f"c{i}": f"c{i + 1}" for i in range(27)}, "c27": "b"}, "a"),
    # a0 -> a1 b, a_i -> a_(i+1), a27 -> a0, b -> b b
    "sink28.sys": _text({"a0": "a1 b", **{f"a{i}": f"a{i + 1}" for i in range(1, 27)},
                         "a27": "a0", "b": "b b"}, "a0"),
    # x0 -> x0 x1 with 29 fixed letters
    "fixed30.sys": _text({"x0": "x0 x1", **{f"x{i}": f"x{i}" for i in range(1, 30)}}, "x0"),
    "cycle16.sys": _cycle(16),
    "cycle20.sys": _cycle(20),
    # every image has length 4
    "quad.sys": _text({"a": "a b c d", "b": "c a d b", "c": "d b c a", "d": "b d a c"}, "a"),
    "fixed2.sys": _text({"a": "a", "b": "b"}, "a b"),
    # r185 of the benchmark census
    "r185.sys": _text({"a": "b", "b": "d d d d", "c": "c c a", "d": "a a"}, "c"),
    # every file is written as Latin-1: the others are ASCII, which reads the
    # same as UTF-8, and this one's é is not UTF-8
    "latin1.sys": "alphabet: a\nmap a -> a a\naxiom: a\n# caf\xe9\n",
}

# the 400-letter Thue-Morse prefix
THUE_MORSE_400 = " ".join("ab"[bin(i).count("1") % 2] for i in range(400))
# a 400-letter factor of phi^7(a) in collapse_unbounded_delta.sys, where b
# and c share the image a b a
with open(sample("collapse_unbounded_delta.sys"), encoding="utf-8") as handle:
    SHARED_400 = " ".join(
        parse_system(handle.read()).morphism.apply_power(("a",), 7)[100:500])
TWINED = [sample("collapse_bounded_delta.sys"), sample("simplified_collapse.sys"),
          "--alpha", "a -> A; b -> B; c -> B", "--beta", "A -> a b a c c; B -> a b a"]
OUT_OF_MEMORY = {"command": "power", "error": {"exit_code": 2, "message": "out of memory"}}


class Run(NamedTuple):
    argv: tuple
    # a dict holds items of the JSON report's result, or the whole report
    # when the run exits with an error; bytes are the whole of stdout
    expected: object
    exit_code: int = 0
    # None: anything but a traceback
    stderr: Optional[bytes] = b""
    # KiB, as `ulimit -v` takes it
    address_space: Optional[int] = None
    timeout: float = 60


RUNS = {
    # the invariant exponent is 29 and phi^29(a) has over 2^29 letters, but
    # letter growth reads letter sets only
    "cycle30 letters": Run(
        ("--json", "letters", "cycle30.sys"),
        {"unbounded": ["a"], "invariant_exponent": 29,
         "minimal_invariant_subalphabets": [["a", "b"] + [f"c{i}" for i in range(28)]]},
        timeout=20),
    # b's first-letter cycle has 29 one-letter images, so the detector skips
    # it without building image^29, whose image of a alone has over 2^29
    # letters
    "cycle30 repetitive": Run(
        ("--json", "repetitive", "cycle30.sys", "--period-bound", "64"),
        {"status": "no_witness"}, address_space=300_000, timeout=20),
    # every a_i has a growing 28-letter first-letter cycle, but only b recurs
    # in its fixed point, so image^28, whose image of a0 has over 2^27
    # letters, is not built; the witness is b, from image^1
    "sink28 repetitive": Run(
        ("--json", "repetitive", "sink28.sys", "--period-bound", "64"),
        {"witness": "b", "power": 1, "exponent": 2}, address_space=300_000, timeout=20),
    # the default period bound is 2^31, but x0 never recurs in its fixed
    # point, so no prefix is built
    "fixed30 repetitive": Run(
        ("--json", "repetitive", "fixed30.sys"),
        {"status": "no_witness", "period_bound": 2 ** 31}, timeout=20),
    # image^16(c0) = c0^65536, and the prefix grows only by letters whose
    # images fit within the period bound 2^17, not by 2^16 images of 2^16
    # letters at once
    "cycle16 repetitive": Run(
        ("--json", "repetitive", "cycle16.sys"),
        {"witness": "c0", "power": 16, "exponent": 65536}, timeout=20),
    # image^20 holds its 20 images of 2^20 letters as code strings, one code
    # point per letter, and builds no tuple of letter tokens
    "cycle20 repetitive": Run(
        ("--json", "repetitive", "cycle20.sys"),
        {"witness": "c0", "power": 20, "exponent": 1048576},
        address_space=300_000, timeout=20),
    # every prefix length m divides |image(x[:m])|; a 16-letter window
    # rejects almost every m before the period test copies a slice of up to
    # 2^20 letters
    "quad repetitive": Run(
        ("--json", "repetitive", "quad.sys", "--period-bound", "1048576"),
        {"status": "no_witness"}, address_space=300_000, timeout=20),
    # power -k 22 on Thue-Morse needs more than a 200 MB address space:
    # running out of memory is exit 2 with the error report
    "power out of memory --json": Run(
        ("--json", "power", sample("thue_morse.sys"), "-k", "22"),
        OUT_OF_MEMORY, exit_code=2, stderr=None, address_space=200_000),
    "power out of memory": Run(
        ("power", sample("thue_morse.sys"), "-k", "22"),
        b"", exit_code=2, stderr=b"error: out of memory\n", address_space=200_000),
    # each axiom steps through its iterates only up to the first repeat
    "power -k 20000": Run(
        ("--json", "power", "fixed2.sys", "-k", "20000"),
        {"k": 20000, "axioms": ["a b"]}, timeout=10),
    # and phi^k is built by squaring, in 20 steps
    "power -k 1000000": Run(
        ("--json", "power", "fixed2.sys", "-k", "1000000"),
        {"k": 1000000, "axioms": ["a b"]}, address_space=200_000, timeout=10),
    # the parse reads levels up to 201 only, and membership comes from it
    "thue_morse 400-letter interpretations": Run(
        ("--json", "interpretations", sample("thue_morse.sys"), THUE_MORSE_400),
        {"count": 1}, timeout=20),
    # a pass that checked membership only once the word is read would
    # double its branches at every a b a; this one parses in linear work
    "shared-image 400-letter interpretations": Run(
        ("--json", "interpretations", sample("collapse_unbounded_delta.sys"), SHARED_400),
        {"count": 1}, address_space=300_000, timeout=20),
    # Thue-Morse's images form a code, so delta answers any -L from the
    # images alone and builds no language
    "thue_morse delta -L 1000": Run(
        ("--json", "delta", sample("thue_morse.sys"), "-L", "1000"),
        {"count": 0}, address_space=300_000, timeout=20),
    # the twined checks read letters and axioms, so -L is only echoed, and
    # the text report names no bound, since neither check has one
    "twined -L 400 --json": Run(
        ("--json", "twined", *TWINED, "-L", "400"),
        {"twined": True, "language_check": True, "max_len": 400}, timeout=20),
    "twined -L 400": Run(
        ("twined", *TWINED, "-L", "400"),
        b"twined: yes\ncommutation: ok\nlanguage check: ok\n", timeout=20),
    # the failing words a^300 and d^300 grow from those of the level before,
    # and their parses probe levels up to 151 only; building all 300 levels
    # runs out of memory under this limit
    "r185 weak --cutoff 300": Run(
        ("--json", "threshold", "r185.sys", "--mode", "weak", "--cutoff", "300"),
        {"status": "cutoff_exceeded", "last_level": 300}, address_space=150_000, timeout=10),
    "undecodable file": Run(("letters", "latin1.sys"), b"", exit_code=2, stderr=None),
}


@pytest.mark.parametrize("name", RUNS)
def test_guarded_run(name, tmp_path):
    run = RUNS[name]
    for file_name in set(run.argv) & set(SYSTEMS):
        (tmp_path / file_name).write_text(SYSTEMS[file_name], encoding="latin-1")
    done = run_df0l(*run.argv, address_space=run.address_space, timeout=run.timeout,
                    cwd=tmp_path)
    assert done.returncode == run.exit_code, done.stderr
    assert b"Traceback" not in done.stderr
    if run.stderr is not None:
        assert done.stderr == run.stderr
    if isinstance(run.expected, bytes):
        assert done.stdout == run.expected
        return
    report = json.loads(done.stdout)
    if run.exit_code:
        assert report == run.expected
    else:
        assert {key: report["result"][key] for key in run.expected} == run.expected


def _without_elapsed(stdout):
    return re.sub(rb'"elapsed_ms": [0-9.e+-]*', b"", stdout)


def test_greek_letters_report_as_latin_ones(tmp_path):
    """Thue-Morse over α β, from a UTF-8 file and a UTF-8 word: its
    one-character tokens are encoded by one translate, and the report, with
    α, β written a, b, is that of the query on a b."""
    (tmp_path / "greek.sys").write_text(
        "alphabet: α β\nmap α -> α β\nmap β -> β α\naxiom: α\n", encoding="utf-8")
    greek = run_df0l("--json", "interpretations", "greek.sys", "α β β α β α α β",
                     cwd=tmp_path)
    latin = run_df0l("--json", "interpretations", sample("thue_morse.sys"),
                     "a b b a b a a b")
    assert greek.returncode == latin.returncode == 0
    assert b'"count": 1,' in latin.stdout
    as_latin = _without_elapsed(greek.stdout).decode().replace("α", "a").replace("β", "b")
    assert as_latin.encode() == _without_elapsed(latin.stdout)
