import io
import json
import os
import random
import sys
from collections import Counter

from df0l import (clear_language_cache, contains, is_weakly_synchronized,
                  parse_system, parse_word, render_system, strong_sync_letter)
from df0l import cli
from df0l.cli import main

from conftest import binary_census, run_df0l, sys1
from oracles import check_delta_report, check_repetitive_report, check_threshold_report

SAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, "samples")


def sample(name):
    return os.path.join(SAMPLES, name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    return code, json.loads(out)


def test_threshold_weak_json(capsys):
    code, payload = run_json(capsys, "threshold", sample("thue_morse.sys"),
                             "--mode", "weak")
    assert code == 0
    assert payload["result"]["status"] == "found"
    assert payload["result"]["D"] == 3
    assert payload["result"]["witness"] == "a b a"
    assert payload["system"]["pdf0l"] is True
    assert payload["system"]["min_image_len"] == 2
    assert payload["system"]["max_image_len"] == 2


def test_threshold_strong_json(capsys):
    code, payload = run_json(capsys, "threshold", sample("thue_morse.sys"),
                             "--mode", "strong")
    assert code == 0
    assert payload["result"]["D"] == 1


def test_repetitive_json(capsys):
    code, payload = run_json(capsys, "repetitive", sample("repetitive_square.sys"))
    assert code == 0
    result = payload["result"]
    assert result["status"] == "repetitive"
    assert result["letter"] == "b"
    assert result["power"] == 1
    assert result["witness"] == "b c"


def test_language_command(capsys):
    code, payload = run_json(capsys, "language", sample("thue_morse.sys"), "-L", "3")
    assert code == 0
    assert payload["result"]["words"][:7] == ["", "a", "b", "a a", "a b", "b a", "b b"]
    assert "a a a" not in payload["result"]["words"]


def test_interpretations_command(capsys):
    code, payload = run_json(capsys, "interpretations", sample("thue_morse.sys"),
                             "a b a")
    assert code == 0
    triples = {(i["s"], i["w"], i["t"])
               for i in payload["result"]["interpretations"]}
    assert triples == {("", "a a", "b"), ("b", "b b", "")}


def test_sync_command(capsys):
    code, payload = run_json(capsys, "sync", sample("thue_morse.sys"),
                             "a b", "a", "--mode", "weak")
    assert code == 0
    assert payload["result"]["admissible"] is True
    code, payload = run_json(capsys, "sync", sample("thue_morse.sys"),
                             "a b", "a b", "--mode", "strong")
    assert code == 0
    assert payload["result"]["synchronizing"] is True
    assert payload["result"]["letter"] == "a"


def test_power_command(capsys, tmp_path):
    out_file = tmp_path / "powered.sys"
    code, payload = run_json(capsys, "power", sample("two_fixed_letters.sys"),
                             "-k", "2", "-o", str(out_file))
    assert code == 0
    assert payload["result"]["axioms"] == ["b", "a d"]
    powered = parse_system(out_file.read_text())
    assert contains(powered, parse_word("a d"))


def test_power_command_on_an_erasing_system(capsys, tmp_path):
    # image(c) is empty: the power keeps the language, so that iterate is no axiom
    erasing = tmp_path / "erasing.sys"
    erasing.write_text("alphabet: a c\nmap a -> a c\nmap c ->\naxiom: c\naxiom: a\n")
    code, payload = run_json(capsys, "power", str(erasing), "-k", "2")
    assert code == 0
    assert payload["result"]["axioms"] == ["a", "c", "a c"]
    assert payload["result"]["rendered"] == (
        "alphabet: a c\nmap a -> a c\nmap c ->\naxiom: a\naxiom: c\naxiom: a c\n")


def test_letters_command(capsys):
    code, payload = run_json(capsys, "letters", sample("two_fixed_letters.sys"))
    assert code == 0
    assert payload["result"]["bounded"] == ["c", "d"]
    assert payload["result"]["unbounded"] == ["a", "b"]
    assert payload["result"]["invariant_exponent"] == 2


def test_letters_text_without_unbounded_letters(capsys, tmp_path):
    swap = tmp_path / "swap.sys"
    swap.write_text("alphabet: a b\nmap a -> b\nmap b -> a\naxiom: a\n", encoding="utf-8")
    code, out = run(capsys, "letters", str(swap))
    assert code == 0
    assert out.splitlines() == ["bounded letters:   a b", "unbounded letters: (none)",
                                "invariant exponent: 2",
                                "minimal invariant subalphabets: (none)"]


def test_delta_command(capsys):
    code, payload = run_json(capsys, "delta", sample("collapse_bounded_delta.sys"),
                             "-L", "6")
    assert code == 0
    assert payload["result"]["delta_lower_bound"] == 11
    assert payload["result"]["count"] == 4
    assert ["b", "c"] in payload["result"]["pairs"]
    assert (payload["system"]["min_image_len"],
            payload["system"]["max_image_len"]) == (3, 5)


def test_twined_command(capsys):
    code, payload = run_json(
        capsys, "twined", sample("collapse_bounded_delta.sys"),
        sample("simplified_collapse.sys"),
        "--alpha", "a -> A; b -> B; c -> B",
        "--beta", "A -> a b a c c; B -> a b a")
    assert code == 0
    assert payload["result"]["twined"] is True
    assert payload["result"]["commutation"] is True
    assert payload["result"]["language_check"] is True


def test_twined_failure_reported(capsys, tmp_path):
    other = tmp_path / "simplified.sys"
    other.write_text("alphabet: A B\nmap A -> A B A B B\nmap B -> A B A\naxiom: A\n")
    code, payload = run_json(
        capsys, "twined", sample("collapse_bounded_delta.sys"), str(other),
        "--alpha", "a -> A; b -> A; c -> B",
        "--beta", "A -> a b a c c; B -> a b a")
    assert code == 0
    assert payload["result"]["twined"] is False
    assert payload["result"]["failure"] == "b"


def test_exit_code_2_on_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.sys"
    bad.write_text("alphabet: a\nmap a -> b\naxiom: a\n")
    code, out = run(capsys, "language", str(bad), "-L", "2", "--json")
    assert code == 2
    assert json.loads(out)["error"]["exit_code"] == 2
    assert main(["language", str(tmp_path / "missing.sys"), "-L", "2"]) == 2


def test_unknown_letter_in_word_is_an_input_error(capsys):
    assert main(["interpretations", sample("thue_morse.sys"), "a z"]) == 2
    capsys.readouterr()
    assert main(["sync", sample("thue_morse.sys"), "q", "a"]) == 2
    capsys.readouterr()


def test_exit_code_3_on_precondition(capsys, tmp_path):
    erasing = tmp_path / "erasing.sys"
    erasing.write_text("alphabet: a b\nmap a -> a b\nmap b ->\naxiom: a\n")
    assert main(["threshold", str(erasing), "--mode", "weak"]) == 3
    capsys.readouterr()
    # word outside the language is a precondition violation as well
    assert main(["interpretations", sample("thue_morse.sys"), "a a a"]) == 3


def test_letters_rejects_an_erasing_morphism(capsys, tmp_path):
    erasing = tmp_path / "erasing.sys"
    erasing.write_text("alphabet: a b\nmap a -> a b\nmap b ->\naxiom: a\n")
    code, out = run(capsys, "letters", str(erasing), "--json")
    assert code == 3
    assert json.loads(out)["error"] == {"message": "morphism erases letters: b",
                                        "exit_code": 3}


def test_exit_code_0_on_negative_verdicts(capsys, tmp_path):
    code, payload = run_json(capsys, "repetitive", sample("thue_morse.sys"))
    assert code == 0
    assert payload["result"]["status"] == "no_witness"
    powered = tmp_path / "squared.sys"
    assert main(["power", sample("repetitive_square.sys"), "-k", "2",
                 "-o", str(powered)]) == 0
    capsys.readouterr()
    code, payload = run_json(capsys, "threshold", str(powered),
                             "--mode", "weak", "--cutoff", "12")
    assert code == 0
    assert payload["result"]["status"] == "cutoff_exceeded"


def test_text_mode_output(capsys):
    code, out = run(capsys, "threshold", sample("thue_morse.sys"), "--mode", "weak")
    assert code == 0
    assert "D = 3" in out and "a b a" in out

    code, out = run(capsys, "threshold", sample("repetitive_square.sys"),
                    "--mode", "strong")
    assert code == 0
    assert "not strongly circular" in out and "b c" in out

    code, out = run(capsys, "sync", sample("thue_morse.sys"), "a b", "a b",
                    "--mode", "strong")
    assert code == 0
    assert "strongly synchronizing" in out and "letter a" in out

    code, out = run(capsys, "letters", sample("two_fixed_letters.sys"))
    assert code == 0
    assert "bounded letters:   c d" in out
    assert "invariant exponent: 2" in out

    code, out = run(capsys, "repetitive", sample("thue_morse.sys"))
    assert code == 0
    assert "no witness" in out and "not a proof" in out


def test_json_is_deterministic(capsys):
    def stripped(argv):
        code, payload = run_json(capsys, *argv)
        assert code == 0
        payload.pop("elapsed_ms")
        return json.dumps(payload, sort_keys=True)

    for argv in (["threshold", sample("thue_morse.sys"), "--mode", "weak"],
                 ["language", sample("collapse_bounded_delta.sys"), "-L", "4"],
                 ["repetitive", sample("repetitive_square.sys")],
                 ["delta", sample("collapse_bounded_delta.sys"), "-L", "5"]):
        assert stripped(argv) == stripped(argv)


CENSUS_COMMANDS = (["letters"], ["repetitive"],
                   ["threshold", "--mode", "weak", "--cutoff", "14"],
                   ["threshold", "--mode", "strong", "--cutoff", "10"],
                   ["delta", "-L", "6"])


def test_json_is_deterministic_over_the_binary_census(capsys, tmp_path):
    """On every census system each report, apart from elapsed_ms, is the
    same from cold caches as from the caches its own run left warm."""
    systems = list(binary_census())
    assert len(systems) == 392
    for index, system in enumerate(systems):
        path = tmp_path / f"census{index}.sys"
        path.write_text(render_system(system), encoding="utf-8")
        for command, *options in CENSUS_COMMANDS:
            argv = [command, str(path), *options, "--json"]
            clear_language_cache()
            reports = []
            for _ in range(2):
                assert main(argv) == 0, argv
                payload = json.loads(capsys.readouterr().out)
                payload.pop("elapsed_ms")
                reports.append(json.dumps(payload, sort_keys=True))
            assert reports[0] == reports[1], argv


def test_census_reports_pass_the_report_checkers(capsys, tmp_path):
    """The `repetitive`, `threshold` (weak cutoff 14, strong cutoff 10) and
    `delta -L 6` reports of every census system pass the checkers of
    tests/oracles.py: 142 are certificates, 26 list collision pairs, 226 in
    all, and the threshold statuses have the pinned counts."""
    certified = colliding = pairs = 0
    statuses = Counter()
    for index, system in enumerate(binary_census()):
        path = tmp_path / f"census{index}.sys"
        path.write_text(render_system(system), encoding="utf-8")
        code, repetitive = run_json(capsys, "repetitive", str(path))
        assert code == 0
        certified += check_repetitive_report(system, repetitive["result"])
        for mode, cutoff in (("weak", "14"), ("strong", "10")):
            code, threshold = run_json(capsys, "threshold", str(path),
                                       "--mode", mode, "--cutoff", cutoff)
            assert code == 0
            statuses[mode, check_threshold_report(system, threshold["result"])] += 1
        code, delta = run_json(capsys, "delta", str(path), "-L", "6")
        assert code == 0
        check_delta_report(system, delta["result"])
        colliding += bool(delta["result"]["count"])
        pairs += delta["result"]["count"]
    assert (certified, colliding, pairs) == (142, 26, 226)
    assert statuses == {("weak", "found"): 266, ("weak", "cutoff_exceeded"): 126,
                        ("strong", "found"): 250,
                        ("strong", "not_strongly_circular"): 142}


def test_delta_reports_pass_the_checker_beyond_the_binary_census(capsys, tmp_path):
    """`delta` reports pass check_delta_report on two ternary systems whose
    image groups interleave in canonical order, so that the report's sort
    decides the order of its pairs, and on 300 seeded ternary systems at
    -L 6; 32 of the 302 reports list pairs.  In the binary census no group
    interleaves, at -L 4 or at 8."""
    rng = random.Random(1)
    systems = [(sys1("abc", {"a": "cab", "b": "ac", "c": "cab"}, ["c"]), 2),
               (sys1("abc", {"a": "abb", "b": "cc", "c": "c"}, ["a"]), 4)]
    for _ in range(300):
        rules = {a: "".join(rng.choices("abc", k=rng.randint(1, 3))) for a in "abc"}
        systems.append((sys1("abc", rules, [rng.choice("abc")]), 6))
    colliding = 0
    for index, (system, max_len) in enumerate(systems):
        path = tmp_path / f"ternary{index}.sys"
        path.write_text(render_system(system), encoding="utf-8")
        code, delta = run_json(capsys, "delta", str(path), "-L", str(max_len))
        assert code == 0
        check_delta_report(system, delta["result"])
        colliding += bool(delta["result"]["count"])
    assert colliding == 32


def test_witnesses_revalidate(capsys):
    code, payload = run_json(capsys, "threshold", sample("thue_morse.sys"),
                             "--mode", "weak")
    with open(sample("thue_morse.sys"), encoding="utf-8") as handle:
        system = parse_system(handle.read())
    witness = parse_word(payload["result"]["witness"])
    assert not is_weakly_synchronized(system, witness).synchronized

    code, payload = run_json(capsys, "sync", sample("thue_morse.sys"),
                             "a b", "a b", "--mode", "strong")
    letter = payload["result"]["letter"]
    assert strong_sync_letter(system, parse_word("a b"), parse_word("a b")) == letter


def test_closed_pipe_ends_quietly():
    """`df0l --json delta ... | head -c 10` must not end in a traceback: with
    the reader of stdout gone, the console entry point exits with status 1.
    Unbuffered, print raises inside main(); buffered, the report reaches the
    pipe only at console_main's own flush, and a stdout left unredirected
    would raise again in the interpreter's flush at exit."""
    reports = (["letters", sample("thue_morse.sys")],
               ["delta", "-L", "14", sample("collapse_unbounded_delta.sys")])
    for unbuffered in ({}, {"PYTHONUNBUFFERED": "1"}):
        for argv in reports:
            read_end, write_end = os.pipe()
            os.close(read_end)   # the reader is gone before the first write
            try:
                done = run_df0l("--json", *argv, stdout=write_end, env=unbuffered)
            finally:
                os.close(write_end)
            assert (done.returncode, done.stderr) == (1, b""), (argv, unbuffered)


def test_cli_module_runs_as_a_script(capsys):
    """`python -m df0l.cli` runs the console entry point: the same report as
    main(), apart from elapsed_ms."""
    argv = ["--json", "letters", sample("thue_morse.sys")]
    done = run_df0l(*argv, module="df0l.cli")
    assert done.returncode == 0
    assert done.stderr == b""
    report = json.loads(done.stdout)
    assert main(argv) == 0
    expected = json.loads(capsys.readouterr().out)
    report.pop("elapsed_ms")
    expected.pop("elapsed_ms")
    assert report == expected


def assert_input_error(argv, message):
    done = run_df0l(*argv)
    assert done.returncode == 2
    assert b"Traceback" not in done.stderr
    assert message.encode() in done.stderr
    done = run_df0l("--json", *argv)
    assert done.returncode == 2
    assert b"Traceback" not in done.stderr
    error = json.loads(done.stdout)["error"]
    assert error["exit_code"] == 2 and error["message"].startswith(message)


def test_undecodable_system_file_is_an_input_error(tmp_path):
    latin1 = tmp_path / "latin1.sys"
    latin1.write_bytes("# caf\xe9\nalphabet: a b\nmap a -> a b\nmap b -> b a\n"
                       "axiom: a\n".encode("latin-1"))
    assert_input_error(["letters", str(latin1)], f"cannot read {latin1}")
    # the second file of `twined` goes through the same loader
    assert_input_error(["twined", sample("thue_morse.sys"), str(latin1),
                        "--alpha", "a -> a; b -> b", "--beta", "a -> a; b -> b"],
                       f"cannot read {latin1}")


def test_unwritable_power_output_is_an_input_error(tmp_path):
    for target in (tmp_path / "missing" / "squared.sys", tmp_path):
        assert_input_error(["power", sample("two_fixed_letters.sys"), "-k", "2",
                            "-o", str(target)], f"cannot write {target}")


def test_running_out_of_memory_while_printing_is_an_exit_code(capsys, monkeypatch):
    """A MemoryError from the first write of the report ends with exit 2
    and the error report, not a traceback."""
    class FirstWriteFails(io.StringIO):
        failed = False

        def write(self, text):
            if not self.failed:
                self.failed = True
                raise MemoryError
            return super().write(text)

    for json_flag in ([], ["--json"]):
        out = FirstWriteFails()
        monkeypatch.setattr(sys, "stdout", out)
        assert main([*json_flag, "letters", sample("thue_morse.sys")]) == 2
        if json_flag:
            assert json.loads(out.getvalue()) == {
                "command": "letters", "error": {"exit_code": 2, "message": "out of memory"}}
        else:
            assert out.getvalue() == ""
            assert capsys.readouterr().err == "error: out of memory\n"


def test_usage_errors_give_a_json_report(capsys):
    """Under --json an argparse usage error also prints the error report,
    with argparse's message; stderr and the exit are those of text mode."""
    tm = sample("thue_morse.sys")
    cases = [(["threshold", tm], "threshold",
              "the following arguments are required: --mode"),
             (["sync", tm, "a", "b", "--mode", "medium"], "sync",
              "argument --mode: invalid choice: 'medium'"),
             (["no-such-command", tm], None,
              "argument command: invalid choice: 'no-such-command'"),
             (["letters", tm, "--bogus"], "letters", "unrecognized arguments: --bogus")]
    for argv, command, message in cases:
        outputs = []
        for flags in ([], ["--json"]):
            try:
                main(flags + argv)
            except SystemExit as stop:
                assert stop.code == 2
            else:
                raise AssertionError(f"{argv} did not exit")
            outputs.append(capsys.readouterr())
        text, as_json = outputs
        assert text.out == ""
        assert as_json.err == text.err
        assert f"error: {message}" in text.err
        report = json.loads(as_json.out)
        assert report["command"] == command
        assert report["error"]["exit_code"] == 2
        assert report["error"]["message"].startswith(message)
        assert f"error: {report['error']['message']}\n" in text.err


def test_commands_parse_as_the_top_level_parser_does(monkeypatch):
    """main() parses a command's arguments with the command's own parser, in
    one pass, and gets the namespace and extras that the top-level parser
    gets; help, an unknown command and anything else before the command
    name still go through the top-level parser."""
    tm, other = sample("thue_morse.sys"), sample("simplified_collapse.sys")
    arguments = {"language": ["-L", "3"], "interpretations": ["a b"],
                 "sync": ["a b", "a", "--mode=weak"],
                 "threshold": ["--mode", "strong", "--cut", "4"],
                 "power": ["-k", "2", "-o", "out.sys"], "letters": [],
                 "repetitive": ["--period-bound", "8"], "delta": ["-L", "4"],
                 "twined": [other, "--alpha", "a -> a", "--beta", "a -> a", "-L", "5"]}
    assert set(arguments) == set(cli._COMMANDS.choices)
    direct = []
    for command, options in arguments.items():
        direct += [[command, tm, *options], ["--json", command, tm, *options],
                   [command, tm, *options, "--json"], [command, "--json", tm, *options]]
    direct.append(["letters", tm, "--bogus"])
    top_level = [["--json", "--json", "letters", tm], ["--js", "letters", tm],
                 ["--json", "--json", "threshold", tm, "--mode=weak"]]
    top_level_parse = cli._PARSER.parse_known_args
    calls = []
    monkeypatch.setattr(cli._PARSER, "parse_known_args",
                        lambda args: calls.append(args) or top_level_parse(args))
    for argv in direct + top_level:
        calls.clear()
        assert cli._parse_known_args(argv) == top_level_parse(argv), argv
        assert calls == ([] if argv in direct else [argv]), argv


def test_each_system_text_is_parsed_once(capsys, monkeypatch, tmp_path):
    """The CLI reads its file on every call, but parses each distinct text
    once until clear_language_cache(); a text that fails to parse is parsed,
    and fails, on every call."""
    parsed = []

    def counted(text):
        parsed.append(text)
        return parse_system(text)

    monkeypatch.setattr(cli, "parse_system", counted)
    clear_language_cache()
    path = tmp_path / "survey.sys"
    path.write_text("alphabet: a b\nmap a -> a b\nmap b -> a\naxiom: a\n")
    for command, *options in CENSUS_COMMANDS:
        assert main(["--json", command, str(path), *options]) == 0
    capsys.readouterr()
    assert len(parsed) == 1

    # the memo is keyed by the text: a rewritten file is parsed again
    path.write_text("alphabet: a b c d\nmap a -> c b\nmap b -> a d\nmap c -> c\n"
                    "map d -> d\naxiom: b\n")
    code, payload = run_json(capsys, "letters", str(path))
    assert code == 0 and len(parsed) == 2
    assert payload["result"]["bounded"] == ["c", "d"]
    assert payload["result"]["invariant_exponent"] == 2

    clear_language_cache()
    assert run_json(capsys, "letters", str(path))[1]["result"] == payload["result"]
    assert len(parsed) == 3

    bad = tmp_path / "bad.sys"
    bad.write_text("alphabet: a\nmap a -> b\naxiom: a\n")
    reports = []
    for _ in range(3):
        code, out = run(capsys, "letters", str(bad), "--json")
        assert code == 2
        reports.append(json.loads(out))
    assert reports[0]["error"]["exit_code"] == 2
    assert reports == reports[:1] * 3
    assert len(parsed) == 6


def test_twined_with_one_file_as_both_systems(capsys):
    """Both files of `twined` may name one file; the loader hands back the
    same system twice, and the reports are those of two separate parses."""
    info = {"alphabet": ["a", "b", "c"], "axioms": ["a"], "max_image_len": 5,
            "min_image_len": 3, "pdf0l": True}
    collapse = sample("collapse_bounded_delta.sys")
    cases = [("a -> a b a c c; b -> a b a; c -> a b a",
              {"commutation": True, "failure": None, "language_check": True,
               "max_len": 4, "twined": True}),
             ("a -> a; b -> b; c -> b",
              {"commutation": None, "failure": "a", "language_check": None,
               "max_len": 4, "twined": False})]
    for alpha, result in cases:
        code, payload = run_json(capsys, "twined", collapse, collapse, "--alpha", alpha,
                                 "--beta", "a -> a; b -> b; c -> c")
        assert code == 0
        assert payload["system"] == info
        assert payload["result"] == result
