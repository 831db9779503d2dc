import json
import os
import subprocess
import sys

from df0l import (contains, is_weakly_synchronized, parse_system, parse_word,
                  strong_sync_letter)
from df0l.cli import main

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


def test_letters_command(capsys):
    code, payload = run_json(capsys, "letters", sample("two_fixed_letters.sys"))
    assert code == 0
    assert payload["result"]["bounded"] == ["c", "d"]
    assert payload["result"]["unbounded"] == ["a", "b"]
    assert payload["result"]["invariant_exponent"] == 2


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
    the reader of stdout gone, the console entry point exits with status 1."""
    env = {**os.environ,
           "PYTHONPATH": os.path.join(os.path.dirname(__file__), os.pardir, "src")}
    read_end, write_end = os.pipe()
    os.close(read_end)   # the reader is gone before the first write
    try:
        done = subprocess.run(
            [sys.executable, "-m", "df0l", "--json", "delta", "-L", "14",
             sample("collapse_unbounded_delta.sys")],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert done.stderr == b""


def run_module(*argv):
    """`python -m df0l argv` in a fresh interpreter, with captured output."""
    env = {**os.environ,
           "PYTHONPATH": os.path.join(os.path.dirname(__file__), os.pardir, "src")}
    return subprocess.run([sys.executable, "-m", "df0l", *argv],
                          capture_output=True, env=env, timeout=60)


def assert_input_error(argv, message):
    done = run_module(*argv)
    assert done.returncode == 2
    assert b"Traceback" not in done.stderr
    assert message.encode() in done.stderr
    done = run_module("--json", *argv)
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
