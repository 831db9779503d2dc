"""Command-line interface.

One system file per invocation; verdicts go to stdout as text or, with
--json, as a schema-stable JSON report whose lists are in canonical order.
Exit codes: 0 for any computed verdict (including cutoff exhaustion and
no-witness results), 2 for usage, input or parse errors (including a non-UTF-8
file and an unwritable output path) and for running out of memory, also
while the report is printed, 3 for precondition violations such as an
erasing morphism; under --json each error also prints a JSON error report.

The commands form one static table, built once at import: each handler
declares its subcommand with the `_command` decorator, which adds the
system-file argument and the shared --json flag and attaches the handler and
its text renderer to the parsed arguments.  A handler returns the JSON
result for one loaded system, and the command's one renderer makes the lines
of the text report from that result alone, so the text states nothing the
JSON does not.  main() parses, loads, dispatches and prints the JSON report
under --json and the rendered text otherwise.  Each call
reads its file, but a system text is parsed once: language.py keeps the
system parsed from each text until clear_language_cache().
"""

import argparse
import json
import os
import sys
import time

from . import circularity, injectivity, interpretations, language, repetitiveness
from .errors import InvalidSystemError, PreconditionError
from .fileformat import parse_letter_map, parse_system, render_system
from .system import classify_letters, power_system, validate
from .words import format_word, parse_word


class _UsageError(Exception):
    """An argparse usage error: its parser, message and command (or None)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(self, message, self.get_default("command"))


_PARSER = _Parser(prog="df0l", description="Decision procedures for DF0L systems.")
_PARSER.add_argument("--json", action="store_true", default=False,
                     help="emit a JSON report")
_COMMANDS = _PARSER.add_subparsers(dest="command", required=True)
# --json is accepted both before and after the subcommand; the subparser
# copy must not clobber a value parsed at the top level
_JSON_AFTER = argparse.ArgumentParser(add_help=False)
_JSON_AFTER.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                         help="emit a JSON report")
# --json anywhere, with or without a value, for the report of a usage error
_JSON_ANYWHERE = argparse.ArgumentParser(add_help=False)
_JSON_ANYWHERE.add_argument("--json", nargs="?", default=argparse.SUPPRESS)


def _arg(*flags, **options):
    return flags, options


def _command(name, help, text, *arguments):
    """Declare subcommand `name`, with the system file and `arguments`
    (from _arg), handled by the decorated function, which returns the JSON
    result; text(result) gives the lines of the text report."""
    def declare(handler):
        parser = _COMMANDS.add_parser(name, parents=[_JSON_AFTER], help=help)
        parser.add_argument("file")
        for flags, options in arguments:
            parser.add_argument(*flags, **options)
        parser.set_defaults(command=name, handler=handler, text=text)
        return handler
    return declare


def _max_len(**options):
    return _arg("-L", "--max-len", type=int, dest="max_len", **options)


def _load(path):
    # utf-8-sig drops one leading byte-order mark, which some editors write
    try:
        with open(path, encoding="utf-8-sig") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidSystemError(f"cannot read {path}: {exc}") from exc
    system = language._SYSTEMS.get(text)
    if system is None:      # a text that fails to parse is not stored
        system = language._SYSTEMS[text] = parse_system(text)
    return system


def _word_text(word):
    """A word of a JSON result as text: its tokens, or ε if it is empty."""
    return word or "ε"


def _system_info(system):
    report = validate(system)
    return {
        "alphabet": list(system.alphabet.letters),
        "axioms": [format_word(w) for w in system.axioms],
        "pdf0l": report.is_pdf0l,
        "min_image_len": report.min_image_len,
        "max_image_len": report.max_image_len,
    }


def _language_text(result):
    return [f"{result['count']} words of length <= {result['max_len']}:",
            *("  " + _word_text(w) for w in result["words"])]


@_command("language", "enumerate language factors up to a length", _language_text,
          _max_len(required=True))
def _cmd_language(args, system):
    fs = language.factor_language(system, args.max_len)
    words = fs.all_words()
    return {"max_len": args.max_len, "count": len(words),
            "words": [format_word(w) for w in words]}


def _interpretations_text(result):
    return [f"{result['count']} minimal interpretation(s) of "
            f"{_word_text(result['word'])}:",
            *(f"  ({_word_text(i['s'])}, {_word_text(i['w'])}, {_word_text(i['t'])})"
              for i in result["interpretations"])]


@_command("interpretations", "minimal interpretations of a word", _interpretations_text,
          _arg("word", help="space-separated letter tokens, quoted"))
def _cmd_interpretations(args, system):
    u = parse_word(args.word)
    found = interpretations.minimal_interpretations(system, u)
    return {"word": format_word(u), "count": len(found),
            "interpretations": [
                {"s": format_word(i.s), "w": format_word(i.w), "t": format_word(i.t)}
                for i in found]}


def _sync_text(result):
    """The pair's verdict; letter is None in the weak mode, so the text
    names a letter for a strongly synchronizing pair only."""
    verdict = ("" if result["synchronizing"] else "not ") + f"{result['mode']}ly synchronizing"
    return [f"pair ({_word_text(result['left'])} | {_word_text(result['right'])}): "
            f"{verdict}" + (f" (letter {result['letter']})" if result["letter"] else "")
            + (" [vacuous: no interpretations]" if result["vacuous"] else "")]


@_command("sync", "synchronization test for a pair", _sync_text, _arg("left"),
          _arg("right"), _arg("--mode", choices=["weak", "strong"], default="weak"))
def _cmd_sync(args, system):
    left, right = parse_word(args.left), parse_word(args.right)
    admissible = interpretations.is_admissible(system, left, right)
    count = len(interpretations.minimal_interpretations(system, left + right))
    if args.mode == "weak":
        ok = interpretations.is_weakly_synchronizing(system, left, right)
        letter = None
    else:
        letter = interpretations.strong_sync_letter(system, left, right)
        ok = letter is not None
    return {"left": format_word(left), "right": format_word(right),
            "mode": args.mode, "synchronizing": ok, "admissible": admissible,
            "letter": letter, "interpretations": count, "vacuous": count == 0}


_WITNESS_LABEL = {"weak": "witness (not weakly synchronized)",
                  "strong": "witness pair (admissible, not strongly synchronizing)"}


def _threshold_text(result):
    mode = result["mode"]

    def show(item):
        """A word of the weak search, or a pair of the strong search."""
        return (_word_text(item) if mode == "weak"
                else f"({_word_text(item[0])} | {_word_text(item[1])})")

    if result["status"] == "found":
        lines = [f"{mode} circularity threshold: D = {result['D']}"]
        if result["witness"] is not None:
            lines.append(f"{_WITNESS_LABEL[mode]}: {show(result['witness'])}")
        return lines
    if result["status"] == "not_strongly_circular":
        rep = result["repetition"]
        return ["not strongly circular: unboundedly repetitive with witness "
                f"{_word_text(rep['witness'])} (letter {rep['letter']}, "
                f"power {rep['power']}, exponent {rep['exponent']})"]
    return [f"cutoff {result['last_level']} exceeded; sample survivors:",
            *("  " + show(item) for item in result["survivors"])]


@_command("threshold", "weak or strong circularity threshold search", _threshold_text,
          _arg("--mode", choices=["weak", "strong"], required=True),
          _arg("--cutoff", type=int, default=30))
def _cmd_threshold(args, system):
    search = (circularity.weak_threshold if args.mode == "weak"
              else circularity.strong_threshold)
    report = search(system, args.cutoff)

    def show(item):
        """A word of the weak search, or a pair of the strong search."""
        return format_word(item) if report.mode == "weak" else list(map(format_word, item))

    rep = report.repetition
    return {"mode": report.mode, "status": report.status, "D": report.threshold,
            "witness": None if report.witness is None else show(report.witness),
            "last_level": report.last_level,
            "survivors": None if report.survivors is None
            else list(map(show, report.survivors)),
            "repetition": None if rep is None else _repetition_result(rep),
            "cutoff": args.cutoff}


def _power_text(result):
    output = result["output"]
    return [result["rendered"].rstrip("\n")] if not output else [f"wrote {output}"]


@_command("power", "k-th power of the system", _power_text,
          _arg("-k", type=int, required=True), _arg("-o", "--output"))
def _cmd_power(args, system):
    powered = power_system(system, args.k)
    text = render_system(powered)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise InvalidSystemError(f"cannot write {args.output}: {exc}") from exc
    return {"k": args.k, "axioms": [format_word(w) for w in powered.axioms],
            "rendered": text, "output": args.output}


def _letters_text(result):
    return [
        "bounded letters:   " + (" ".join(result["bounded"]) or "(none)"),
        "unbounded letters: " + (" ".join(result["unbounded"]) or "(none)"),
        f"invariant exponent: {result['invariant_exponent']}",
        "minimal invariant subalphabets: "
        + (", ".join("{" + " ".join(b) + "}"
                     for b in result["minimal_invariant_subalphabets"]) or "(none)"),
    ]


@_command("letters", "bounded/unbounded letters and invariant subalphabets", _letters_text)
def _cmd_letters(args, system):
    growth = classify_letters(system.morphism)
    return {"bounded": list(growth.bounded), "unbounded": list(growth.unbounded),
            "invariant_exponent": growth.invariant_exponent,
            "minimal_invariant_subalphabets": [
                list(b) for b in growth.minimal_invariant_subalphabets]}


def _repetition_result(verdict):
    return {"status": "repetitive" if verdict.repetitive else "no_witness",
            "letter": verdict.letter, "power": verdict.power,
            "witness": None if verdict.witness is None else format_word(verdict.witness),
            "exponent": verdict.exponent,
            "period_bound": verdict.period_bound,
            "power_bound": verdict.power_bound}


def _repetitive_text(result):
    if result["status"] == "repetitive":
        return [f"unboundedly repetitive: letter {result['letter']}, "
                f"power {result['power']}, witness {_word_text(result['witness'])}, "
                f"exponent {result['exponent']}"]
    return [f"no witness up to period {result['period_bound']} "
            f"and power {result['power_bound']} (not a proof of absence)"]


@_command("repetitive", "unbounded-repetitiveness detector", _repetitive_text,
          _arg("--period-bound", type=int, default=None, dest="period_bound"))
def _cmd_repetitive(args, system):
    return _repetition_result(
        repetitiveness.detect_unbounded_repetitive(system, args.period_bound))


def _delta_text(result):
    return [f"{result['count']} collision pair(s) up to length {result['max_len']}; "
            f"delta lower bound {result['delta_lower_bound']}:",
            *(f"  {{{_word_text(u)}, {_word_text(v)}}}" for u, v in result["pairs"])]


@_command("delta", "injectivity collisions up to a length", _delta_text,
          _max_len(required=True))
def _cmd_delta(args, system):
    pairs = injectivity.collisions_upto(system, args.max_len)
    return {"max_len": args.max_len, "count": len(pairs),
            "pairs": [[format_word(p.u), format_word(p.v)] for p in pairs],
            "delta_lower_bound": injectivity._delta_bound(system, pairs)}


def _twined_text(result):
    if not result["twined"]:
        return [f"twined: no (first failing letter: {result['failure']})"]
    return ["twined: yes", "commutation: ok",
            f"language check: {'ok' if result['language_check'] else 'FAILED'}"]


@_command("twined", "verify a twined pair of morphisms", _twined_text, _arg("file2"),
          _arg("--alpha", required=True, help='rules like "a -> x; b -> x y"'),
          _arg("--beta", required=True),
          _max_len(default=4, help="echoed in the JSON report only: both checks are exact"))
def _cmd_twined(args, system):
    other = _load(args.file2)
    alpha = parse_letter_map(args.alpha, system.alphabet, other.alphabet)
    beta = parse_letter_map(args.beta, other.alphabet, system.alphabet)
    data = injectivity.TwinedData(system.morphism, other.morphism, alpha, beta)
    failure = injectivity.find_twined_failure(data)
    twined = failure is None
    language_ok = None
    if twined:
        language_ok = injectivity.simplification_language_check(
            system, other, alpha, beta)
    # twining implies commutation (fact 3 of the injectivity docstring)
    return {"twined": twined, "failure": failure, "commutation": twined or None,
            "language_check": language_ok, "max_len": args.max_len}


def _parse_known_args(argv):
    """What _PARSER.parse_known_args(argv) returns.  When argv starts with a
    command name, after at most one --json, that command's parser alone
    runs, in one pass; help, a missing or unknown command and any other
    argument before the command go through _PARSER."""
    leading_json = argv[:1] == ["--json"]
    command = argv[leading_json:leading_json + 1]
    parser = _COMMANDS.choices.get(command[0]) if command else None
    if parser is None:
        return _PARSER.parse_known_args(argv)
    return parser.parse_known_args(argv[leading_json + 1:],
                                   argparse.Namespace(json=leading_json))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args, extra = _parse_known_args(argv)
        if extra:       # parse_args's own error, here with the parsed command
            raise _UsageError(_PARSER, f"unrecognized arguments: {' '.join(extra)}",
                              args.command)
    except _UsageError as exc:
        parser, message, command = exc.args
        if "json" in vars(_JSON_ANYWHERE.parse_known_args(argv)[0]):
            _emit_error(True, command, message, 2)
        argparse.ArgumentParser.error(parser, message)      # usage, SystemExit(2)
    started = time.monotonic()
    try:
        system = _load(args.file)
        result = args.handler(args, system)
        elapsed_ms = round((time.monotonic() - started) * 1000, 3)
        if args.json:
            print(json.dumps({"command": args.command, "system": _system_info(system),
                              "result": result, "elapsed_ms": elapsed_ms},
                             sort_keys=True, ensure_ascii=False))
        else:
            print(*args.text(result), sep="\n")
    except InvalidSystemError as exc:
        return _emit_error(args.json, args.command, str(exc), 2)
    except PreconditionError as exc:
        return _emit_error(args.json, args.command, str(exc), 3)
    except MemoryError:     # what it held is freed once the handler has unwound
        return _emit_error(args.json, args.command, "out of memory", 2)
    return 0


def console_main() -> int:
    """Console entry point: main() that ends quietly with status 1 when the
    reader of standard output goes away, as in `df0l ... | head`."""
    try:
        code = main()
        # flush here so that a closed pipe raises inside the try block
        sys.stdout.flush()
    except BrokenPipeError:
        # Python flushes standard streams on exit; point stdout at devnull
        # so that the shutdown flush does not raise a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


def _emit_error(as_json, command, message, code):
    if as_json:
        print(json.dumps({"command": command,
                          "error": {"message": message, "exit_code": code}},
                         sort_keys=True, ensure_ascii=False))
    else:
        print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(console_main())
