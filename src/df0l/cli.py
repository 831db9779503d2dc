"""Command-line interface.

One system file per invocation; verdicts go to stdout as text or, with
--json, as a schema-stable JSON report whose lists are in canonical order.
Exit codes: 0 for any computed verdict (including cutoff exhaustion and
no-witness results), 2 for usage, input or parse errors (including a non-UTF-8
file and an unwritable output path), 3 for precondition violations such as
an erasing morphism; under --json each error also prints a JSON error report.

The commands form one static table, built once at import: each handler
declares its subcommand with the `_command` decorator, which adds the
system-file argument and the shared --json flag and attaches the handler to
the parsed arguments.  A handler returns (JSON result, text lines) for one
loaded system, and main() parses, loads, dispatches and prints.
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


def _command(name, help, *arguments):
    """Declare subcommand `name`, with the system file and `arguments`
    (from _arg), handled by the decorated function."""
    def declare(handler):
        parser = _COMMANDS.add_parser(name, parents=[_JSON_AFTER], help=help)
        parser.add_argument("file")
        for flags, options in arguments:
            parser.add_argument(*flags, **options)
        parser.set_defaults(command=name, handler=handler)
        return handler
    return declare


def _max_len(**options):
    return _arg("-L", "--max-len", type=int, dest="max_len", **options)


def _load(path):
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidSystemError(f"cannot read {path}: {exc}") from exc
    return parse_system(text)


def _word_text(word):
    return format_word(word) or "ε"


def _system_info(system):
    report = validate(system)
    return {
        "alphabet": list(system.alphabet.letters),
        "axioms": [format_word(w) for w in system.axioms],
        "pdf0l": report.is_pdf0l,
        "min_image_len": report.min_image_len,
        "max_image_len": report.max_image_len,
    }


@_command("language", "enumerate language factors up to a length",
          _max_len(required=True))
def _cmd_language(args, system):
    fs = language.factor_language(system, args.max_len)
    words = fs.all_words()
    result = {"max_len": args.max_len, "count": len(words),
              "words": [format_word(w) for w in words]}
    lines = [f"{len(words)} words of length <= {args.max_len}:"]
    lines += ["  " + _word_text(w) for w in words]
    return result, lines


@_command("interpretations", "minimal interpretations of a word",
          _arg("word", help="space-separated letter tokens, quoted"))
def _cmd_interpretations(args, system):
    u = parse_word(args.word)
    found = interpretations.minimal_interpretations(system, u)
    result = {"word": format_word(u), "count": len(found),
              "interpretations": [
                  {"s": format_word(i.s), "w": format_word(i.w), "t": format_word(i.t)}
                  for i in found]}
    lines = [f"{len(found)} minimal interpretation(s) of {_word_text(u)}:"]
    lines += [f"  ({_word_text(i.s)}, {_word_text(i.w)}, {_word_text(i.t)})"
              for i in found]
    return result, lines


@_command("sync", "synchronization test for a pair", _arg("left"), _arg("right"),
          _arg("--mode", choices=["weak", "strong"], default="weak"))
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
    result = {"left": format_word(left), "right": format_word(right),
              "mode": args.mode, "synchronizing": ok, "admissible": admissible,
              "letter": letter, "interpretations": count, "vacuous": count == 0}
    verdict = f"{args.mode}ly synchronizing" if ok else f"not {args.mode}ly synchronizing"
    lines = [f"pair ({_word_text(left)} | {_word_text(right)}): {verdict}"
             + (f" (letter {letter})" if letter and args.mode == "strong" else "")
             + (" [vacuous: no interpretations]" if count == 0 else "")]
    return result, lines


_WITNESS_LABEL = {"weak": "witness (not weakly synchronized)",
                  "strong": "witness pair (admissible, not strongly synchronizing)"}


@_command("threshold", "weak or strong circularity threshold search",
          _arg("--mode", choices=["weak", "strong"], required=True),
          _arg("--cutoff", type=int, default=30))
def _cmd_threshold(args, system):
    search = (circularity.weak_threshold if args.mode == "weak"
              else circularity.strong_threshold)
    report = search(system, args.cutoff)
    weak = report.mode == "weak"

    def show(item, text):
        """A word of the weak search or a pair of the strong search, as text
        or as JSON."""
        word = _word_text if text else format_word
        if weak:
            return word(item)
        left, right = word(item[0]), word(item[1])
        return f"({left} | {right})" if text else [left, right]

    witness = report.witness_word if weak else report.witness_pair
    survivors = report.survivors
    rep = report.repetition
    result = {"mode": report.mode, "status": report.status, "D": report.threshold,
              "witness": None if witness is None else show(witness, False),
              "last_level": report.last_level,
              "survivors": None if survivors is None
              else [show(item, False) for item in survivors],
              "repetition": None if rep is None else _repetition_result(rep),
              "cutoff": args.cutoff}
    if report.status == "found":
        lines = [f"{report.mode} circularity threshold: D = {report.threshold}"]
        if witness is not None:
            lines.append(f"{_WITNESS_LABEL[report.mode]}: {show(witness, True)}")
    elif report.status == "not_strongly_circular":
        lines = ["not strongly circular: unboundedly repetitive with witness "
                 f"{_word_text(rep.witness)} (letter {rep.letter}, power {rep.power}, "
                 f"exponent {rep.exponent})"]
    else:
        lines = [f"cutoff {report.last_level} exceeded; sample survivors:"]
        lines += ["  " + show(item, True) for item in survivors]
    return result, lines


@_command("power", "k-th power of the system",
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
    result = {"k": args.k, "axioms": [format_word(w) for w in powered.axioms],
              "rendered": text, "output": args.output}
    lines = [text.rstrip("\n")] if not args.output else [f"wrote {args.output}"]
    return result, lines


@_command("letters", "bounded/unbounded letters and invariant subalphabets")
def _cmd_letters(args, system):
    growth = classify_letters(system.morphism)
    result = {"bounded": list(growth.bounded), "unbounded": list(growth.unbounded),
              "invariant_exponent": growth.invariant_exponent,
              "minimal_invariant_subalphabets": [
                  list(b) for b in growth.minimal_invariant_subalphabets]}
    lines = [
        "bounded letters:   " + (" ".join(growth.bounded) or "(none)"),
        "unbounded letters: " + (" ".join(growth.unbounded) or "(none)"),
        f"invariant exponent: {growth.invariant_exponent}",
        "minimal invariant subalphabets: "
        + (", ".join("{" + " ".join(b) + "}"
                     for b in growth.minimal_invariant_subalphabets) or "(none)"),
    ]
    return result, lines


def _repetition_result(verdict):
    return {"status": "repetitive" if verdict.repetitive else "no_witness",
            "letter": verdict.letter, "power": verdict.power,
            "witness": None if verdict.witness is None else format_word(verdict.witness),
            "exponent": verdict.exponent,
            "period_bound": verdict.period_bound,
            "power_bound": verdict.power_bound}


@_command("repetitive", "unbounded-repetitiveness detector",
          _arg("--period-bound", type=int, default=None, dest="period_bound"))
def _cmd_repetitive(args, system):
    verdict = repetitiveness.detect_unbounded_repetitive(system, args.period_bound)
    result = _repetition_result(verdict)
    if verdict.repetitive:
        lines = [f"unboundedly repetitive: letter {verdict.letter}, "
                 f"power {verdict.power}, witness {_word_text(verdict.witness)}, "
                 f"exponent {verdict.exponent}"]
    else:
        lines = [f"no witness up to period {verdict.period_bound} "
                 f"and power {verdict.power_bound} (not a proof of absence)"]
    return result, lines


@_command("delta", "injectivity collisions up to a length", _max_len(required=True))
def _cmd_delta(args, system):
    pairs = injectivity.collisions_upto(system, args.max_len)
    bound, count = injectivity._delta_bound(system, pairs), len(pairs)
    result = {"max_len": args.max_len, "count": count,
              "pairs": [[format_word(p.u), format_word(p.v)] for p in pairs],
              "delta_lower_bound": bound}
    lines = [f"{count} collision pair(s) up to length {args.max_len}; "
             f"delta lower bound {bound}:"]
    lines += [f"  {{{_word_text(p.u)}, {_word_text(p.v)}}}" for p in pairs]
    return result, lines


@_command("twined", "verify a twined pair of morphisms", _arg("file2"),
          _arg("--alpha", required=True, help='rules like "a -> x; b -> x y"'),
          _arg("--beta", required=True), _max_len(default=4))
def _cmd_twined(args, system):
    other = _load(args.file2)
    alpha = parse_letter_map(args.alpha, system.alphabet, other.alphabet)
    beta = parse_letter_map(args.beta, other.alphabet, system.alphabet)
    data = injectivity.TwinedData(system.morphism, other.morphism, alpha, beta)
    failure = injectivity.find_twined_failure(data)
    twined = failure is None
    commutation = None
    language_ok = None
    if twined:
        samples = [(a,) for a in system.alphabet] + list(system.axioms)
        commutation = all(
            injectivity.twined_commutation_check(data, k, samples)
            for k in range(1, 4))
        language_ok = injectivity.simplification_language_check(
            system, other, alpha, beta, args.max_len)
    result = {"twined": twined, "failure": failure, "commutation": commutation,
              "language_check": language_ok, "max_len": args.max_len}
    if twined:
        lines = ["twined: yes",
                 f"commutation (k<=3): {'ok' if commutation else 'FAILED'}",
                 f"language check (L={args.max_len}): "
                 f"{'ok' if language_ok else 'FAILED'}"]
    else:
        lines = [f"twined: no (first failing letter: {failure})"]
    return result, lines


def main(argv=None) -> int:
    try:
        args, extra = _PARSER.parse_known_args(argv)
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
        result, lines = args.handler(args, system)
    except InvalidSystemError as exc:
        return _emit_error(args.json, args.command, str(exc), 2)
    except PreconditionError as exc:
        return _emit_error(args.json, args.command, str(exc), 3)
    elapsed_ms = round((time.monotonic() - started) * 1000, 3)
    if args.json:
        lines = [json.dumps({"command": args.command, "system": _system_info(system),
                             "result": result, "elapsed_ms": elapsed_ms},
                            sort_keys=True, ensure_ascii=False)]
    for line in lines:
        print(line)
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
