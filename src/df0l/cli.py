"""Command-line interface.

One system file per invocation; verdicts go to stdout as text or, with
--json, as a schema-stable JSON report whose lists are in canonical order.
Exit codes: 0 for any computed verdict (including cutoff exhaustion and
no-witness results), 2 for input or parse errors, 3 for precondition
violations such as an erasing morphism.
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


def _load(path):
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
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


def _cmd_language(args, system):
    fs = language.factor_language(system, args.max_len)
    words = fs.all_words()
    result = {"max_len": args.max_len, "count": len(words),
              "words": [format_word(w) for w in words]}
    lines = [f"{len(words)} words of length <= {args.max_len}:"]
    lines += ["  " + _word_text(w) for w in words]
    return result, lines


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


def _threshold_result(report):
    result = {"mode": report.mode, "status": report.status,
              "D": report.threshold, "witness": None, "last_level": report.last_level,
              "survivors": None, "repetition": None}
    if report.witness_word is not None:
        result["witness"] = format_word(report.witness_word)
    if report.witness_pair is not None:
        result["witness"] = [format_word(report.witness_pair[0]),
                             format_word(report.witness_pair[1])]
    if report.survivors is not None:
        if report.mode == "weak":
            result["survivors"] = [format_word(w) for w in report.survivors]
        else:
            result["survivors"] = [[format_word(a), format_word(b)]
                                   for a, b in report.survivors]
    if report.repetition is not None:
        result["repetition"] = _repetition_result(report.repetition)
    return result


def _cmd_threshold(args, system):
    if args.mode == "weak":
        report = circularity.weak_threshold(system, args.cutoff)
    else:
        report = circularity.strong_threshold(system, args.cutoff)
    result = _threshold_result(report)
    result["cutoff"] = args.cutoff
    if report.status == "found":
        lines = [f"{report.mode} circularity threshold: D = {report.threshold}"]
        if report.witness_word is not None:
            lines.append(f"witness (not weakly synchronized): "
                         f"{_word_text(report.witness_word)}")
        if report.witness_pair is not None:
            a, b = report.witness_pair
            lines.append(f"witness pair (admissible, not strongly synchronizing): "
                         f"({_word_text(a)} | {_word_text(b)})")
    elif report.status == "not_strongly_circular":
        rep = report.repetition
        lines = ["not strongly circular: unboundedly repetitive with witness "
                 f"{_word_text(rep.witness)} (letter {rep.letter}, power {rep.power}, "
                 f"exponent {rep.exponent})"]
    else:
        lines = [f"cutoff {report.last_level} exceeded; sample survivors:"]
        for item in report.survivors:
            if report.mode == "weak":
                lines.append("  " + _word_text(item))
            else:
                lines.append(f"  ({_word_text(item[0])} | {_word_text(item[1])})")
    return result, lines


def _cmd_power(args, system):
    powered = power_system(system, args.k)
    text = render_system(powered)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    result = {"k": args.k, "axioms": [format_word(w) for w in powered.axioms],
              "rendered": text, "output": args.output}
    lines = [text.rstrip("\n")] if not args.output else [f"wrote {args.output}"]
    return result, lines


def _cmd_letters(args, system):
    system.require_pdf0l()
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


_HANDLERS = {
    "language": _cmd_language,
    "interpretations": _cmd_interpretations,
    "sync": _cmd_sync,
    "threshold": _cmd_threshold,
    "power": _cmd_power,
    "letters": _cmd_letters,
    "repetitive": _cmd_repetitive,
    "delta": _cmd_delta,
    "twined": _cmd_twined,
}


def build_parser():
    # --json is accepted both before and after the subcommand; the subparser
    # copy must not clobber a value parsed at the top level
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="emit a JSON report")

    parser = argparse.ArgumentParser(
        prog="df0l", description="Decision procedures for DF0L systems.")
    parser.add_argument("--json", action="store_true", default=False,
                        help="emit a JSON report")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("language", parents=[common],
                       help="enumerate language factors up to a length")
    p.add_argument("file")
    p.add_argument("-L", "--max-len", type=int, required=True, dest="max_len")

    p = sub.add_parser("interpretations", parents=[common],
                       help="minimal interpretations of a word")
    p.add_argument("file")
    p.add_argument("word", help="space-separated letter tokens, quoted")

    p = sub.add_parser("sync", parents=[common],
                       help="synchronization test for a pair")
    p.add_argument("file")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--mode", choices=["weak", "strong"], default="weak")

    p = sub.add_parser("threshold", parents=[common],
                       help="weak or strong circularity threshold search")
    p.add_argument("file")
    p.add_argument("--mode", choices=["weak", "strong"], required=True)
    p.add_argument("--cutoff", type=int, default=30)

    p = sub.add_parser("power", parents=[common], help="k-th power of the system")
    p.add_argument("file")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-o", "--output")

    p = sub.add_parser("letters", parents=[common],
                       help="bounded/unbounded letters and invariant subalphabets")
    p.add_argument("file")

    p = sub.add_parser("repetitive", parents=[common],
                       help="unbounded-repetitiveness detector")
    p.add_argument("file")
    p.add_argument("--period-bound", type=int, default=None, dest="period_bound")

    p = sub.add_parser("delta", parents=[common],
                       help="injectivity collisions up to a length")
    p.add_argument("file")
    p.add_argument("-L", "--max-len", type=int, required=True, dest="max_len")

    p = sub.add_parser("twined", parents=[common],
                       help="verify a twined pair of morphisms")
    p.add_argument("file")
    p.add_argument("file2")
    p.add_argument("--alpha", required=True, help='rules like "a -> x; b -> x y"')
    p.add_argument("--beta", required=True)
    p.add_argument("-L", "--max-len", type=int, default=4, dest="max_len")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        system = _load(args.file)
        result, lines = _HANDLERS[args.command](args, system)
    except InvalidSystemError as exc:
        _emit_error(args, str(exc), 2)
        return 2
    except PreconditionError as exc:
        _emit_error(args, str(exc), 3)
        return 3
    elapsed_ms = round((time.monotonic() - started) * 1000, 3)
    if args.json:
        payload = {"command": args.command, "system": _system_info(system),
                   "result": result, "elapsed_ms": elapsed_ms}
        print(json.dumps(payload, sort_keys=True, ensure_ascii=False))
    else:
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


def _emit_error(args, message, code):
    if getattr(args, "json", False):
        print(json.dumps({"command": args.command,
                          "error": {"message": message, "exit_code": code}},
                         sort_keys=True, ensure_ascii=False))
    else:
        print(f"error: {message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(console_main())
