"""Correctness references that do not come from the code under test.

Everything here works on plain strings of one-character letters, on closed
forms from the literature and on the verdicts stated in the README and the
acceptance tests, so a defect in df0l cannot hide in its own reference.
"""

import hashlib
import json


def read_images(text):
    """Letter images and axiom of a system file, parsed without df0l."""
    images, axiom = {}, None
    for line in text.splitlines():
        tokens = line.split("#", 1)[0].split()
        if tokens[:1] == ["map"]:
            images[tokens[1]] = "".join(tokens[3:])
        elif tokens[:1] == ["axiom:"]:
            axiom = "".join(tokens[1:])
    return images, axiom


def iterates(images, axiom, min_len):
    """The iterates axiom, phi(axiom), ... up to and including the first one
    with at least min_len letters.  images maps a letter to a string."""
    words = [axiom]
    while len(words[-1]) < min_len:
        nxt = "".join(images[c] for c in words[-1])
        if len(nxt) <= len(words[-1]):
            raise ValueError(f"iterates of {axiom!r} stop growing at {len(nxt)} letters")
        words.append(nxt)
    return words


def apply(images, word):
    return "".join(images[c] for c in word)


def occurs(word, texts):
    """Membership by substring search in reference texts.  The texts are
    long iterates chosen so that every language factor of the queried
    lengths occurs in them (see README.md, "References")."""
    return any(word in text for text in texts)


def thue_morse_complexity(n):
    """Number of Thue-Morse factors of length n (Brlek 1989; de Luca and
    Varricchio 1989): for n = 2^r + q + 1 with 0 < q <= 2^r it is
    3*2^r + 4q when q <= 2^(r-1), else 4*2^r + 2q."""
    if n < 3:
        return (1, 2, 4)[n]
    r = (n - 2).bit_length() - 1
    q = n - 1 - (1 << r)
    return 3 * (1 << r) + 4 * q if 2 * q <= (1 << r) else 4 * (1 << r) + 2 * q


def fibonacci_complexity(n):
    """The Fibonacci word is Sturmian: n + 1 factors of each length n."""
    return n + 1


def digest(payload):
    """Digest of a --json report with its timing field removed."""
    stable = {k: v for k, v in payload.items() if k != "elapsed_ms"}
    text = json.dumps(stable, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def combine(digests):
    return hashlib.sha256("|".join(digests).encode("ascii")).hexdigest()[:16]


def _threshold(mode, status, d=None):
    def check(result):
        if result["mode"] != mode or result["status"] != status:
            return f"{mode} status {result['status']}, expected {status}"
        if d is not None and result["D"] != d:
            return f"{mode} D = {result['D']}, expected {d}"
        return None
    return check


def _letters(bounded, unbounded):
    def check(result):
        if result["bounded"] != bounded or result["unbounded"] != unbounded:
            return f"letters {result['bounded']}/{result['unbounded']}"
        return None
    return check


def _repetition(status, root=None):
    def check(result):
        if result["status"] != status:
            return f"repetitive status {result['status']}, expected {status}"
        if root is not None:
            witness = "".join(result["witness"].split())
            if len(witness) % len(root) or witness not in (root + root) * len(witness):
                return f"repetition witness {witness} is not a power of a conjugate of {root}"
        return None
    return check


def _delta(bound):
    def check(result):
        if result["delta_lower_bound"] != bound:
            return f"delta lower bound {result['delta_lower_bound']}, expected {bound}"
        return None
    return check


def _twined(result):
    if not (result["twined"] and result["commutation"] and result["language_check"]):
        return f"twined verdict {result}"
    return None


# Verdicts of the sample systems, keyed by file stem and survey step, as the
# README and the acceptance tests state them (Thue-Morse being overlap-free
# has no repetition certificate and, its morphism being injective, no
# collision).
SAMPLE_VERDICTS = {
    "thue_morse": {
        "letters": _letters([], ["a", "b"]),
        "repetitive": _repetition("no_witness"),
        "weak": _threshold("weak", "found", 3),
        "strong": _threshold("strong", "found", 1),
        "delta": _delta(0),
    },
    "collapse_bounded_delta": {
        "weak": _threshold("weak", "found", 3),
        "strong": _threshold("strong", "found", 3),
        "delta": _delta(11),
        "twined": _twined,
    },
    "collapse_unbounded_delta": {
        "weak": _threshold("weak", "found", 3),
        "strong": _threshold("strong", "found", 9),
    },
    "repetitive_square": {
        "repetitive": _repetition("repetitive", "bc"),
        "weak": _threshold("weak", "found", 1),
        "strong": _threshold("strong", "not_strongly_circular"),
    },
    "two_fixed_letters": {
        "letters": _letters(["c", "d"], ["a", "b"]),
    },
}
