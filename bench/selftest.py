"""Self-test of the benchmark at smoke size.

    python3 bench/selftest.py

Asserts that every workload prints every end-to-end metric by name with its
unit, that the traced run prints every per-layer metric, that the metric
lists agree with BENCHMARK.json, and that a deliberately wrong reference
answer makes failed_share greater than 0 on every workload.
"""

import contextlib
import io
import json
import os

import common
import deep_language
import references
import run
from tracing import LAYER_METRICS

WORKLOADS = ("census", "deep_language", "sync_queries")


def smoke(workload, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(["--workload", workload, "--seed", "7", "--seconds", "1",
                         "--trace", str(trace)], scale="smoke")
    lines = out.getvalue().splitlines()
    assert code == 0, (workload, code)
    return lines, json.loads(lines[-1])


def assert_printed(workload, lines, result, units):
    assert set(result["metrics"]) == set(units), (workload, sorted(result["metrics"]))
    aliases = run.WORKLOADS[workload].aliases
    printed = {tuple(line.split()[:3:2]) for line in lines[:-1]}
    for key, unit in units.items():
        assert result["metrics"][key]["unit"] == unit, (workload, key)
        assert (aliases.get(key, key), unit) in printed, (workload, key, unit)
    assert ("failed_share", "share") in printed, workload


@contextlib.contextmanager
def patched(owner, key, value):
    """Temporarily replace owner[key] (a dict entry) or owner.key."""
    if isinstance(owner, dict):
        saved, owner[key] = owner[key], value
    else:
        saved = getattr(owner, key)
        setattr(owner, key, value)
    try:
        yield
    finally:
        if isinstance(owner, dict):
            owner[key] = saved
        else:
            setattr(owner, key, saved)


def wrong_reference(workload):
    """A context in which one reference answer of the workload is wrong."""
    if workload == "census":
        return patched(references.SAMPLE_VERDICTS["thue_morse"], "weak",
                       references._threshold("weak", "found", 4))
    if workload == "deep_language":
        right = references.thue_morse_complexity
        return patched(deep_language.COMPLEXITY, "thue_morse", lambda n: right(n) + 1)
    right_apply = references.apply
    return patched(references, "apply", lambda images, word: right_apply(images, word) + "a")


def assert_matches_benchmark_json():
    with open(os.path.join(common.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == LAYER_METRICS


def main():
    assert_matches_benchmark_json()
    layer_units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
    for workload in WORKLOADS:
        lines, result = smoke(workload, 0)
        assert_printed(workload, lines, result, run.END_TO_END)
        assert result["correct"] and result["failed"] == 0, (workload, lines)
        lines, result = smoke(workload, 1)
        assert_printed(workload, lines, result, layer_units)
        assert result["correct"], (workload, lines)
        with wrong_reference(workload):
            _, result = smoke(workload, 0)
        assert result["failed"] > 0 and not result["correct"], (workload, result)
        print(f"selftest {workload}: metrics printed with units; "
              f"a wrong reference fails {result['failed']} of {result['attempted']}")
    print("selftest: PASS")


if __name__ == "__main__":
    main()
