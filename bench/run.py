"""df0l benchmark.

    python3 bench/run.py --workload census --seed 0 --seconds 30 --trace 0

Runs one workload (census, deep_language or sync_queries; see README.md in
this directory) as a single-threaded closed loop with one client, against
the df0l sources of this checkout.  With --trace 0 it prints every
end-to-end metric; with --trace 1 it wraps the public layer functions and
prints the per-layer metrics and the tracing overhead instead.  Every answer
is checked as it is produced.  Timings are scaled to a reference host speed
read off a calibration kernel (common.Speed).  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import time
from statistics import median

import common
from common import OUT_DIR, Tally
from census import Census
from deep_language import DeepLanguage
from sync_queries import SyncQueries
from tracing import LAYER_METRICS, Tracer, layer_metrics

SCALES = {
    "full": {"census_systems": 200, "deep_max_len": 300, "deep_queries": 30000,
             "sync_queries": 1500, "sync_max_len": 80},
    "smoke": {"census_systems": 12, "deep_max_len": 40, "deep_queries": 300,
              "sync_queries": 28, "sync_max_len": 16},
}
WORKLOADS = {"census": Census, "deep_language": DeepLanguage,
             "sync_queries": SyncQueries}
DEFAULT_SEED = 0
SETUP_REPEATS = 5
GOLDEN = os.path.join(common.BENCH_DIR, "golden.json")

# End-to-end metrics: key -> unit.  Each workload prints them under its own
# names too (the workload's aliases).
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "build_s": "s",
    "decided_share": "share",
}


def set_up(df0l, cls, seed, scale, workdir, repeats, speed):
    """Set the workload up from cleared caches: once to warm the process up,
    then `repeats` timed times.  Keep the last.  Returns it with the timed
    set-ups and the builds they made, each as (start, seconds)."""
    golden = None
    if seed == DEFAULT_SEED and scale == "full":
        with open(GOLDEN, encoding="utf-8") as handle:
            golden = json.load(handle)
    times, builds, workload = [], [], None
    for _ in range(1 + repeats):
        workload = None
        df0l.clear_language_cache()
        df0l.clear_interpretation_cache()
        gc.collect()
        speed.calibrate()
        started = time.perf_counter()
        workload = cls(df0l, seed, SCALES[scale], workdir, golden)
        times.append((started, time.perf_counter() - started))
        speed.calibrate()
        if hasattr(workload, "setup_build"):
            builds.append(workload.setup_build)
    gc.collect()
    builds = {"setup": builds[1:]} if builds else {}
    return workload, times[1:], builds


def run_pass(workload, tally, first_pass, tracer=None):
    workload.start_pass(tally)
    for index in range(len(workload)):
        if tracer is not None:
            tracer.op = index
        workload.run_unit(index, tally, first_pass)


def measure(workload, seconds, speed):
    """Run whole passes over the workload's units until the run has covered
    `seconds`, to within half a pass; at least one pass."""
    tally = Tally(speed)
    passes = 0
    speed.calibrate()
    started = time.perf_counter()
    while True:
        run_pass(workload, tally, not passes)
        passes += 1
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / passes / 2 >= seconds:
            speed.calibrate()
            return tally, passes, elapsed


def timings(latencies, passes, pct):
    """Throughput and median over every timing of the run; the tail over
    each operation's median of its timings in the passes, so that one
    interrupted timing does not make a tail."""
    per_pass = len(latencies) // passes
    per_op = [median(latencies[i::per_pass]) for i in range(per_pass)]
    return {"ops_per_s": len(latencies) / sum(latencies),
            "op_p50_ms": median(latencies) * 1000.0,
            "op_tail_ms": common.percentile(per_op, pct) * 1000.0}


def end_to_end(workload, tally, passes, setup, speed, peak_rss):
    """Every timing is scaled to the reference speed of the host-speed
    calibration (common.Speed).  setup_s is the median of the timed set-ups;
    the unscaled timings go into the notes."""
    setup_times, setup_builds = setup
    pct = workload.tail_pct
    scaled = speed.scaled_all(tally.starts, tally.latencies)
    builds = {name: [speed.scaled(*b) for b in runs] for name, runs in
              (setup_builds or tally.builds).items()}
    metrics = {
        "setup_s": median(speed.scaled(*t) for t in setup_times),
        "peak_rss_mb": peak_rss,
        **timings(scaled, passes, pct),
        "build_s": workload.build_seconds(builds),
        "decided_share": tally.decided / (tally.decided + tally.undecided),
    }
    raw = {"setup_s": median(t for _, t in setup_times),
           **timings(tally.latencies, passes, pct),
           "build_s": workload.build_seconds(
               {name: [t for _, t in runs] for name, runs in
                (setup_builds or tally.builds).items()})}
    per_pass = len(scaled) // passes
    beyond = per_pass * (100 - pct) / 100
    notes = {key: f"unscaled {value:.6g}" for key, value in raw.items()}
    notes["op_tail_ms"] += (f"; p{pct:g} of the {per_pass} operations' medians over "
                            f"{passes} passes, about {beyond:.0f} beyond it")
    kernel = median(speed.kernel)
    notes["calibration"] = (f"kernel median {kernel * 1e6:.1f} us over {len(speed.kernel)} "
                            f"calibrations, reference {speed.REFERENCE_S * 1e6:.1f} us")
    return metrics, notes


def traced_passes(df0l, workload, seconds, speed):
    """Alternate untraced and traced passes until `seconds` have passed.
    The pass times for the overhead are scaled to the reference speed."""
    started = time.perf_counter()
    untraced, traced, first, failures = [], [], None, []
    attempted = failed = 0
    while not traced or time.perf_counter() - started < seconds:
        for walls, tracer in ((untraced, None), (traced, Tracer(df0l))):
            tally = Tally(speed)
            pass_started = time.perf_counter()
            if tracer is None:
                run_pass(workload, tally, True)
            else:
                with tracer:
                    run_pass(workload, tally, True, tracer)
            speed.calibrate()
            walls.append(speed.scaled(pass_started, time.perf_counter() - pass_started))
            attempted, failed = attempted + tally.attempted, failed + tally.failed
            failures += tally.failures
            if tracer is not None and first is None:
                first = (tracer.spans, tally)
    spans, tally = first
    metrics = layer_metrics(spans, tally.json_bytes)
    overhead = median(traced) - median(untraced)
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_share"] = overhead / median(untraced)
    notes = {"trace.overhead_s": f"median traced pass {median(traced):.3f} s minus "
                                 f"median untraced pass {median(untraced):.3f} s "
                                 f"over {len(traced)} pair(s)"}
    return metrics, notes, spans, attempted, failed, failures[:20]


def write_spans(path, spans):
    with open(path, "w", encoding="utf-8") as handle:
        for index, (name, start, end, parent, op, work) in enumerate(spans):
            handle.write(json.dumps({"id": index, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op,
                                     "work": work}) + "\n")


def main(argv=None, scale="full"):
    parser = argparse.ArgumentParser(description="df0l benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    df0l = common.load_df0l()
    cls = WORKLOADS[args.workload]
    machine = common.machine_facts(args.seed)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    try:
        repeats = 1 if args.trace else getattr(cls, "setup_repeats", SETUP_REPEATS)
        speed = common.Speed()
        workload, *setup = set_up(df0l, cls, args.seed, scale, workdir, repeats, speed)
        gc.freeze()
        if args.trace:
            metrics, notes, spans, attempted, failed, failures = traced_passes(
                df0l, workload, args.seconds, speed)
            units = {name: LAYER_METRICS[name][0] for name in metrics}
            os.makedirs(os.path.join(OUT_DIR, "spans"), exist_ok=True)
            spans_path = os.path.join(OUT_DIR, "spans",
                                      f"{args.workload}-{scale}-seed{args.seed}.jsonl")
            write_spans(spans_path, spans)
            notes["spans"] = os.path.relpath(spans_path, common.ROOT)
            header = "trace on: per-layer metrics of the first traced pass"
        else:
            tally, passes, elapsed = measure(workload, args.seconds, speed)
            peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics, notes = end_to_end(workload, tally, passes, setup, speed, peak_rss)
            units = END_TO_END
            attempted, failed, failures = tally.attempted, tally.failed, tally.failures
            header = (f"trace off: measured {elapsed:.1f} s, {passes} passes; timings at "
                      f"the reference speed ({notes.pop('calibration')})")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"# df0l benchmark, workload {args.workload}, seed {args.seed}, "
          f"scale {scale}; {header}")
    print("# machine: " + ", ".join(f"{k} {v}" for k, v in machine.items()))
    for key, value in metrics.items():
        label = cls.aliases.get(key, key)
        line = f"{label:36s} {value:.6g} {units[key]}"
        if label != key:
            line += f"  [{key}]"
        if key in notes:
            line += f"  ({notes[key]})"
        print(line)
    print(f"{'failed_share':36s} {failed / attempted:.6g} share  "
          f"({failed} of {attempted} operations failed or answered wrongly)")
    for failure in failures:
        print(f"# FAILED {failure}", file=sys.stderr)

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    with open(os.path.join(OUT_DIR, "results", f"{args.workload}-{scale}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w", encoding="utf-8") as handle:
        json.dump({"workload": args.workload, "scale": scale, "machine": machine,
                   "notes": notes, "failures": failures, **result}, handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # df0l's sets and dicts hold strings, and string hashes change from
    # process to process: a fixed hash seed keeps that out of the timings
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    sys.exit(main())
