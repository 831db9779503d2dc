"""Shared pieces of the benchmark: locating the df0l sources of the checkout,
the host-speed calibration, the tally of one run, query lengths,
percentiles and the machine facts."""

import os
import sys
import time
from array import array
from bisect import bisect_left, bisect_right
from statistics import median

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SAMPLES = os.path.join(ROOT, "samples")
OUT_DIR = os.path.join(BENCH_DIR, "out")


def load_df0l():
    """Import df0l from this checkout's src/, never from an installed copy."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "df0l", "__init__.py")) \
            or not os.path.isdir(SAMPLES):
        raise SystemExit(f"error: {ROOT} is not a df0l checkout "
                         "(src/df0l and samples/ are missing)")
    if src not in sys.path:
        sys.path.insert(0, src)
    import df0l
    import df0l.cli  # noqa: F401  (the benchmark drives the CLI in process)
    if os.path.dirname(os.path.dirname(os.path.abspath(df0l.__file__))) != src:
        raise SystemExit(f"error: imported df0l from {df0l.__file__}, not from {src}")
    return df0l


def _kernel():
    """Fixed pure-Python work that neither allocates nor hashes.  Over eight
    processes it tracked a batch of census surveys to 11 % (quartile
    distance of their ratio), against 27 % for the batch alone; a kernel of
    tuple slices put into a set, closer to df0l's own work, tracked it only
    to 17 %."""
    total = 0
    for i in range(2000):
        total += i * i % 7
    return total


class Speed:
    """The host's speed through a run, read off a fixed calibration kernel.

    On a shared host other tenants slow everything down together, for
    stretches of seconds to minutes, and by up to a half.  The kernel is
    timed between operations, at most every EVERY_S seconds, and every timing
    is scaled to a host on which the kernel takes REFERENCE_S: an operation
    that took t while the kernel took k around it is reported as
    t * REFERENCE_S / k.  A change to df0l moves the operations and not the
    kernel, so it shows in full."""

    REFERENCE_S = 0.000150
    EVERY_S = 0.1
    REPEATS = 9
    NEAR_S = 0.5   # calibrations this close to an operation describe it

    def __init__(self):
        self.at = array("d")      # when each calibration ended
        self.kernel = array("d")  # median kernel seconds of each calibration
        self.due = 0.0

    def calibrate(self):
        times = []
        for _ in range(self.REPEATS):
            started = time.perf_counter()
            _kernel()
            times.append(time.perf_counter() - started)
        now = time.perf_counter()
        self.at.append(now)
        self.kernel.append(median(times))
        self.due = now + self.EVERY_S

    def tick(self, now):
        """Calibrate if the last calibration is EVERY_S old."""
        if now >= self.due:
            self.calibrate()

    def scaled(self, started, seconds):
        """seconds, measured from started, at the reference speed: divided by
        the median kernel time of the calibrations within NEAR_S of the
        operation, and at least the last one before and the first one after."""
        return self.scaled_all([started], [seconds])[0]

    def scaled_all(self, starts, latencies):
        """scaled() for many operations; neighbours share calibrations."""
        at, cache, out = self.at, {}, []
        for started, seconds in zip(starts, latencies):
            lo = max(0, min(bisect_left(at, started - self.NEAR_S),
                            bisect_left(at, started) - 1))
            end = started + seconds
            hi = max(bisect_right(at, end + self.NEAR_S), bisect_right(at, end) + 1)
            kernel = cache.get((lo, hi))
            if kernel is None:
                kernel = cache[lo, hi] = median(self.kernel[lo:hi])
            out.append(seconds * self.REFERENCE_S / kernel)
        return out


class Tally:
    """What the measured operations of one run produced."""

    def __init__(self, speed):
        self.speed = speed
        self.starts = array("d")     # perf_counter at the start of each timed operation
        self.latencies = array("d")  # seconds per timed operation
        self.builds = {}           # build name -> [(start, seconds)] per build
        self.attempted = 0
        self.failed = 0
        self.decided = 0           # verdicts that are not a cutoff exhaustion
        self.undecided = 0
        self.json_bytes = 0
        self.failures = []

    def timed(self, started, ended):
        """Record one timed operation, then calibrate if due."""
        self.starts.append(started)
        self.latencies.append(ended - started)
        self.speed.tick(ended)

    def build(self, name, started, seconds):
        self.builds.setdefault(name, []).append((started, seconds))

    def check(self, problem, what):
        """Count one attempted operation; a non-empty problem fails it."""
        self.attempted += 1
        if problem:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{what}: {problem}")


def spread(low, high, count):
    """count lengths spread evenly over low..high.  Query cost depends mostly
    on the length, so fixing the lengths leaves the seed to pick the words
    without moving the workload's cost."""
    if count == 1:
        return [high]
    return [low + (i * (high - low)) // (count - 1) for i in range(count)]


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def machine_facts(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "cpu_model": cpu,
        "seed": seed,
        "limits": "no CPU pinning, no cache dropping, no cgroup changes; "
                  "shared machine, other tenants' load is not controlled",
    }
