"""census: the survey path over many small systems.

The six sample files plus a population of random non-erasing systems are
rendered to files in set-up.  One operation surveys one system in process
through df0l.cli.main(["--json", ...]) with cold caches, the way a script
that loops over system files would.

The population is drawn once, from POPULATION_SEED; the run's seed renames
the letters of every drawn system and shuffles the order of the survey.
Survey times are heavy-tailed (the slowest 1 % of drawn systems take about
a quarter of the time), so a fresh draw per seed would move the census
throughput by 12 % at 1000 systems and 18 % at 500 by itself.  Renaming
letters changes every file and every report but not the work: the
function-call count of a survey moved by at most 3.5 % for one system and
0.03 % for 500.  200 systems make a pass of 6-8 s, so that each system is
timed four or five times in a run.
"""

import contextlib
import io
import json
import os
import random
import time
from statistics import median

import references
from common import SAMPLES

SURVEY = (
    ("letters", ("letters",)),
    ("repetitive", ("repetitive",)),
    ("weak", ("threshold", "--mode", "weak", "--cutoff", "20")),
    ("strong", ("threshold", "--mode", "strong", "--cutoff", "12")),
    ("delta", ("delta", "-L", "8")),
)
CUTOFFS = {"weak": 20, "strong": 12}
# build_s: the sample languages up to BUILD_DEPTH, rebuilt before every
# BUILD_EVERY-th survey so that the rounds spread over the whole pass
BUILD_DEPTH = 60
BUILD_EVERY = 50
TWINED = ("--alpha", "a -> A; b -> B; c -> B", "--beta", "A -> a b a c c; B -> a b a")
STATUSES = ("found", "cutoff_exceeded", "not_strongly_circular")
LETTERS = "abcd"
POPULATION_SEED = 0


def render(images, axiom):
    lines = ["alphabet: " + " ".join(sorted(images))]
    lines += [f"map {a} -> " + " ".join(images[a]) for a in sorted(images)]
    lines.append("axiom: " + " ".join(axiom))
    return "\n".join(lines) + "\n"


def draw_systems(rng, count):
    """Distinct random systems: 2-4 letters, images of length 1-4, one-letter
    axiom.  Each is (images, axiom)."""
    seen, out = set(), []
    while len(out) < count:
        letters = LETTERS[:rng.randint(2, 4)]
        images = {a: "".join(rng.choice(letters) for _ in range(rng.randint(1, 4)))
                  for a in letters}
        axiom = rng.choice(letters)
        text = render(images, axiom)
        if text not in seen:
            seen.add(text)
            out.append((images, axiom))
    return out


def rename(rng, images, axiom):
    """The same system with its letters permuted at random."""
    letters = sorted(images)
    to = dict(zip(letters, rng.sample(letters, len(letters))))
    renamed = {to[a]: "".join(to[c] for c in image) for a, image in images.items()}
    return renamed, to[axiom]


class Census:
    # the highest whole percentile with at least ten of the 206 systems beyond it
    tail_pct = 95
    # a set-up takes about 30 ms, mostly writing the files
    setup_repeats = 15
    aliases = {"ops_per_s": "census.systems_per_s",
               "op_p50_ms": "census.system_p50_ms",
               "op_tail_ms": "census.system_tail_ms",
               "decided_share": "census.decided_share"}

    def __init__(self, df0l, seed, scale, workdir, golden):
        self.df0l = df0l
        rng = random.Random(seed)
        texts = {}
        for name in sorted(os.listdir(SAMPLES)):
            if name.endswith(".sys"):
                with open(os.path.join(SAMPLES, name), encoding="utf-8") as handle:
                    texts[name[:-4]] = handle.read()
        samples = list(texts)
        population = draw_systems(random.Random(POPULATION_SEED), scale["census_systems"])
        for i, (images, axiom) in enumerate(population):
            texts[f"r{i:03d}"] = render(*rename(rng, images, axiom))
        os.makedirs(workdir, exist_ok=True)
        self.systems = []
        for ident, text in texts.items():
            path = os.path.join(workdir, ident + ".sys")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            images, _ = references.read_images(text)
            self.systems.append((ident, path, images))
        rng.shuffle(self.systems)
        self.paths = {ident: path for ident, path, _ in self.systems}
        self.sample_systems = [df0l.parse_system(texts[name]) for name in samples]
        # held from set-up, so a traced run does not count these builds
        self.factor_language = df0l.language.factor_language
        self.golden = golden.get("census") if golden else None
        self.digests = {}

    def _build_round(self, tally):
        """Build the six sample languages up to BUILD_DEPTH from cold caches;
        record the sum of the build times."""
        total, first = 0.0, time.perf_counter()
        for system in self.sample_systems:
            self.df0l.clear_language_cache()
            started = time.perf_counter()
            self.factor_language(system, BUILD_DEPTH)
            total += time.perf_counter() - started
        tally.build("samples", first, total)
        tally.speed.tick(time.perf_counter())

    def build_seconds(self, builds):
        """The median of the run's build rounds."""
        return median(builds["samples"])

    def __len__(self):
        return len(self.systems)

    def start_pass(self, tally):
        pass

    def commands(self, ident, path):
        for step, argv in SURVEY:
            yield step, ["--json", argv[0], path, *argv[1:]]
        if ident == "collapse_bounded_delta":
            yield "twined", ["--json", "twined", path,
                             self.paths["simplified_collapse"], *TWINED]

    def run_unit(self, index, tally, first_pass):
        if index % BUILD_EVERY == 0:
            self._build_round(tally)
        ident, path, images = self.systems[index]
        self.df0l.clear_language_cache()
        self.df0l.clear_interpretation_cache()
        outputs = []
        main = self.df0l.cli.main
        started = time.perf_counter()
        for step, argv in self.commands(ident, path):
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = main(argv)
            outputs.append((step, code, buffer.getvalue()))
        tally.timed(started, time.perf_counter())
        tally.json_bytes += sum(len(out.encode("utf-8")) for _, _, out in outputs)
        problem = next((f"{step} exited with {code}"
                        for step, code, _ in outputs if code != 0), None)
        reports = {}
        if problem is None:
            reports = {step: json.loads(out) for step, _, out in outputs}
            problem = self.verify(ident, images, reports)
        tally.check(problem, f"census {ident}")
        if first_pass:
            for step in CUTOFFS:
                if step in reports:
                    if reports[step]["result"]["status"] == "cutoff_exceeded":
                        tally.undecided += 1
                    else:
                        tally.decided += 1

    def verify(self, ident, images, reports):
        results = {step: r["result"] for step, r in reports.items()}
        problem = structure_problem(images, reports)
        if problem:
            return problem
        for step, check in references.SAMPLE_VERDICTS.get(ident, {}).items():
            problem = check(results[step])
            if problem:
                return problem
        got = references.combine([references.digest(r) for r in reports.values()])
        self.digests[ident] = got
        if self.golden is not None and got != self.golden.get(ident):
            return f"report digest {got} differs from the golden digest"
        return None


def structure_problem(images, reports):
    """Checks that hold for every system, whatever the seed."""
    results = {step: r["result"] for step, r in reports.items()}
    info = reports["letters"]["system"]
    lengths = [len(image) for image in images.values()]
    if (info["min_image_len"], info["max_image_len"]) != (min(lengths), max(lengths)):
        return f"image length echo {info['min_image_len']}..{info['max_image_len']}"
    letters = results["letters"]
    if sorted(letters["bounded"] + letters["unbounded"]) != sorted(images):
        return "bounded and unbounded letters do not partition the alphabet"
    for step, cutoff in CUTOFFS.items():
        result = results[step]
        status = result["status"]
        if status not in STATUSES or (step == "weak" and status == STATUSES[2]):
            return f"{step} status {status}"
        if status == "found":
            witness = result["witness"]
            if result["D"] == 0:
                if witness is not None:
                    return f"{step} D = 0 with a witness"
            else:
                sides = [witness] if step == "weak" else witness
                if any(len(side.split()) != result["D"] for side in sides):
                    return f"{step} witness {witness} does not have length D = {result['D']}"
        elif status == "cutoff_exceeded" and result["last_level"] != cutoff:
            return f"{step} stopped at level {result['last_level']}, cutoff {cutoff}"
    certified = results["repetitive"]["status"] == "repetitive"
    if certified != (results["strong"]["status"] == "not_strongly_circular"):
        return "repetitiveness certificate and strong verdict disagree"
    delta = results["delta"]
    if delta["count"] != len(delta["pairs"]):
        return "delta count differs from its pair list"
    longest = 0
    for u, v in delta["pairs"]:
        u, v = "".join(u.split()), "".join(v.split())
        image = references.apply(images, u)
        if u == v or image != references.apply(images, v):
            return f"collision pair {u}/{v} does not collide"
        longest = max(longest, len(image))
    if delta["delta_lower_bound"] != longest:
        return f"delta lower bound {delta['delta_lower_bound']}, pairs give {longest}"
    return None
