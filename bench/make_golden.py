"""Regenerate golden.json: digests of every census report (timing field
removed) and every sync_queries answer at the default seed and full scale.

    python3 bench/make_golden.py

Run it only when the benchmark's inputs change.  A change to df0l must keep
the reports identical, so it never needs new digests.
"""

import json
import os
import shutil

import common
from census import Census
from common import Tally
from run import DEFAULT_SEED, GOLDEN, SCALES, run_pass
from sync_queries import SyncQueries


def main():
    df0l = common.load_df0l()
    golden = {"seed": DEFAULT_SEED}
    workdir = os.path.join(common.OUT_DIR, f"work-{os.getpid()}")
    try:
        for key, cls in (("census", Census), ("sync_queries", SyncQueries)):
            workload = cls(df0l, DEFAULT_SEED, SCALES["full"], workdir, None)
            tally = Tally(common.Speed())
            run_pass(workload, tally, True)
            if tally.failed:
                raise SystemExit(f"{key}: {tally.failed} checks failed: {tally.failures}")
            golden[key] = workload.digests
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=0, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
