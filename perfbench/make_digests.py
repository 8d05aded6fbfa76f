"""Regenerate digests.json: output digests of the seed-0 request stream.

    python3 perfbench/make_digests.py

Runs the rounds of one benchmark run (run_seconds of BENCHMARK.json) of
each workload at seed 0, and records sha256 prefixes of every request's
canonical output, keyed by the digest of its arguments.  A benchmark run
compares every request whose arguments appear here.  The children still
compare against the current file, so empty it (write ``{}`` into it) first
when outputs are meant to change.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from workloads import WORKLOADS, rounds_for  # noqa: E402


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        seconds = json.load(handle)["run_seconds"]
    out = {}
    for workload in WORKLOADS:
        rounds = rounds_for(workload, seconds)
        res = run.spawn(time.monotonic() + 900, budget=900, mode="measure", workload=workload, seed=0,
                        rounds=rounds)
        if res["failures"]:
            sys.exit("%s: %d failed requests, first: %s" % (workload, len(res["failures"]), res["failures"][0]))
        out[workload] = dict(sorted(res["outputs"].items()))
        print("%s: %d digests from %d rounds" % (workload, len(out[workload]), rounds))
    with open(os.path.join(HERE, "digests.json"), "w", encoding="utf-8") as handle:
        json.dump(out, handle, indent=0, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
