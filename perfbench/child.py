"""One benchmark process: set up, run whole rounds of requests, check them.

Started by run.py in a fresh interpreter, so every library cache starts
empty.  Prints one JSON object on its last stdout line.  Exits non-zero,
printing no result, when the library cannot be imported from this
checkout's ``src``.

Modes:
  setup    import and generate the first round, then stop;
  measure  run exactly --rounds rounds untraced;
  trace    run exactly --rounds rounds with every library layer traced.

Outside the timed intervals, the calibration kernel (calibrate.py) is timed
before every request and after the last one, so that the parent can
convert every request time to reference speed.
"""

import argparse
import importlib
import json
import os
import resource
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def load_library():
    sys.path.insert(0, SRC)
    try:
        import diagramalg
    except ImportError as exc:
        sys.exit("perfbench: cannot import diagramalg from %s: %s" % (SRC, exc))
    if not os.path.abspath(diagramalg.__file__).startswith(SRC + os.sep):
        sys.exit("perfbench: diagramalg was imported from %s, not %s" % (diagramalg.__file__, SRC))
    mods = {name: importlib.import_module("diagramalg." + name) for name in ("irreps", "characters", "cli")}
    return types.SimpleNamespace(
        Diagram=diagramalg.Diagram, LaurentPoly=diagramalg.LaurentPoly, Element=diagramalg.Element, **mods
    )


def load_digests(workload):
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as handle:
        return json.load(handle).get(workload, {})


class Runner:
    """Runs rounds, timing each request and checking it outside the timer."""

    def __init__(self, workload, seed, lib, tracer=None):
        from workloads import make_round

        self.make_round = make_round
        self.workload = workload
        self.seed = seed
        self.lib = lib
        self.tracer = tracer
        self.digests = load_digests(workload)
        # deferred: checks run after the loop; twisted: (family, k, m, d)
        # of every Twisted-basis action, for counting conjugated pairs
        self.ctx = types.SimpleNamespace(deferred=[], twisted=[])
        self.latencies = []
        self.failures = []
        self.keys = set()
        self.repeats = 0
        self.outputs = {}
        self.rounds = 0
        # kernel_times[i] is timed just before request i
        self.kernel_times = []

    def round(self, index):
        return self.make_round(self.workload, self.lib, self.seed, index, self.ctx)

    def fail(self, key, message):
        self.failures.append("%s: %s" % (key.splitlines()[0][:160], message))

    def run_round(self, rnd):
        from calibrate import time_kernel
        from workloads import CheckFailed, digest

        for req in rnd.requests:
            key = digest(req.key)
            self.repeats += key in self.keys
            self.keys.add(key)
            self.kernel_times.append(time_kernel())
            if self.tracer is not None:
                self.tracer.begin(len(self.latencies))
            start = time.perf_counter()
            try:
                out = req.run()
                error = None
            except Exception as exc:  # a failed request is counted, not fatal
                out, error = None, "%s: %s" % (type(exc).__name__, exc)
            elapsed = time.perf_counter() - start
            if self.tracer is not None:
                self.tracer.end()
            self.latencies.append(elapsed)
            if error is not None:
                self.fail(req.key, error)
                continue
            try:
                canon = digest(req.canon(out))
                self.outputs[key] = canon
                if key in self.digests and self.digests[key] != canon:
                    raise CheckFailed("output digest %s, committed %s" % (canon, self.digests[key]))
                req.check(out)
            except Exception as exc:
                self.fail(req.key, "%s: %s" % (type(exc).__name__, exc))
        for finish in rnd.finish:
            try:
                finish()
            except Exception as exc:
                self.fail("round %d" % self.rounds, "%s: %s" % (type(exc).__name__, exc))
        self.rounds += 1

    def finish(self):
        """Run the checks that needed the library after the timed loop."""
        for check in self.ctx.deferred:
            try:
                check()
            except Exception as exc:
                self.fail("deferred", "%s: %s" % (type(exc).__name__, exc))


def cache_report():
    from tracer import cached_functions

    return {name: fn.cache_info()._asdict() for name, fn in cached_functions().items()}


def conjugate_pairs(lib, ctx):
    """Distinct (d, w) pairs that the run's Twisted-basis requests conjugate:
    every symmetric diagram w of the module against the acting diagram d."""
    pairs = set()
    for family, k, m, d in ctx.twisted:
        for w in lib.irreps.enumerate_symmetric(family, k, m):
            pairs.add(hash((d, w)))
    return len(pairs)


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--budget", type=float, default=150.0,
                        help="stop after the round that ends this many seconds into the timed loop")
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() when the parent spawned us")
    args = parser.parse_args(argv)
    sys.path.insert(0, HERE)

    lib = load_library()
    tracer = None
    if args.mode == "trace":
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    runner = Runner(args.workload, args.seed, lib, tracer)
    rnd = runner.round(0)
    result = {"setup_s": time.monotonic() - args.t0}
    if args.mode != "setup":
        from calibrate import time_kernel

        loop_start = time.monotonic()
        for index in range(args.rounds):
            if index:
                rnd = runner.round(index)
            runner.run_round(rnd)
            # the guard bounds a run on a very slow build
            if time.monotonic() - loop_start > args.budget:
                break
        runner.kernel_times.append(time_kernel())
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["rounds"] = runner.rounds
        result["caches"] = cache_report()
        if tracer is not None:
            result["trace"] = trace_report(tracer)
        runner.finish()
        result.update(
            latencies=runner.latencies,
            kernel_times=runner.kernel_times,
            failures=runner.failures,
            repeat_share=runner.repeats / len(runner.latencies),
            conjugate_pairs=conjugate_pairs(lib, runner.ctx),
            outputs=runner.outputs,
        )
    sys.stdout.write(json.dumps(result) + "\n")


def trace_report(tracer):
    totals = tracer.totals()
    distinct = {name: len(seen) for name, seen in tracer.distinct.items()}
    edges = [
        [request, parent, name] + stats for (request, parent, name), stats in sorted(tracer.edges.items())
    ]
    return {"totals": totals, "distinct": distinct, "edges": edges, "requests": tracer.requests}


if __name__ == "__main__":
    main()
