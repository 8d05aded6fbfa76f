"""Benchmark of the diagramalg library.

    python3 perfbench/run.py --workload products --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Each workload is one closed loop: one client, one process, one thread,
sending its next request only when the previous one has returned.  Every
run starts fresh interpreters (child.py), so the library's caches start
empty, and there is no warm-up: a CLI user pays the cold caches on every
command.  The library is imported from ``src`` of the checkout this file
sits in; ``DIAGRAMALG_CAP`` is removed from the children's environment, so
every request runs under the default size caps and a refusal counts as a
failure.

A run measures a fixed number of whole rounds: as many as take --seconds
of request time at reference speed (workloads.rounds_for).  Every time metric
is reported at reference speed, which removes the host's speed drift: each
request time is scaled by the calibration kernel's reference time over its
time measured next to it, and each set-up time likewise by a spawn probe
(calibrate.py).  The measured times are printed on standard error beside
them.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  --trace 1 runs
a fixed number of rounds twice, untraced and then with every library layer
traced, and prints the per-layer metrics.  The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  The traced run also
writes its span table to .perfbench/trace-<workload>-<seed>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
sys.path.insert(0, HERE)

from calibrate import REFERENCE_S, REFERENCE_SPAWN_S, SPAWN_PROBE, local_scales  # noqa: E402
from workloads import MIN_REQUESTS, WORKLOADS, rounds_for  # noqa: E402

# set-up is measured this many times per run (one of them in the measuring
# process), each after a spawn probe (calibrate.py), and reported as the median
SETUP_RUNS = 7
TRACE_ROUNDS = 2
# each workload's run must end within 180 s
DEADLINE_S = 170.0
# a request's speed scale is the median of the 2 * WINDOW kernel times nearest it
WINDOW = 4

# Functions each workload must reach; a traced run where one of them
# records no call fails.
EXPECTED_CALLS = {
    "products": (
        "diagrams.concat", "diagrams.in_family", "diagrams.Diagram", "diagrams.is_planar",
        "coeff.LaurentPoly", "coeff.LaurentPoly.mul", "coeff.LaurentPoly.add", "coeff.Element.mul",
    ),
    "modules": (
        "diagrams.Diagram", "coeff.LaurentPoly", "coeff.LaurentPoly.mul", "coeff.LaurentPoly.add",
        "symrep.straighten", "irreps.enumerate_symmetric", "irreps.conjugate", "irreps.act_tableau",
        "irreps.rep_columns", "irreps.rep_matrix_irrep", "characters.character_oracle", "cli.run",
    ),
    "tables": (
        "partitions.divisors", "partitions.partitions", "partitions.stirling2", "symrep.sym_character",
        "characters.f_coeff", "characters.irr_character", "characters.CharacterTable.factor", "cli.run",
    ),
    "bases": (
        "diagrams.Diagram", "diagrams.is_planar", "diagrams.enumerate_basis", "irreps.enumerate_symmetric",
        "cli.run",
    ),
}


def child_env():
    env = dict(os.environ)
    env.pop("DIAGRAMALG_CAP", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(deadline, **options):
    """Run child.py to completion and return its JSON result."""
    argv = [sys.executable, CHILD]
    for name, value in options.items():
        argv += ["--" + name, str(value)]
    argv += ["--t0", repr(time.monotonic())]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("no time left for " + " ".join(argv[2:]))
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, env=child_env(), timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError("child exited with code %d: %s" % (proc.returncode, " ".join(argv[2:])))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def report_details(workload, res):
    print("%s: %d rounds, %.1f%% of requests repeat earlier arguments, %d distinct conjugated (d, w) pairs"
          % (workload, res["rounds"], 100.0 * res["repeat_share"], res["conjugate_pairs"]), file=sys.stderr)
    for name, info in sorted(res["caches"].items()):
        print("  cache %s %s" % (name, info), file=sys.stderr)
    for failure in res["failures"][:10]:
        print("  FAILED %s" % failure, file=sys.stderr)


def measure(deadline, **options):
    """Run a measuring child; return its result with reference-speed times."""
    res = spawn(deadline, mode="measure", budget=max(1.0, deadline - time.monotonic() - 20.0), **options)
    scales = local_scales(res["kernel_times"], WINDOW)
    res["ref_latencies"] = [t * f for t, f in zip(res["latencies"], scales)]
    return res


def spawn_probe(deadline):
    """Seconds that a process running SPAWN_PROBE takes, spawn to exit."""
    start = time.monotonic()
    subprocess.run([sys.executable, "-c", SPAWN_PROBE], env=child_env(), timeout=deadline - start, cwd=ROOT,
                   check=True)
    return time.monotonic() - start


def end_to_end(args, deadline):
    # (probe time, child result): the probe runs just before each child
    setups = [(spawn_probe(deadline), spawn(deadline, mode="setup", workload=args.workload, seed=args.seed))
              for _ in range(SETUP_RUNS - 1)]
    probe = spawn_probe(deadline)
    res = measure(deadline, workload=args.workload, seed=args.seed, rounds=rounds_for(args.workload, args.seconds))
    setups.append((probe, res))
    lat, raw = res["ref_latencies"], res["latencies"]
    attempted, failed = len(lat), len(res["failures"])
    if attempted < MIN_REQUESTS:
        raise RuntimeError("%d requests ran, fewer than %d" % (attempted, MIN_REQUESTS))
    metrics = {
        "requests_per_s": (attempted / sum(lat), "1/s"),
        "latency_p50_ms": (1000.0 * percentile(lat, 50), "ms"),
        "latency_p90_ms": (1000.0 * percentile(lat, 90), "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(s["setup_s"] * REFERENCE_SPAWN_S / p for p, s in setups), "s"),
    }
    report_details(args.workload, res)
    print("%s: kernel median %.4f ms over %d samples (reference %.4f ms), spawn probe median %.4f s (reference "
          "%.4f s); at host speed: requests_per_s=%.4f, latency_p50_ms=%.4f, latency_p90_ms=%.4f, setup_s=%.4f" % (
              args.workload, 1000.0 * statistics.median(res["kernel_times"]), len(res["kernel_times"]),
              1000.0 * REFERENCE_S, statistics.median(p for p, _ in setups), REFERENCE_SPAWN_S, attempted / sum(raw),
              1000.0 * percentile(raw, 50), 1000.0 * percentile(raw, 90),
              statistics.median(s["setup_s"] for _, s in setups)), file=sys.stderr)
    print("%s: %s, latency samples=%d (%d beyond p90), error_rate=%.4f (%d/%d)" % (
        args.workload,
        ", ".join("%s=%.4f %s" % (name, value, unit) for name, (value, unit) in metrics.items()),
        attempted, attempted - -(-attempted * 9 // 10), failed / attempted, failed, attempted))
    return failed == 0, attempted, failed, metrics


def layer_value(name, trace, caches, overhead):
    """Value of a per-layer metric <module>.<function>.<stat>."""
    span, _, stat = name.rpartition(".")
    totals = trace["totals"]
    calls, _, self_s, _ = totals.get(span, (0, 0.0, 0.0, 0))
    if name == "tracer.overhead.ratio":
        return overhead
    if stat == "calls":
        return calls
    if stat == "self_s":
        return self_s
    if stat == "errors":
        return sum(v[3] for n, v in totals.items() if n.startswith(span + "."))
    if stat == "distinct":
        return trace["distinct"][span]
    if stat == "distinct_ratio":
        return trace["distinct"][span] / calls if calls else 0.0
    info = caches[span]
    if stat == "size":
        return info["currsize"]
    looked_up = info["hits"] + info["misses"]
    return info["hits"] / looked_up if looked_up else 0.0


def per_layer(args, deadline, spec):
    plain = measure(deadline, workload=args.workload, seed=args.seed, rounds=TRACE_ROUNDS)
    traced = spawn(deadline, mode="trace", workload=args.workload, seed=args.seed, rounds=TRACE_ROUNDS)
    trace = traced["trace"]
    # traced over untraced request time, both at reference speed
    overhead = (sum(t * f for t, f in zip(traced["latencies"], local_scales(traced["kernel_times"], WINDOW)))
                / sum(plain["ref_latencies"]))
    metrics = {
        m["name"]: (layer_value(m["name"], trace, traced["caches"], overhead), m["unit"]) for m in spec["per_layer"]
    }
    missing = [s for s in EXPECTED_CALLS[args.workload] if s not in trace["totals"]]
    for span in missing:
        print("%s: expected calls to %s, recorded none" % (args.workload, span), file=sys.stderr)
    report_details(args.workload, traced)
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "trace-%s-%d.json" % (args.workload, args.seed)), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "rounds": TRACE_ROUNDS,
                   "overhead_ratio": overhead, "caches": traced["caches"], "totals": trace["totals"],
                   "edge_columns": ["request", "parent", "span", "calls", "total_s", "self_s", "errors"],
                   "edges": trace["edges"], "requests": trace["requests"]}, fh)
    attempted = len(traced["latencies"])
    failed = len(traced["failures"])
    return failed == 0 and not missing, attempted, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True,
                        help="'all' runs every workload in turn, one result line each")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        args.workload = workload
        try:
            if args.trace:
                correct, attempted, failed, metrics = per_layer(args, time.monotonic() + DEADLINE_S, spec)
            else:
                correct, attempted, failed, metrics = end_to_end(args, time.monotonic() + DEADLINE_S)
        except (RuntimeError, subprocess.SubprocessError) as exc:
            print("perfbench: %s" % exc, file=sys.stderr)
            return 1
        print(json.dumps({
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
