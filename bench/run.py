"""sigmasum benchmark: four workloads against the public API, with checks.

    python3 bench/run.py --workload weak_exhaustive --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --self-test

A run repeats whole rounds of its workload until ``--seconds`` have passed
(and at least MIN_ROUNDS ran). Every round starts from a fresh import of
sigmasum and fresh instances, as every command-line user starts with a cold
sum cache. Human-readable metric lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` untraced and traced rounds alternate, and the metrics are the
per-layer ones from the traced rounds plus the tracing overhead. Span tables
and per-round records go to ``bench/results/``.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
sys.path.insert(0, HERE)
sys.path.insert(0, SRC)

import tracing  # noqa: E402
from clock import Stopwatch  # noqa: E402
from workloads import (NetMixed, Outcome, QuotientTensor, WeakExhaustive,  # noqa: E402
                       WitnessCli)

MIN_ROUNDS = 3
MODULES = ("family", "core", "instances", "checker", "constructions",
           "free_strong", "net_sum", "cli")
IMPORT_SNIPPET = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                  "t = time.perf_counter(); import sigmasum, sigmasum.cli; "
                  "print(time.perf_counter() - t)")


def make_workload(name, seed, tiny):
    return {"weak_exhaustive": lambda: WeakExhaustive(seed, tiny),
            "witness_cli": lambda: WitnessCli(seed, tiny, RESULTS),
            "quotient_tensor": lambda: QuotientTensor(seed, tiny),
            "net_mixed": lambda: NetMixed(seed, tiny, ROOT)}[name]()


WORKLOADS = ("weak_exhaustive", "witness_cli", "quotient_tensor", "net_mixed")


def fresh_import():
    """Drop every sigmasum module and import the package again, so module
    state cannot carry over from one round to the next."""
    for name in [n for n in sys.modules
                 if n == "sigmasum" or n.startswith("sigmasum.")]:
        del sys.modules[name]
    m = SimpleNamespace(pkg=importlib.import_module("sigmasum"))
    for name in MODULES:
        setattr(m, name, importlib.import_module("sigmasum." + name))
    return m


def cold_import_seconds():
    """Import time of sigmasum and its CLI in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET, SRC],
                          capture_output=True, text=True, cwd=ROOT,
                          timeout=120, check=True)
    return float(proc.stdout)


def run_round(workload, traced):
    import_s = cold_import_seconds()
    m = fresh_import()
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracing.install(tracer, m)
    t0 = time.perf_counter()
    inputs = workload.build(m, tracer)
    build_s = time.perf_counter() - t0
    clock = Stopwatch()
    raw = workload.run(m, inputs, clock)
    clock.lap()
    wall_s = clock.wall
    report_bytes = (workload.report_bytes(raw)
                    if hasattr(workload, "report_bytes") else 0)
    record = {"traced": traced, "import_s": import_s, "build_s": build_s,
              "wall_s": wall_s, "wall_ref": clock.ref,
              "report_bytes": report_bytes}
    if traced:
        # read the tracer before the checks call into the program again
        record["layers"] = tracing.layer_metrics(tracer, import_s,
                                                 report_bytes)
        record["spans"] = tracer.table()
    obs = workload.observe(m, inputs, raw)
    outcome = Outcome()
    workload.check(m, inputs, obs, outcome)
    record["families"] = workload.families(obs)
    record["extras"] = (workload.extras(obs, wall_s)
                        if hasattr(workload, "extras") else {})
    record["outcome"] = outcome
    gc.collect()
    return record


def median_metrics(rows):
    return {name: (statistics.median(row[name][0] for row in rows),
                   rows[0][name][1])
            for name in rows[0]}


def summarize(rounds, trace):
    plain = [r for r in rounds if not r["traced"]]
    if trace:
        traced = [r for r in rounds if r["traced"]]
        metrics = median_metrics([r["layers"] for r in traced])
        metrics["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in traced)
            - statistics.median(r["wall_s"] for r in plain), "s")
        return metrics
    metrics = {
        "setup_s": (statistics.median(r["import_s"] + r["build_s"]
                                      for r in plain), "s"),
        "wall_ref": (statistics.median(r["wall_ref"] for r in plain), "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
        "families_per_ref": (statistics.median(r["families"] / r["wall_ref"]
                                               for r in plain), "families/ref"),
    }
    return metrics


def write_results(args, rounds, metrics, result):
    path = os.path.join(
        RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    payload = {
        "result": result,
        "rounds": [{k: v for k, v in r.items()
                    if k not in ("outcome", "layers")}
                   for r in rounds],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "python": sys.version.split()[0], "cpus": os.cpu_count(),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True, default=str)


def benchmark(args):
    workload = make_workload(args.workload, args.seed, tiny=False)
    rounds = []
    start = time.perf_counter()
    min_rounds = 2 * MIN_ROUNDS if args.trace else MIN_ROUNDS
    while (len(rounds) < min_rounds
           or time.perf_counter() - start < args.seconds):
        rounds.append(run_round(workload, traced=bool(args.trace)
                                and len(rounds) % 2 == 1))
    attempted = sum(r["outcome"].attempted for r in rounds)
    failed = sum(r["outcome"].failed for r in rounds)
    errors = [e for r in rounds for e in r["outcome"].errors]
    metrics = summarize(rounds, args.trace)
    print(f"workload {args.workload} seed {args.seed} rounds {len(rounds)} "
          f"python {sys.version.split()[0]} cpus {os.cpu_count()}")
    shown = dict(metrics)
    if not args.trace:
        # readings in seconds and workload-specific ones, printed but not
        # part of the JSON result
        shown["wall_s"] = (statistics.median(r["wall_s"] for r in rounds), "s")
        shown["families_per_s"] = (statistics.median(
            r["families"] / r["wall_s"] for r in rounds), "families/s")
        shown["reference_s"] = (statistics.median(
            r["wall_s"] / r["wall_ref"] for r in rounds), "s")
        for name, unit in getattr(workload, "EXTRAS", {}).items():
            shown[name] = (statistics.median(r["extras"][name] for r in rounds),
                           unit)
    for name, (value, unit) in shown.items():
        print(f"{name} {value:.6g} {unit}")
    for error in errors[:20]:
        print("check failed:", error, file=sys.stderr)
    result = {
        "correct": not errors, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    write_results(args, rounds, shown, result)
    print(json.dumps(result))
    return 0


def self_test():
    """Each workload on tiny inputs (two untraced rounds and one traced), and
    every deliberately wrong result must be rejected by the checks."""
    ok = True
    for name in WORKLOADS:
        workload = make_workload(name, seed=1, tiny=True)
        rounds = [run_round(workload, traced) for traced in (False, False, True)]
        errors = [e for r in rounds for e in r["outcome"].errors]
        failed = [r["outcome"].failed for r in rounds]
        print(f"self-test {name}: {len(rounds)} rounds, "
              f"{rounds[0]['outcome'].attempted} operations each, "
              f"failed {failed}, errors {len(errors)}")
        for error in errors[:10]:
            print("  check failed:", error)
        ok &= not errors
        m = fresh_import()
        inputs = workload.build(m, None)
        obs = workload.observe(m, inputs,
                               workload.run(m, inputs, Stopwatch()))
        for label, wrong in workload.mutations(m, inputs, obs):
            outcome = Outcome()
            workload.check(m, inputs, wrong, outcome)
            rejected = bool(outcome.errors)
            print(f"  wrong result ({label}): "
                  f"{'rejected' if rejected else 'ACCEPTED'}")
            ok &= rejected
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sigmasum", "__init__.py")):
        print(f"error: no sigmasum sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(RESULTS, exist_ok=True)
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    try:
        return benchmark(args)
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
