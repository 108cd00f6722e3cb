"""foglet benchmark: admission on fog trees and meshes, fault storms with
edge-cache drains. See perfbench/README.md.

    python3 perfbench/run.py --workload admit-tree --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 10     # every workload, one process each

Runs from the root of a source checkout with nothing installed: foglet is
imported from ./src. The last line of a workload run is one JSON object:
{"correct", "attempted", "failed", "metrics"}; end-to-end metrics with
--trace 0, per-layer metrics with --trace 1. Lines before it start with '#'.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("admit-tree", "admit-mesh", "fault-drain")


def _import_foglet():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import foglet  # noqa: F401
    except ImportError as exc:
        sys.exit(f"cannot import foglet from {os.path.join(ROOT, 'src')}: {exc}")


def self_test() -> list:
    import selftest

    return selftest.run()


def run_workload(name, seed, seconds, traced):
    """Runs one workload for about `seconds`, counted from its first set-up."""
    import spans
    import workloads

    tracer = None
    if traced:
        tracer = spans.Tracer()
        spans.instrument(tracer)
    run = workloads.Run(tracer)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    try:
        workloads.WORKLOADS[name](name, seed, time.perf_counter() + seconds, run, workdir)
    finally:
        shutil.rmtree(workdir)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    e2e = {k: {"value": v, "unit": u} for k, (v, u) in workloads.end_to_end(run).items()}
    e2e["peak_rss_mib"] = {"value": rss_mib, "unit": "MiB"}

    print(f"# workload {name} seed {seed} passes {run.info.get('passes')} "
          f"attempted {run.attempted} failed {run.failed}")
    for key in ("base", "flows", "flows_at_round_end", "lost_flows", "cached_peak_flows",
                "float_vcpu_wrong_verdicts", "digest", "pass_s"):
        if key in run.info:
            print(f"# {key} {json.dumps(run.info[key], sort_keys=True)}")
    print(f"# outcomes {json.dumps(dict(sorted(run.outcomes.items())))}")
    print(f"# samples per pass {json.dumps({k: len(next(iter(v.values()))) for k, v in sorted(run.samples.items())})}")
    for problem in run.problems:
        print(f"# CHECK FAILED: {problem}")
    if traced:
        path = os.path.join(OUT, f"trace-{name}-seed{seed}.jsonl")
        tracer.dump(path)
        print(f"# spans {len(tracer.spans)} written to {os.path.relpath(path, ROOT)}")
        print(f"# traced end-to-end {json.dumps({k: round(v['value'], 4) for k, v in e2e.items()})}")
        for kinds, tag in ((("decision",), None), (("decision",), "covered"),
                           (("link_down", "link_up", "advance", "report"), None),
                           (("save", "load"), None)):
            rows = spans.breakdown(tracer, kinds, tag)
            print(f"# self time in {'/'.join(kinds)}{' (' + tag + ')' if tag else ''}: "
                  + ", ".join(f"{n} {share:.1%}" for n, share in rows))
        metrics = spans.per_layer_metrics(tracer)
    else:
        metrics = e2e
    print(json.dumps({"correct": run.correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if run.correct else 1


def run_all(seed, seconds, traced):
    """Every workload in a fresh process, then a table of their metrics."""
    status = 0
    missed = self_test()
    print(f"# self-test: {'all planted faults caught' if not missed else 'MISSED ' + ', '.join(missed)}")
    status |= bool(missed)
    results = {}
    for name in WORKLOAD_NAMES:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(traced))],
            cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        print(f"# {name} exit {proc.returncode} in {time.perf_counter() - t0:.1f} s")
        status |= proc.returncode != 0
        lines = proc.stdout.strip().splitlines()
        if lines and lines[-1].startswith("{"):
            results[name] = json.loads(lines[-1])
    names = sorted({m for r in results.values() for m in r["metrics"]})
    print(f"\n{'metric':<52}{'unit':>7}" + "".join(f"{n:>14}" for n in results))
    for m in names:
        unit = next(r["metrics"][m]["unit"] for r in results.values() if m in r["metrics"])
        cells = "".join(f"{r['metrics'][m]['value']:>14.4g}" if m in r["metrics"] else f"{'-':>14}"
                        for r in results.values())
        print(f"{m:<52}{unit:>7}{cells}")
    for row in ("attempted", "failed", "correct"):
        print(f"{row:<59}" + "".join(f"{str(r[row]):>14}" for r in results.values()))
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload, each in its own process")
    args = ap.parse_args(argv)
    if not args.all and args.workload is None:
        ap.error("give --workload or --all")
    _import_foglet()
    if args.all:
        return run_all(args.seed, args.seconds, args.trace)
    missed = self_test()
    if missed:
        print(f"self-test: checks missed planted faults: {', '.join(missed)}", file=sys.stderr)
        return 1
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
