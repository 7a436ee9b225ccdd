"""Steadiness mode: run workloads repeatedly and report the spread per metric.

    python3 bench/steady.py --runs 10 --seed 1 --seconds 30
    python3 bench/steady.py --workload generic-shoot --runs 5 --seed 100

Each run is a fresh ``bench/run.py`` process with its own seed (seed,
seed + 1, ...).  For every metric the report gives the median and the
quartiles across runs (``statistics.quantiles(values, n=4)``) and the
quartile spread as a share of the median, next to the metric's bound in
BENCHMARK.json.  It also checks that ``rhs_evals_per_op`` is identical in
every operation of every run, that every run is correct, and that the share
of failed operations is the same in every run.  Exit status 1 when one of
those checks fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("parking-cli", "generic-shoot")


def run_once(workload: str, seed: int, seconds: int, trace: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    diag = next(json.loads(line)["diagnostics"]
                for line in reversed(proc.stderr.splitlines())
                if line.startswith('{"diagnostics"'))
    return result, diag


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None,
                    help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2 for quartiles")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    ok = True
    report = {}
    for workload in args.workload or WORKLOADS:
        results, diags = [], []
        for r in range(args.runs):
            result, diag = run_once(workload, args.seed + r, seconds, args.trace)
            results.append(result)
            diags.append(diag)
            print(f"{workload} seed {args.seed + r}: "
                  + json.dumps({k: v["value"] for k, v in result["metrics"].items()})
                  + f" op_s {[round(t, 3) for t in diag['op_s']]}",
                  file=sys.stderr, flush=True)
        rows = {}
        print(f"\n{workload}: {args.runs} runs of {seconds} s, trace {args.trace}")
        print(f"  {'metric':46s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        for name in results[0]["metrics"]:
            med, q1, q3, sp = spread([r["metrics"][name]["value"] for r in results])
            bound = bounds.get(name)
            flag = "" if bound is None or sp < bound / 3 else "  <-- over bound/3"
            print(f"  {name:46s} {med:12.6g} {q1:12.6g} {q3:12.6g} {sp:8.4f} "
                  f"{'' if bound is None else bound:>6}{flag}")
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": sp}
        rhs = {n for d in diags for n in d["op_rhs_evals"]}
        shares = {(r["failed"], r["attempted"]) for r in results}
        fail_shares = {f / a for f, a in shares}
        checks = {
            "rhs_evals_per_op identical": len(rhs) == 1,
            "all runs correct": all(r["correct"] for r in results),
            "failed share identical": len(fail_shares) == 1,
        }
        for name, passed in checks.items():
            print(f"  {name}: {'yes' if passed else 'NO'}"
                  + (f" {sorted(rhs)}" if name.startswith("rhs") else ""))
            ok = ok and passed
        print(f"  ops per run: {[r['attempted'] for r in results]}")
        report[workload] = {"metrics": rows, "checks": checks,
                            "rhs_evals_per_op": sorted(rhs),
                            "ops_per_run": [r["attempted"] for r in results]}
    print(json.dumps(report))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
