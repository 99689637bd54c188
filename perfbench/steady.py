#!/usr/bin/env python3
"""Steadiness report for the benchmark.

Runs every workload of BENCHMARK.json (or those named) once per seed and
prints, per end-to-end metric, the median, the quartiles and the
inter-quartile spread as a share of the median, next to the metric's
bound. A spread under a third of the bound reads "steady".

    python3 perfbench/steady.py --seeds 10            # all workloads
    python3 perfbench/steady.py --seeds 1             # every metric once, by name and unit
    python3 perfbench/steady.py --seeds 5 --workloads budget-sweep
    python3 perfbench/steady.py --seeds 1 --trace     # one traced run each

It also surfaces the guard lines the benchmark prints (store writes in a
timed set-up or phase, which fail the run) and the distinct setup_s
readings, so a poll-quantized set-up time shows as repeated values.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    # A run whose answers fail the correctness gate still prints its result
    # line, then exits 1; any other failure prints none.
    if proc.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stderr)
        sys.exit(f"steady: {workload} seed {seed} failed with code {proc.returncode}")
    err = proc.stderr.splitlines()
    guards = [l for l in err if "guard violated" in l]
    report = [l for l in err if l.startswith(("layer report", "  "))]
    # The per-window readings and the host's CPU steal share, per run.
    print(f"{workload} seed {seed}: " + " ".join(l.split(": ", 1)[1] for l in err if "windows of" in l),
          flush=True)
    return json.loads(lines[-1]), guards, report


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", action="store_true", help="traced runs: print the layer reports")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    for name in names:
        values, units, guards, failed = {}, {}, [], 0
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            res, g, report = run(name, seed, seconds, args.trace)
            guards += g
            failed += res["failed"]
            if not res["correct"]:
                print(f"{name} seed {seed}: correct=false, {res['failed']} failed of {res['attempted']}")
            if args.trace:
                print("\n".join(report))
            for metric, v in res["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
                units[metric] = v["unit"]
        print(f"\n{name}: {args.seeds} runs of {seconds}s, {failed} failed jobs")
        print(f"  {'metric':28} {'unit':>6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
        for metric in sorted(values):
            xs = values[metric]
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0], 0, xs[0])
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(metric)
            verdict = ""
            if bound is not None:
                verdict = "steady" if spread < bound / 3 else ("within bound" if spread <= bound else "NOISY")
            print(f"  {metric:28} {units[metric]:>6} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f} "
                  f"{'' if bound is None else bound:>6}  {verdict}")
        if "setup_s" in values:
            print(f"  setup_s readings: {len(set(values['setup_s']))} distinct of {len(values['setup_s'])}")
        for g in guards:
            print("  " + g)


if __name__ == "__main__":
    main()
