#!/usr/bin/env python3
"""Build the serving tier and run the benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cold-edge --seed 1 --seconds 20 --trace 0

Builds cmd/wloptd, cmd/wloptr and the perfbench program from source into
.bench_build/perfbench (Go caches, temporary files and HOME included, so
nothing is written outside the checkout and nothing is fetched), then runs
the program with the same arguments. It prints the result as the
last line of standard output. Build time is not part of any metric.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def go_env(build: Path) -> dict:
    env = dict(os.environ)
    for name, sub in (("GOCACHE", "gocache"), ("GOMODCACHE", "gomodcache"),
                      ("GOPATH", "gopath"), ("TMPDIR", "tmp"), ("HOME", "home")):
        path = build / sub
        path.mkdir(parents=True, exist_ok=True)
        env[name] = str(path)
    env.update(GOPROXY="off", GOTOOLCHAIN="local", GOFLAGS="-mod=mod",
               GOTELEMETRY="off", XDG_CONFIG_HOME=str(build / "home"),
               GO111MODULE="on")
    return env


def build(build_dir: Path) -> Path:
    env = go_env(build_dir)
    bin_dir = build_dir / "bin"
    steps = [
        (ROOT, ["go", "build", "-o", str(bin_dir / "wloptd"), "./cmd/wloptd"]),
        (ROOT, ["go", "build", "-o", str(bin_dir / "wloptr"), "./cmd/wloptr"]),
        (HERE, ["go", "build", "-o", str(bin_dir / "perfbench"), "."]),
    ]
    for cwd, cmd in steps:
        proc = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr)
        if proc.returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(cmd)}")
    return bin_dir


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = ROOT / ".bench_build" / "perfbench"
    if not (ROOT / "go.mod").is_file() or not (ROOT / "cmd" / "wloptd").is_dir():
        sys.exit("perfbench: run from a checkout of the repository (go.mod and cmd/wloptd not found)")
    bin_dir = build(build_dir)
    work = build_dir / "work"
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(bin_dir / "perfbench"), "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-bin", str(bin_dir), "-work", str(work)]
    env = dict(os.environ, TMPDIR=str(build_dir / "tmp"))
    sys.exit(subprocess.run(cmd, cwd=ROOT, env=env).returncode)


if __name__ == "__main__":
    main()
