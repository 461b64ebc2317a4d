#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload smp-e1 --seed 1 --seconds 10 --trace 0

The Go module in perfbench/ is built from source into .bench_build/
(the Go build cache, module cache and temporary files live there too),
then run from the checkout root with the same flags. Its last line of
standard output is the JSON result. Each run also saves a report with
its provenance under .bench_build/reports/;

    python3 perfbench/run.py --history

lists those reports ordered by provenance (commit time, then start
time), never by file modification time.
"""

import glob
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "bin", "perfbench")

# The benchmark itself bounds its run; this is a backstop so a hung
# session can never outlive the run's time limit.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 800


def go_env():
    env = dict(os.environ)
    env.update(
        {
            "GOCACHE": os.path.join(BUILD, "gocache"),
            "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
            "GOPATH": os.path.join(BUILD, "gopath"),
            "GOTMPDIR": os.path.join(BUILD, "tmp"),
            "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
            "XDG_CACHE_HOME": os.path.join(BUILD, "cache"),
            "GOENV": "off",
            "GOTOOLCHAIN": "local",
            "GOFLAGS": "-mod=mod -buildvcs=false",
            "GOPROXY": "off",
            "GOWORK": "off",
            "CGO_ENABLED": "0",
        }
    )
    return env


def build():
    env = go_env()
    for key in ("GOCACHE", "GOMODCACHE", "GOPATH", "GOTMPDIR", "XDG_CONFIG_HOME", "XDG_CACHE_HOME"):
        os.makedirs(env[key], exist_ok=True)
    proc = subprocess.run(
        ["go", "build", "-o", BINARY, "."],
        cwd=HERE,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
        timeout=BUILD_TIMEOUT_S,
    )
    return proc.returncode == 0


def history():
    rows = []
    for path in glob.glob(os.path.join(BUILD, "reports", "*.json")):
        with open(path) as f:
            rep = json.load(f)
        p = rep["provenance"]
        rows.append((p["commit_time"], p["started_at"], p, rep["result"]))
    rows.sort(key=lambda r: (r[0], r[1]))
    for commit_time, started, p, res in rows:
        metrics = " ".join(
            "%s=%.6g" % (k, v["value"]) for k, v in sorted(res["metrics"].items()) if not k.startswith(("wire.", "transport.frames"))
        )
        print(
            "%s %s %s dirty=%s %s seed=%s traced=%s correct=%s %s"
            % (commit_time, started, p["commit"][:12], p["dirty"], p["workload"], p["seed"], p["traced"], res["correct"], metrics)
        )
    return 0


def main():
    if sys.argv[1:] == ["--history"]:
        return history()
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: %s is not a dut checkout (no go.mod)" % ROOT, file=sys.stderr)
        return 2
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    try:
        proc = subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %ds" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
