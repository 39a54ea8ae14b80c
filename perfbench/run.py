#!/usr/bin/env python3
"""Builds the PABST simulator benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark binary is built with `cargo build --release --offline` into
`$CARGO_TARGET_DIR` (default `.bench_build` at the repository root). Its
report is passed through, and this script adds `peak_rss_mb`, the memory
high-water mark of the benchmark process, to the end-to-end metrics. The
last line of standard output is the JSON result. The traced run
(`--trace 1`) writes its spans to
`$CARGO_TARGET_DIR/perfbench-spans/<workload>-seed<n>.jsonl`.

Exits non-zero, printing no result, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    a = p.parse_args()

    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, check=False)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(target, "release", "pabst-perfbench"),
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", a.trace]
    if a.trace == "1":
        cmd += ["--spans", os.path.join(target, "perfbench-spans",
                                        f"{a.workload}-seed{a.seed}.jsonl")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    out = proc.stdout.read()
    proc.stdout.close()
    # wait4 reports this child's own resource usage (cargo's is excluded).
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(out)
        print(f"perfbench: benchmark exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(out)
        print("perfbench: the last line is not a JSON result", file=sys.stderr)
        return 1

    for line in lines[:-1]:
        print(line)
    peak_mb = usage.ru_maxrss * 1024 / 1e6  # ru_maxrss is in KiB on Linux
    print(f"peak RSS of the benchmark process: {peak_mb:.3f} MB")
    if a.trace == "0":
        result["metrics"]["peak_rss_mb"] = {"value": peak_mb, "unit": "MB"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
