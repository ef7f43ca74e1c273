#!/usr/bin/env python3
"""Exactness self-check for the serving benchmark.

Runs each workload's traced run twice with one seed and once with the next
seed. The two same-seed runs must agree exactly on every value the
benchmark prints on its `# exact` line: the query-stream digest, the
judged answer count, errors per pass and every per-layer count. The other
seed must draw a different query stream. Timings are not compared.

    python3 annsbench/selfcheck.py [--seed 7] [--seconds 2] [workload ...]

Exits 0 when every check holds, 1 otherwise.
"""

import argparse
import json
import pathlib
import subprocess
import sys

WORKLOADS = ["solo-distinct", "engine-hot", "wire-closed"]
MANIFEST = pathlib.Path(__file__).resolve().parent / "Cargo.toml"


def exact_values(workload, seed, seconds):
    cmd = [
        "cargo", "run", "--release", "--offline", "--quiet",
        "--manifest-path", str(MANIFEST), "--",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "1",
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if out.returncode != 0:
        sys.stderr.write(out.stdout + out.stderr)
        raise SystemExit(f"{workload} seed {seed}: benchmark exited {out.returncode}")
    for line in out.stdout.splitlines():
        if line.startswith("# exact "):
            return json.loads(line[len("# exact "):])
    raise SystemExit(f"{workload} seed {seed}: no '# exact' line in the output")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=2.0)
    parser.add_argument("workloads", nargs="*", default=WORKLOADS)
    args = parser.parse_args()
    failures = 0
    for workload in args.workloads:
        first = exact_values(workload, args.seed, args.seconds)
        again = exact_values(workload, args.seed, args.seconds)
        other = exact_values(workload, args.seed + 1, args.seconds)
        differing = sorted(k for k in first.keys() | again.keys() if first.get(k) != again.get(k))
        same_stream = first["stream_digest"] == other["stream_digest"]
        ok = not differing and not same_stream
        failures += not ok
        print(f"{workload}: {'ok' if ok else 'FAILED'} ({len(first)} exact values)")
        for key in differing:
            print(f"  seed {args.seed} differs on {key}: {first.get(key)} vs {again.get(key)}")
        if same_stream:
            print(f"  seeds {args.seed} and {args.seed + 1} drew the same query stream")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
