#!/usr/bin/env python3
"""Live-path benchmark of the PowerAPI reproduction.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig3-jbb --seed 1 --seconds 10 --trace 0

``--workload`` is ``fig3-jbb``, ``overhead-1s``, ``tenants-stream`` or
``all`` (each workload in its own process, one after the other).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs half
the budget traced and prints the per-layer table.  The last line of
standard output is the JSON result.  See ``perfbench/README.md``.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402 - the clock above must start first
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("fig3-jbb", "overhead-1s", "tenants-stream")
#: Per-workload wall limit when ``--workload all`` runs them in turn.
CHILD_TIMEOUT_S = 900


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
            check=False)
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0 or not lines:
            print(f"perfbench: {name} exited with {child.returncode}",
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package at {SRC / 'repro'}; run from the root "
              "of a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(ROOT), str(SRC)]
    from perfbench import bench
    return bench.run(args.workload, args.seed, args.seconds,
                     bool(args.trace), time.perf_counter() - _STARTED)


if __name__ == "__main__":
    sys.exit(main())
