"""Run-to-run spread of the end-to-end figures over several seeds.

    python3 perfbench/spread.py --workload exact --seeds 1 2 3 4 5 --seconds 24

Runs the benchmark once per seed, one run at a time, and prints for each
metric its values, median and (Q3 - Q1) / median, the spread that the
metric's bound in BENCHMARK.json has to cover.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from stats import median, quartile_spread

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()
    values: dict = {}
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=True,
        )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} operations failed")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)
    for name, vs in values.items():
        spread = quartile_spread(vs) if len(vs) > 1 else float("nan")
        print(f"{name}: median {median(vs):.6g}, spread {spread:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
