"""Run every workload over a range of seeds and report each metric's spread.

    python3 perfbench/steadiness.py --seeds 1-10 --seconds 10
    python3 perfbench/steadiness.py --seeds 11-20 --seconds 10 --compare first.json

For each workload and end-to-end metric this prints the median over the
seeds, the quartiles, and the spread (third minus first quartile, as a share
of the median) next to the metric's bound in BENCHMARK.json.  A spread above
a third of the bound is flagged ``WIDE``; ``setup_s`` has no spread limit.
With ``--compare``, a median worse than the earlier file's by more than the
bound is flagged ``WORSE``.  The last line of output is the summary as JSON,
which ``--compare`` reads back.
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


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=600, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, such as 1-10")
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--workloads", default=None, help="comma-separated; default: all of BENCHMARK.json")
    parser.add_argument("--compare", type=Path, default=None, help="summary printed by an earlier run")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    earlier = json.loads(args.compare.read_text().splitlines()[-1]) if args.compare else {}
    summary: dict = {}
    for workload in names:
        runs = [run_once(workload, seed, seconds) for seed in seed_range(args.seeds)]
        summary[workload] = {}
        print(f"{workload}: correct {[r['correct'] for r in runs]}, failed {[r['failed'] for r in runs]}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            flags = []
            if name != "setup_s" and spread > bound / 3:
                flags.append("WIDE")
            before = earlier.get(workload, {}).get(name)
            if before:
                change = (median - before["median"]) / before["median"]
                if (change if metric["better"] == "lower" else -change) > bound:
                    flags.append("WORSE")
            summary[workload][name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}
            print(f"  {name:14s} median {median:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {spread:7.4f}  bound {bound:5.3f}  {' '.join(flags)}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
