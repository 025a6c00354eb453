"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload verify-k3 --seeds 1-10
    python3 bench/spread.py --all --seeds 1-10 --sets 2 --out bench/baseline.json

Runs `run.py` once per seed, one run at a time, for `--seconds` (by
default the run length BENCHMARK.json fixes), and reports for every
metric the median, the quartiles (statistics.quantiles, n=4) and the
interquartile range as a share of the median: the spread the bounds in
BENCHMARK.json are set against.  With `--sets 2` the whole measurement
is made twice and the summary also says, per metric, how much worse the
second set's median is than the first's, next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
BOUNDS = {m["name"]: m for m in SPEC["end_to_end"]}


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} incorrect:\n{proc.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "q1": q1, "median": median, "q3": q3,
            "iqr_share": (q3 - q1) / median}


def measure(workloads, seed_list, seconds) -> dict:
    out = {"started": time.strftime("%H:%M UTC", time.gmtime()), "workloads": {}}
    for workload in workloads:
        runs = [run(workload, seed, seconds) for seed in seed_list]
        summary = {name: summarize([r[name] for r in runs]) for name in runs[0]}
        out["workloads"][workload] = summary
        for name, s in summary.items():
            print(f"{workload:13s} {name:13s} median {s['median']:.6g}  "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
                  f"iqr/median {s['iqr_share']:.4f}  "
                  f"values {' '.join(f'{v:.4g}' for v in s['values'])}", flush=True)
    return out


def agreement(sets: list[dict]) -> dict:
    """IQR/median per set and how much worse the last median is than the first."""
    out = {}
    for workload, metrics in sets[0]["workloads"].items():
        for name, first in metrics.items():
            last = sets[-1]["workloads"][workload][name]
            spec = BOUNDS[name]
            change = (last["median"] - first["median"]) / first["median"]
            worse = change if spec["better"] == "lower" else -change
            out[f"{workload} {name}"] = {
                "bound": spec["bound"],
                "iqr_share": [round(s["workloads"][workload][name]["iqr_share"], 4)
                              for s in sets],
                "second_median_worse_by": round(worse, 4)}
            print(f"{workload:13s} {name:13s} bound {spec['bound']}  "
                  f"iqr/median {out[f'{workload} {name}']['iqr_share']}  "
                  f"last median worse by {worse:.4f}", flush=True)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=WORKLOADS)
    which.add_argument("--all", action="store_true")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--out", default=None, help="write the summary as JSON")
    args = parser.parse_args(argv)

    workloads = WORKLOADS if args.all else (args.workload,)
    report = {"host": f"{platform.machine()}, Python {platform.python_version()}",
              "seconds": args.seconds, "seeds": args.seeds,
              "sets": [measure(workloads, seeds(args.seeds), args.seconds)
                       for _ in range(args.sets)]}
    if args.sets > 1:
        report["agreement"] = agreement(report["sets"])
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
