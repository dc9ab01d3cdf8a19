"""Run every workload over several seeds and summarise the spread.

    python3 bench/record.py --seeds 1-10 --out bench/trajectory/BENCH_0.json

Runs ``bench/run.py`` once per workload and seed, one run at a time, as
``BENCHMARK.json`` describes, then one traced run per workload.  For each
end-to-end metric it reports the median, the quartiles and the spread (the
distance between the quartiles as a share of the median) next to the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(command, workload, seed, seconds, trace) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", str(trace)]
    began = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - began
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    record = json.loads((ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    record.pop("spans", None)
    result["record"] = record
    result["wall_s"] = wall
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range such as 1-10")
    parser.add_argument("--out", default=None, help="write the summary JSON here")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"run_seconds": bench["run_seconds"], "seeds": seeds(args.seeds), "workloads": {}}
    for name in names:
        runs = [
            run_once(bench["command"], name, seed, bench["run_seconds"], 0)
            for seed in seeds(args.seeds)
        ]
        entry = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "environment": [r["record"]["environment"] for r in runs],
            "end_to_end": {},
        }
        entry["wall_s"] = [r["wall_s"] for r in runs]
        print(
            f"== {name}: {entry['failed']} failed of {entry['attempted']}; "
            f"run wall {min(entry['wall_s']):.0f}-{max(entry['wall_s']):.0f} s"
        )
        for metric, bound in bounds.items():
            stats = summary([r["metrics"][metric]["value"] for r in runs])
            stats["bound"] = bound
            entry["end_to_end"][metric] = stats
            flag = "" if stats["spread"] < bound / 3 or metric == "setup_s" else "  <-- wide"
            print(
                f"  {metric:14} median {stats['median']:10.4g}  "
                f"spread {stats['spread']:6.3f}  bound {bound}{flag}"
            )
        traced = run_once(bench["command"], name, seeds(args.seeds)[0], bench["run_seconds"], 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["traced_record"] = traced["record"]
        report["workloads"][name] = entry
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
