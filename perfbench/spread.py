"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 perfbench/spread.py --seeds 10 --trace-seed 1 --out perfbench/BENCH_baseline.json
    python3 perfbench/spread.py --seeds 5 --workloads wide-row

For every workload and end-to-end metric it prints the median, the quartiles
(statistics.quantiles(values, n=4)) and the quartile spread as a share of
the median, next to the metric's bound from BENCHMARK.json; a spread under
a third of the bound is marked steady. Seeds run from 1. With --trace-seed
it adds one traced run per workload and keeps its per-layer metrics. --out
writes the summary, environment included, as JSON.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

import run


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    lines, result = run.run_child(workload, seed, seconds, trace)
    if result is None:
        raise SystemExit(f"{workload} seed {seed} failed")
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    return {"result": result, "env": env}


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--workloads", nargs="+", default=names, choices=names)
    ap.add_argument("--trace-seed", type=int, help="also make one traced run per workload")
    ap.add_argument("--out", help="write the summary JSON here")
    args = ap.parse_args()

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    seeds = list(range(1, args.seeds + 1))
    summary = {"seconds": args.seconds, "seeds": seeds, "trace_seed": args.trace_seed,
               "env": None, "workloads": {}}
    for workload in args.workloads:
        runs = [run_once(workload, seed, args.seconds, 0) for seed in seeds]
        summary["env"] = runs[-1]["env"]
        entry = {
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "end_to_end": {},
        }
        print(f"== {workload}: {entry['failed']}/{entry['attempted']} operations failed")
        for name, metric in bounds.items():
            stats = summarize([r["result"]["metrics"][name]["value"] for r in runs])
            entry["end_to_end"][name] = stats
            steady = "steady" if stats["spread"] < metric["bound"] / 3 else "NOT steady"
            print(
                f"  {name:<18} median {stats['median']:<12.6g} q1 {stats['q1']:<12.6g} "
                f"q3 {stats['q3']:<12.6g} spread {stats['spread']:.3f} "
                f"(bound {metric['bound']}) {steady}"
            )
        if args.trace_seed is not None:
            traced = run_once(workload, args.trace_seed, args.seconds, 1)["result"]
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            for name, value in entry["per_layer"].items():
                print(f"  {name:<45} {value:.6g}")
        summary["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
