"""Run the benchmark over several seeds and report how far each metric spreads.

    python3 perfbench/repeat.py --workloads theorem sweep --seeds 1-10 [--trace]
        [--record LABEL --note TEXT]

For every workload and seed it runs ``run.py`` with the ``run_seconds`` of
``BENCHMARK.json``, then prints each end-to-end metric's median, quartiles
and spread, the distance between the quartiles as a share of the median.
A spread is flagged when it is not below a third of the metric's bound.
``--trace`` adds one traced run per workload on the first seed.
``--record`` appends the summary, with provenance, as one entry to
``perfbench/trajectory.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    path = HERE / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    record = json.loads(path.read_text(encoding="utf-8"))
    record["run_s"] = time.monotonic() - t0
    return record


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10", type=seed_range)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--record", metavar="LABEL")
    parser.add_argument("--note", default="")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    entry = {"label": args.record, "note": args.note, "seeds": args.seeds,
             "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in args.workloads:
        records = [run(workload, seed, spec["run_seconds"], 0) for seed in args.seeds]
        entry.setdefault("provenance", records[0]["provenance"])
        metrics = {name: spread([r["result"]["metrics"][name]["value"] for r in records])
                   for name in bounds}
        named = {name: statistics.median(r["workload_metrics"][name] for r in records)
                 for name in records[0]["workload_metrics"]}
        summary = {
            "correct": all(r["result"]["correct"] for r in records),
            "attempted": [r["result"]["attempted"] for r in records],
            "failed": [r["result"]["failed"] for r in records],
            "run_s": [r["run_s"] for r in records],
            "metrics": metrics,
            "workload_metrics_median": named,
        }
        print(f"{workload}: correct={summary['correct']} failed={summary['failed']}")
        for name, m in metrics.items():
            flag = "" if m["spread"] < bounds[name] / 3 else "  <-- spread >= bound/3"
            print(f"  {name:12s} median {m['median']:.6g}  spread {m['spread']:.4f}"
                  f"  bound {bounds[name]}{flag}")
        if args.trace:
            traced = run(workload, args.seeds[0], spec["run_seconds"], 1)
            summary["traced"] = {
                "correct": traced["result"]["correct"],
                "per_layer": {k: v["value"] for k, v in traced["result"]["metrics"].items()},
                **{k: traced[k] for k in ("run_s", "traced_wall_s", "timed_span_count",
                                          "span_cost_s", "enumerate_hk_s_per_dag",
                                          "alg_a_share")
                   if k in traced},
            }
            layers = summary["traced"]["per_layer"]
            print("  traced: " + ", ".join(f"{k}={v:.4g}" for k, v in layers.items() if v))
        entry["workloads"][workload] = summary
    if args.record:
        path = HERE / "trajectory.json"
        trajectory = json.loads(path.read_text(encoding="utf-8")) if path.exists() else []
        trajectory.append(entry)
        path.write_text(json.dumps(trajectory, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
