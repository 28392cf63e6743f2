"""Benchmark command for the kiselman package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Every pass runs the workload's whole
job in a fresh, single-threaded interpreter (``child.py``) that imports the
checkout's own ``src/kiselman``.  With ``--trace 0`` the command starts
passes as ``want_another_pass`` says, with set-up-only processes before
and after them until it has ``SETUP_SAMPLES`` set-up samples, and prints
the end-to-end metrics: medians over the passes and set-ups, and
percentiles over the operations of all passes, every time scaled to the
reference speed of ``speed.py``.  With ``--trace 1`` it
runs one traced pass and prints the per-layer metrics.  Metric names and
units come from ``BENCHMARK.json``.  The last line of standard output is
the result object; the full record, with provenance, goes to
``perfbench/results/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("theorem", "sweep", "closure", "canon-long")
SETUP_SAMPLES = 7
RUN_LIMIT_S = 170.0
SINGLE_THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(RuntimeError):
    pass


def spawn(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """Run child.py in a fresh interpreter and return its JSON record."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(SINGLE_THREAD_ENV)
    cmd = [sys.executable, str(HERE / "child.py"), str(ROOT), workload, str(seed), mode]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for another process")
    env["BENCH_SPAWN_MONOTONIC"] = repr(time.monotonic())
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process for {workload} timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} process for {workload} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(passes: list[dict], setups: list[float]) -> dict:
    ops = [t for p in passes for t in p["op_seconds"]]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "op_p50_ms": percentile(ops, 50) * 1e3,
        "op_tail_ms": percentile(ops, passes[0]["tail_q"]) * 1e3,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def named_metrics(workload: str, passes: list[dict]) -> dict:
    """Metrics of one workload only (``words_per_s``, ``maps_per_s``, ...).

    The per-DAG and per-system percentiles are ``op_p50_ms`` and
    ``op_tail_ms`` and are not repeated here.
    """
    def rate(count_key, kind=None):
        done = sum(p["counts"].get(count_key, 0) for p in passes)
        spent = sum(p["op_totals"][kind] if kind else p["wall_s"] for p in passes)
        return done / spent

    attempted = sum(p["attempted"] for p in passes)
    out = {
        "failed_frac": sum(p["failed"] for p in passes) / attempted,
        "refused": sum(p["refused"] for p in passes),
        "ops_per_pass": len(passes[0]["op_seconds"]),
    }
    if workload == "theorem":
        out["words_per_s"] = rate("words")
    elif workload == "closure":
        out["kn_elements_per_s"] = rate("kn_elements", "kn")
        out["maps_per_s"] = rate("maps", "system")
    elif workload == "canon-long":
        out["letters_per_s"] = rate("letters")
    return out


def per_layer(traced: dict) -> dict:
    spans, counts = traced["spans"], traced["counts"]

    def s(name):
        return spans.get(name, {}).get("s", 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    cf_calls = calls("canonical.canonical_form")
    ranked, classes = counts.get("words_ranked", 0), counts.get("hk_classes", 0)
    ops = [row for name, row in spans.items() if name.startswith("op.")]
    op_s = sum(row["s"] for row in ops)
    span_s = traced["timed_span_count"] * traced["span_cost_s"]
    return {
        "kiselman.import_s": traced["import_s"],
        "words.join.calls": calls("words.join"),
        "words.join.s": s("words.join"),
        "words.truncate_set.s": s("words.truncate_set"),
        "canonical.canonical_form.calls": cf_calls,
        "canonical.canonical_form.s": s("canonical.canonical_form"),
        "canonical.canonical_form.us_per_call":
            s("canonical.canonical_form") / cf_calls * 1e6 if cf_calls else 0.0,
        "canonical.canonical_form.len_exponent": traced["len_exponent"],
        "canonical.multiply.s": s("canonical.multiply"),
        "canonical.enumerate_kn.s": s("canonical.enumerate_kn"),
        "canonical.enumerate_kn.elements": counts.get("kn_elements", 0),
        "sds.evolve.calls": calls("sds.evolve"),
        "sds.evolve.s": s("sds.evolve"),
        "sds.local_table.s": s("sds.local_table"),
        "sds.local_table.states": counts.get("table_states", 0),
        "sds.dynamics_monoid.s": s("sds.dynamics_monoid"),
        "sds.dynamics_monoid.maps": counts.get("maps", 0),
        "sds.dynamics_monoid.compositions": counts.get("compositions", 0),
        "sds.dynamics_monoid.state_ops": counts.get("state_ops", 0),
        "sds.check_hk_relations.s": s("sds.check_hk_relations"),
        "sds.random_update_system.s": s("sds.random_update_system"),
        "universal.build_universal.s": s("universal.build_universal"),
        "universal.predicted_state.calls": calls("universal.predicted_state"),
        "universal.predicted_state.s": s("universal.predicted_state"),
        "universal.reconstruct_canonical.s": s("universal.reconstruct_canonical"),
        "hecke.enumerate_hk.s": s("hecke.enumerate_hk"),
        "hecke.kn_quotient_classes.s": s("hecke.kn_quotient_classes"),
        "hecke.alg_a_s": s("hecke.enumerate_hk") - s("hecke.kn_quotient_classes"),
        "hecke.words_ranked": ranked,
        "hecke.words_per_class": ranked / classes if classes else 0.0,
        "hecke.refused": traced["refused"],
        "conjectures.enumerate_dags.s": s("conjectures.enumerate_dags"),
        "conjectures.build_universal_dag.s": s("conjectures.build_universal_dag"),
        # Computed, not measured against a second pass: the machine's drift
        # between two passes is larger than the tracer's cost.
        "trace.overhead_frac": span_s / (traced["raw_wall_s"] - span_s),
        "trace.accounted_frac":
            sum(row["s"] - row["self_s"] for row in ops) / op_s if op_s else 0.0,
    }


def provenance(seed: int, versions: dict) -> dict:
    model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "cores": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": versions.get("numpy"),
        "scipy": versions.get("scipy"),
        "commit": commit,
        "seed": seed,
        "command": shlex.join(["python3", "perfbench/run.py", *sys.argv[1:]]),
    }


def declared_metrics(trace: int) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def want_another_pass(passes: list[dict], seconds: int) -> bool:
    """Passes run until their unscaled timed phases add up to ``seconds``."""
    return sum(p["raw_wall_s"] for p in passes) < seconds


def measure(args) -> tuple[dict, dict]:
    """Run the processes; return the result line and the full record."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    record: dict = {}
    if args.trace:
        traced = spawn(args.workload, args.seed, "traced", deadline)
        passes = [traced]
        values = per_layer(traced)
        record.update(
            traced_wall_s=traced["raw_wall_s"],
            timed_span_count=traced["timed_span_count"],
            span_cost_s=traced["span_cost_s"],
            spans=traced["spans"],
            enumerate_hk_s_per_dag=traced["enumerate_hk_s"],
        )
        if args.workload == "sweep":
            record["alg_a_share"] = values["hecke.alg_a_s"] / traced["raw_wall_s"]
    else:
        # Set-up-only processes run before and after the passes, so that
        # with the passes' own set-ups the samples straddle the timed phase.
        def sample_setup():
            setups.append(spawn(args.workload, args.seed, "setup", deadline))

        setups: list[dict] = []
        for _ in range(SETUP_SAMPLES // 2):
            sample_setup()
        passes = []
        last = 0.0
        while want_another_pass(passes, args.seconds) and \
                time.monotonic() - start + 2 * last < RUN_LIMIT_S:
            t0 = time.monotonic()
            passes.append(spawn(args.workload, args.seed, "pass", deadline))
            setups.append(passes[-1])
            last = time.monotonic() - t0
        while len(setups) < SETUP_SAMPLES:
            sample_setup()
        values = end_to_end(passes, [s["setup_s"] for s in setups])
        record.update(passes=len(passes),
                      setup_samples=[s["setup_s"] for s in setups],
                      raw_setup_samples=[s["raw_setup_s"] for s in setups],
                      pass_wall_s=[p["wall_s"] for p in passes],
                      raw_pass_wall_s=[p["raw_wall_s"] for p in passes],
                      workload_metrics={**values, **named_metrics(args.workload, passes)})
    units = declared_metrics(args.trace)
    if set(values) != set(units):
        raise BenchError(f"metrics {sorted(set(values) ^ set(units))} do not match "
                         "BENCHMARK.json")
    result = {
        "correct": all(p["wrong"] == 0 for p in passes),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    record = {
        "provenance": provenance(args.seed, passes[0]["versions"]),
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "result": result,
        "problems": [p["problems"] for p in passes],
        "counts": [p["counts"] for p in passes],
        **record,
    }
    return result, record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "kiselman" / "__init__.py").is_file():
        print(f"no kiselman package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result, record = measure(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
