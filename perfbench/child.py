"""One benchmark process: set up a workload, run one pass, print one JSON line.

Usage: python3 perfbench/child.py ROOT WORKLOAD SEED MODE

MODE is ``setup`` (set up, then stop where the timed phase would start),
``pass`` (an untraced pass) or ``traced`` (a pass with spans, then a
calibration of what one span costs).  The parent passes its spawn time in
BENCH_SPAWN_MONOTONIC, so ``setup_s`` runs from interpreter start to the
first timed call.  Untraced, a ``speed.Sampler`` runs through the set-up
and the pass; its samples are taken out of every time, and the times are
scaled to the reference speed (the unscaled ones are kept as
``raw_setup_s`` and ``raw_wall_s``).  ``run.py`` starts this script; it is
not meant to be run by hand.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time
from pathlib import Path

import speed


def main(argv: list[str]) -> int:
    root, workload, seed, mode = Path(argv[1]).resolve(), argv[2], int(argv[3]), argv[4]
    spawned = float(os.environ["BENCH_SPAWN_MONOTONIC"])
    sys.path.insert(0, str(root / "src"))
    traced = mode == "traced"
    # the traced pass reports unscaled layer times, so it takes no samples
    sampler = speed.Sampler()
    sampling = contextlib.nullcontext if traced else lambda: sampler
    with sampling():
        paused, t0 = sampler.paused, time.perf_counter()
        import kiselman
        import_s = time.perf_counter() - t0 - (sampler.paused - paused)
        package = Path(kiselman.__file__).resolve()
        if root not in package.parents:
            print(f"kiselman was imported from {package}, outside {root}", file=sys.stderr)
            return 3

        from tracing import NullTracer, Tracer, loglog_slope, span_cost
        from workloads import PRIMARY_OP, WORKLOADS, Recorder

        setup, run_pass = WORKLOADS[workload]
        tr = Tracer() if traced else NullTracer()
        ctx = setup(seed, tr)
        raw_setup_s = time.monotonic() - spawned - sampler.paused
        setup_end = time.perf_counter()
    out = {"workload": workload, "seed": seed, "mode": mode, "import_s": import_s,
           "raw_setup_s": raw_setup_s, "versions": _versions()}
    if not traced:
        out["setup_s"] = raw_setup_s * sampler.scale(float("-inf"), setup_end)
    if mode != "setup":
        rec = Recorder(tr, sampler)
        with sampling():
            pass_problems = run_pass(ctx, rec)
        kind, tail_q = PRIMARY_OP[workload]
        scaled = rec.seconds if traced else rec.scaled()
        out.update(
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            raw_wall_s=rec.wall_s,
            wall_s=sum(sum(v) for v in scaled.values()),
            speed_samples=len(sampler.took),
            op_seconds=scaled.get(kind, []),
            tail_q=tail_q,
            op_totals={k: sum(v) for k, v in scaled.items()},
            attempted=rec.attempted,
            failed=rec.failed,
            wrong=rec.wrong + len(pass_problems),
            refused=rec.refused,
            problems=rec.problems + [(-1, p) for p in pass_problems],
            counts=rec.counts,
        )
        if tr.enabled:
            out["spans"] = tr.table()
            # op spans open before and close after an operation's clock, so
            # only the spans inside them cost timed seconds
            out["timed_span_count"] = tr.count_within("op.")
            out["span_cost_s"] = span_cost()
            out["enumerate_hk_s"] = [s for _, s in tr.durations("hecke.enumerate_hk")]
            out["len_exponent"] = loglog_slope(tr.durations("canonical.canonical_form"))
    print(json.dumps(out))
    return 0


def _versions() -> dict:
    mods = {name: sys.modules.get(name) for name in ("numpy", "scipy")}
    return {name: getattr(m, "__version__", None) for name, m in mods.items()}


if __name__ == "__main__":
    sys.exit(main(sys.argv))
