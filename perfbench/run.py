"""The repo benchmark: one workload per invocation.

    python3 perfbench/run.py --workload offline_alpha --seed 1 \\
        --seconds 25 --trace 0

Runs from the root of a checkout.  The last line of standard output is
the result record::

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (untraced); ``--trace 1``
reports the per-layer metrics of a traced run, whose spans are written
to ``.perfbench_work/spans/<workload>.jsonl``.  The line before it is a
report with every figure the run produced, the error rate and the host
fingerprint.  A failed correctness check prints ``"correct": false``
and exits with status 1.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import tracing  # noqa: E402

#: The end-to-end metrics of the result line (BENCHMARK.json lists the
#: same).  ``ack_p50_ms`` is in the report line only: on
#: ``live_monitor`` it is a few ms of queueing behind the server thread
#: and doubled between runs of one seed, too unsteady to bound.
END_TO_END = (
    ("setup_s", "s"), ("updates_per_s", "1/s"), ("ack_p99_ms", "ms"),
    ("query_p50_ms", "ms"), ("query_p99_ms", "ms"),
    ("estimate_s", "s"), ("peak_rss_mb", "MB"),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    common.prepare_environment()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    rec = tracing.install(tracing.Recorder()) if args.trace else None
    host = common.fingerprint()
    ticks = common.cpu_ticks()
    try:
        result = WORKLOADS[args.workload](args.seed, rec).run(args.seconds)
    finally:
        if rec is not None:
            rec.uninstall()
    host["cpu_steal_share"] = common.steal_share(ticks, common.cpu_ticks())

    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "host": host,
        "generate_s": result.generate_s,
        "violations": result.violations,
        **result.details,
    }
    if args.trace:
        metrics, detail = layer_values(rec, result, args.workload)
        report["trace_detail"] = detail
        units = dict(tracing.PER_LAYER)
    else:
        metrics = {k: v for k, (v, _) in result.metrics.items()}
        units = dict(END_TO_END)
    report["metrics"] = metrics
    print(json.dumps({"report": report}, default=str))
    print(json.dumps({
        "correct": result.correct,
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    if not result.correct:
        for violation in result.violations:
            print(f"perfbench: {violation}", file=sys.stderr)
        return 1
    return 0


def layer_values(rec, result, workload: str):
    values, detail = tracing.layer_metrics(
        rec, len(result.traced_ups), result.traced_windows)
    # Server and client counters cover every cycle of the run.
    counters = result.details.get("server_counters", {})
    cycles = max(1, result.details["cycles_total"])
    for key in ("frames", "applied", "duplicates", "refused", "shed"):
        values[f"server.{key}"] = counters.get(key, 0) / cycles
    values["client.retries"] = result.details["client_retries"] / cycles
    values["harness.generate_s"] = result.generate_s
    lag = result.generator_lag_ms
    values["harness.generator_lag_p99_ms"] = (
        common.percentile(lag, 99) if lag else 0.0)
    untraced = common.median(result.untraced_ups)
    traced = common.median(result.traced_ups)
    values["trace.overhead"] = untraced / traced - 1.0
    rec.dump(common.WORK / "spans" / f"{workload}.jsonl")
    return values, detail


if __name__ == "__main__":
    raise SystemExit(main())
