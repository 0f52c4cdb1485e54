"""The benchmark's own tests: every workload at smoke size.

    python3 -m pytest perfbench/tests -q

Checks metric names and units, span nesting in the traced run, that an
injected query overrun is counted (in the error rate) instead of hanging, that
a renamed trace target is reported absent, and that the command fails
outside a full checkout.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import common  # noqa: E402

common.prepare_environment()

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.api.session import StreamSession  # noqa: E402
from repro.streams.model import FrequencyVector  # noqa: E402

SMOKE_M = 20_000

SMOKE = {
    "offline_alpha": dict(stream_m=SMOKE_M, min_cycles=1),
    "service_ingest": dict(stream_m=SMOKE_M, repeat=1, min_cycles=1,
                           query_rounds=2),
    "live_monitor": dict(stream_m=SMOKE_M, cycle_seconds=0.5,
                         offered_updates_per_s=20_000, queries_per_s=8,
                         min_cycles=1),
}


def smoke(name: str, rec=None):
    return workloads.WORKLOADS[name](1, rec, **SMOKE[name])


def test_benchmark_json_matches_the_command():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    listed = [w["name"] for w in spec["workloads"]]
    assert listed == [n for n in workloads.WORKLOADS if n in listed]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        tracing.PER_LAYER


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_end_to_end_metrics(name):
    result = smoke(name).run(0.01)
    assert result.correct, result.violations
    assert set(run.END_TO_END) <= {
        (k, unit) for k, (_, unit) in result.metrics.items()}
    for key, (value, _) in result.metrics.items():
        assert math.isfinite(value) and value > 0, key
    assert result.attempted >= 1
    assert 0 <= result.failed <= result.attempted


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run(name):
    original = StreamSession.push
    rec = tracing.install(tracing.Recorder())
    try:
        result = smoke(name, rec).run(0.01)
    finally:
        rec.uninstall()
    assert StreamSession.push is original
    assert result.correct, result.violations
    values, detail = run.layer_values(rec, result, f"test-{name}")
    assert set(values) == {n for n, _ in tracing.PER_LAYER}
    assert detail["absent"] == []
    assert values["session.push_s"] > 0
    if name != "offline_alpha":
        assert values["client.send_s"] > 0 and values["client.recv_s"] > 0
    assert 0 < values["trace.attributed_share"] <= 1.0 + 1e-9
    _assert_nested(rec)


def _assert_nested(rec):
    spans = {s.id: s for s in rec.spans}
    assert spans
    for s in spans.values():
        assert s.end >= s.start
        if s.parent:
            parent = spans[s.parent]
            assert parent.thread == s.thread
            assert parent.start <= s.start and s.end <= parent.end
            assert s.trace is parent.trace
    for value in tracing.self_times(list(spans.values())).values():
        assert value >= -1e-9


def _spin(sketch):
    while True:
        pass


class HangingOffline(workloads.OfflineAlpha):
    """The paper battery plus a consumer whose query never returns."""

    query_deadline = 0.2

    def build_session(self, root_seed):
        session = super().build_session(root_seed)
        return session.add("hang", FrequencyVector(common.N_UNIVERSE),
                           query=_spin)


def test_deadline_overrun_is_counted_not_a_hang():
    start = common.clock()
    result = HangingOffline(1, stream_m=SMOKE_M, min_cycles=1).run(0.01)
    assert common.clock() - start < 60
    assert result.correct, result.violations
    assert result.details["query_overruns"]["hang"] == 1
    assert result.details["overruns"] >= 1
    assert result.details["error_rate"] >= 1 / result.attempted


def test_offline_query_percentiles_leave_overruns_out_of_p99():
    def cycle(**times):
        return workloads.Cycle(query_by_name=times)

    cycles = [cycle(a=1.0, b=10.0, c=100.0, hang=None),
              cycle(a=3.0, b=30.0, c=300.0, hang=5.0),
              cycle(a=2.0, b=20.0, c=200.0, hang=5.0)]
    w = workloads.OfflineAlpha(1)
    deadline_ms = w.query_deadline * 1e3
    # p50 over a, b, c and the consumer that overran once, at the deadline
    assert w.query_percentile(cycles, 50) == pytest.approx((20 + 200) / 2)
    assert w.query_percentile(cycles, 99) < 200 < deadline_ms
    assert w.query_percentile(cycles, 99) > 190
    assert w.estimate(cycles) == pytest.approx(
        (2 + 20 + 200) / 1e3 + w.query_deadline)


def test_missing_trace_target_is_absent():
    rec = tracing.Recorder()
    assert not rec.patch("repro.api.session:StreamSession.renamed_away",
                         lambda fn: fn)
    assert not rec.patch("repro.no_such_module:thing", lambda fn: fn)
    assert rec.absent == ["repro.api.session:StreamSession.renamed_away",
                          "repro.no_such_module:thing"]
    rec.uninstall()


def test_states_match_sees_a_real_difference():
    def session(last_item):
        s = StreamSession(64, seed=1).track("countmin").track("alpha_l0")
        s.push([1, 2, 3, last_item], [1, 1, 1, 1])
        return s.snapshot()

    assert common.states_match(session(5), session(5)) == (True, True)
    assert common.states_match(session(5), session(6)) == (False, False)


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "offline_alpha",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
