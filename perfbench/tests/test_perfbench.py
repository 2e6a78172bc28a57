"""Self-tests of the benchmark's own logic.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/tests

None of these time the program: they check normalisation, the
percentile rule, failure accounting and metric naming on synthetic
inputs, plus that the entry point refuses to run without the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import run as bench_run  # noqa: E402
from perfbench.probe import REFERENCE_PROBE_S, Normaliser  # noqa: E402
from perfbench.stats import result_line, supported_percentile, tail_percentile  # noqa: E402
from perfbench.workloads import WORKLOADS, Drain, Unit  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E_UNITS = {m["name"]: m["unit"] for m in CONFIG["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in CONFIG["per_layer"]}


class FakeHost:
    """A clock that advances only when simulated work runs; ``speed``
    divides every duration (0.5 = a host twice as slow)."""

    def __init__(self, speed=1.0):
        self.now = 0.0
        self.speed = speed

    def clock(self):
        return self.now

    def work(self, seconds):
        self.now += seconds / self.speed


def _normalised(speeds, work=0.02, probe=REFERENCE_PROBE_S):
    """Normalised durations of one timed call per entry of ``speeds``;
    the host speed changes just before each call."""
    host = FakeHost()
    norm = Normaliser(probe=lambda: host.work(probe), clock=host.clock)
    norm.start()
    out = []
    for speed in speeds:
        host.speed = speed
        _, raw, n = norm.call(host.work, work)
        out.append((raw, n))
    return out


def test_normalisation_cancels_a_uniformly_slowed_host():
    quiet = _normalised([1.0] * 5)
    slow = _normalised([0.5] * 5)
    for (raw_q, norm_q), (raw_s, norm_s) in zip(quiet[1:], slow[1:]):
        assert raw_s == pytest.approx(2 * raw_q)
        assert norm_s == pytest.approx(norm_q) == pytest.approx(0.02)


def test_interval_uses_mean_of_probes_on_either_side():
    host = FakeHost()
    probes = iter([1e-3] * 3 + [3e-3] * 3)
    norm = Normaliser(probe=lambda: host.work(next(probes)), clock=host.clock)
    norm.start()
    _, raw, n = norm.call(host.work, 0.1)
    assert raw == pytest.approx(0.1)
    assert n == pytest.approx(0.1 * REFERENCE_PROBE_S / 2e-3)
    assert norm.factor_at(host.now - 0.05) == pytest.approx(REFERENCE_PROBE_S / 2e-3)


def test_window_median_drops_a_jittered_probe():
    host = FakeHost()
    durations = iter([REFERENCE_PROBE_S] * 3 * 5 + [4 * REFERENCE_PROBE_S] * 3)
    norm = Normaliser(probe=lambda: host.work(next(durations)), clock=host.clock)
    norm.start()
    out = [norm.call(host.work, 0.01)[2] for _ in range(5)]
    assert out == pytest.approx([0.01] * 5)


def test_factor_at_scales_spans_inside_a_slowed_call():
    host = FakeHost(speed=0.5)
    norm = Normaliser(probe=lambda: host.work(REFERENCE_PROBE_S), clock=host.clock)
    norm.start()
    start = host.now
    norm.call(host.work, 0.01)
    assert norm.factor_at(start + 1e-3) == pytest.approx(0.5)
    assert norm.factor_at(host.now + 1.0) == 1.0


def test_p90_needs_ten_samples_beyond_it():
    value, reason = tail_percentile(range(1, 100), 90)
    assert value is None and "99 samples" in reason and "p89" in reason
    value, reason = tail_percentile(range(1, 101), 90)
    assert (value, reason) == (90.0, None)
    assert supported_percentile(100) == 90
    assert supported_percentile(25) == 60
    assert tail_percentile([], 50) == (None, "no samples")


def _drain(digest="d", attempted=5, failed=0):
    return Drain(digest=digest, counts={"n": 1}, qualities=[1.0], samples=[0.01],
                 raw_samples=[0.01], raw_s=0.01, norm_s=0.01, attempted=attempted, failed=failed)


def _fake_run(expected, seed=1):
    fake = SimpleNamespace(
        errors=[], mismatches=[], units=[SimpleNamespace(tasks=5, index=0)],
        expected=expected, seed=seed, workload=SimpleNamespace(name="stream"),
    )
    fake._compare = lambda *a, **k: bench_run.Run._compare(fake, *a, **k)
    return fake


def _record(*drains):
    return {"1": {"units": [bench_run.unit_key(d) for d in drains]}}


def test_digest_mismatch_fails_every_operation():
    fake = _fake_run(expected=_record(_drain(digest="other")))
    drains = {0: [_drain(), _drain()]}
    bench_run.Run.check(fake, drains)
    assert fake.mismatches == ["seed 1: unit 0 differs from the record"]
    assert bench_run._outcome(fake, drains) == (False, 10, 10)


def test_every_unit_of_a_recorded_seed_is_checked():
    fake = _fake_run(expected=_record(_drain(), _drain(), _drain(digest="x")))
    fake.units = [SimpleNamespace(tasks=5, index=i) for i in range(3)]
    drains = {i: [_drain()] for i in range(3)}
    bench_run.Run.check(fake, drains)
    assert fake.mismatches == ["seed 1: unit 2 differs from the record"]


def test_a_prefix_of_the_record_is_checked():
    fake = _fake_run(expected=_record(_drain(), _drain(digest="x")))
    bench_run.Run.check(fake, {0: [_drain()]})
    assert fake.mismatches == []


def test_another_seed_redrains_one_pinned_unit():
    record = _record(_drain(), _drain(), _drain(digest="x"))
    drained = []

    class Pinned:
        units = 3

        def open(self):
            pass

        close = open

        def generate(self, seed, index):
            drained.append((seed, index))
            return index

        def construct(self, unit):
            return None

        def drain(self, stack, unit, norm):
            return _drain()

    fake = _fake_run(expected=record, seed=5)
    fake.workload = Pinned()
    fake.fail = lambda: pytest.fail("the re-drain raised")
    bench_run.Run.check(fake, {0: [_drain()]})
    assert drained == [(bench_run.PINNED_SEED, 5 % 3)]
    assert fake.mismatches == ["seed 1: unit 2 differs from the record"]


def test_drains_that_disagree_fail_the_run():
    fake = _fake_run(expected=_record(_drain()))
    drains = {0: [_drain(), _drain(digest="e")]}
    bench_run.Run.check(fake, drains)
    assert fake.mismatches == ["unit 0: drains disagree"]
    assert bench_run._outcome(fake, drains)[0] is False


def test_matching_digest_keeps_program_failures_only():
    fake = _fake_run(expected=_record(_drain()))
    drains = {0: [_drain(failed=1), _drain(failed=1)]}
    bench_run.Run.check(fake, drains)
    assert bench_run._outcome(fake, drains) == (True, 10, 2)


def test_an_exception_fails_every_operation():
    fake = _fake_run({})
    fake.errors.append("Traceback ...")
    assert bench_run._outcome(fake, {0: [_drain()]}) == (False, 10, 10)


class _FailingWorkload:
    """A workload whose drains (or, with ``fail_in="generate"``, whose
    set-up) always raise."""

    name = "stream"
    expected_key = "stream"
    units = 3
    fail_in = "drain"

    def __init__(self, scratch):
        self.drains = 0

    def generate(self, seed, index):
        if self.fail_in == "generate":
            raise RuntimeError("generate broke")
        return Unit(index=index, seed=seed, data=None, tasks=4, events=1, workers=1)

    def open(self):
        pass

    def close(self):
        pass

    def construct(self, unit):
        return None

    def drain(self, stack, unit, norm):
        self.drains += 1
        raise RuntimeError("drain broke")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("fail_in", ["drain", "generate"])
def test_a_run_that_always_raises_still_reports(monkeypatch, tmp_path, trace, fail_in):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.setattr(bench_run, "ROOT", tmp_path)
    monkeypatch.setitem(WORKLOADS, "stream", _FailingWorkload)
    monkeypatch.setattr(_FailingWorkload, "fail_in", fail_in)
    units = LAYER_UNITS if trace else E2E_UNITS
    run = bench_run.Run("stream", 1, 60.0, {})
    diagnostics, line = bench_run.execute(run, bool(trace), 60.0, units)
    result = json.loads(line)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert diagnostics["errors"] >= 1
    # measuring stops at the first failed drain instead of running on
    assert run.workload.drains == (1 if fail_in == "drain" else 0)
    if fail_in == "drain":
        assert result["attempted"] == 3 * 4


def test_stream_and_durable_share_one_recorded_plan():
    assert WORKLOADS["durable"].expected_key == WORKLOADS["stream"].expected_key
    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())
    for name, workload in WORKLOADS.items():
        record = expected[workload.expected_key]
        assert set(record) == {str(bench_run.PINNED_SEED), str(bench_run.HELD_OUT_SEED)}
        for seed in record.values():
            assert len(seed["units"]) >= workload.units, name


def _fake_measured_run():
    norm = Normaliser()
    norm.probes = [4e-4, 5e-4]
    drain = _drain()
    drain.samples = drain.raw_samples = [0.01] * 120
    drain.extras = {"ops": dict.fromkeys(
        ("gain_evaluations", "slot_evaluations", "knn_queries", "iterations",
         "virtual_cost"), 1)}
    parts = {p: [1.0, 1.0] for p in ("import", "generate", "build")}
    fake = SimpleNamespace(
        norm=norm, setup_norm=norm, setups=[parts], errors=[],
        units=[SimpleNamespace(tasks=5, index=0, events=3, workers=2)],
        workload=SimpleNamespace(name="stream", close=lambda: None),
    )
    fake.setup_metric = lambda part=None, index=1: bench_run.Run.setup_metric(fake, part, index)

    def cycle(drains, tracer=None):
        drains.setdefault(0, []).append(drain)
        return [drain]

    fake.cycle = cycle
    return fake, {0: [drain]}


def test_every_end_to_end_metric_is_emitted_with_its_unit():
    fake, drains = _fake_measured_run()
    metrics, _ = bench_run.end_to_end(fake, drains)
    line = json.loads(result_line(correct=True, attempted=1, failed=0,
                                  metrics=metrics, units=E2E_UNITS))
    assert {k: v["unit"] for k, v in line["metrics"].items()} == E2E_UNITS


def test_too_few_decisions_report_the_slowest_as_p90():
    fake, drains = _fake_measured_run()
    drains[0][0].samples = drains[0][0].raw_samples = [0.01] * 49 + [0.05]
    metrics, raw = bench_run.end_to_end(fake, drains)
    assert metrics["epoch_p90_ms"] == pytest.approx(50.0)
    assert "p90 needs 10 samples beyond it" in raw["epoch_p90_note"]


def test_p50_counts_only_decisions_that_admit_a_task():
    fake, drains = _fake_measured_run()
    drain = drains[0][0]
    drain.samples = drain.raw_samples = [0.001] * 70 + [0.02] * 50
    drain.admitting = [False] * 70 + [True] * 50
    metrics, raw = bench_run.end_to_end(fake, drains)
    assert metrics["epoch_p50_ms"] == pytest.approx(20.0)
    assert raw["epoch_p50_ms"] == pytest.approx(20.0)
    assert raw["admitting_samples"] == 50 and raw["samples"] == 120
    drain.admitting = None  # a workload whose every decision admits
    assert bench_run.end_to_end(fake, drains)[0]["epoch_p50_ms"] == pytest.approx(1.0)


def test_every_per_layer_metric_is_emitted_with_its_unit():
    fake, _ = _fake_measured_run()
    metrics, _, _ = bench_run.per_layer(fake, seconds=0)
    line = json.loads(result_line(correct=True, attempted=1, failed=0,
                                  metrics=metrics, units=LAYER_UNITS))
    assert {k: v["unit"] for k, v in line["metrics"].items()} == LAYER_UNITS


def test_result_line_rejects_a_missing_or_extra_metric():
    with pytest.raises(ValueError, match="missing"):
        result_line(correct=True, attempted=1, failed=0, metrics={}, units={"a": "s"})
    with pytest.raises(ValueError, match="extra"):
        result_line(correct=True, attempted=1, failed=0,
                    metrics={"a": 1.0, "b": 2.0}, units={"a": "s"})


def test_prediction_map_covers_every_per_layer_metric():
    predictions = json.loads((ROOT / "perfbench" / "predictions.json").read_text())
    assert set(predictions) == set(LAYER_UNITS)
    workloads = {w["name"] for w in CONFIG["workloads"]}
    e2e = set(E2E_UNITS)
    for name, entry in predictions.items():
        assert set(entry["moves"]) <= e2e, name
        assert set(entry["exercised_on"]) | set(entry["bypassed_on"]) == workloads, name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
