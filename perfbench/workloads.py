"""The four workloads, driven only through the program's public entry
points.

Every workload is a list of *units* built from the run's seed; one
timed *drain* serves one unit through a freshly constructed stack:

* ``stream``  — one event trace through the single-core online stack
  (numpy backend; no journal, shard or telemetry layer), stepped with
  ``begin`` / ``pending_work`` / ``step_epoch`` / ``finish``.  The
  decision unit is one ``step_epoch``.
* ``durable`` — the first 16 of the same traces (same seeds, so the
  same plans) through stream + journal (``snapshot_every=4``, ``sync=False``) +
  telemetry writing a trace file.  Decision unit: one ``step_epoch``.
* ``sharded`` — short micro-batch traces through ``shards=4`` with the
  process executor (``max_workers=2``, one warm pool per run), one
  monolithic ``ShardedStreamingServer.run`` per drain.  The process
  executor runs every epoch of a shard inside a worker, so the
  decision unit the parent can time is one drain.
* ``offline`` — plain-mode one-shot batches (``build_scenario`` +
  ``build_serving_solver(...).assign``) on the paper's greedy/CELF
  solver with cost tables.  Decision unit: one batch.

Each module import happens inside the functions, at call time, so a
set-up repetition that re-imports ``repro`` is served by the modules
it imported.
"""

from __future__ import annotations

import hashlib
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["WORKLOADS", "Drain", "Unit", "unit_seed", "plan_digest"]

#: Trace shape shared by ``stream`` and ``durable``.
STREAM_TRACE = dict(horizon=150, task_rate=0.2)
#: Admission window of every stream workload.  A queued task starts
#: aging at its arrival, so one that waits about its whole 24-slot
#: window is admitted with nothing left to buy and starves.  With the
#: default window of 8 (about 1/3 task per slot) a Poisson burst at
#: 0.2 tasks/slot still queued a task for 15-18 slots in 10 of 300
#: traces, and some seeds starved a task.  A window of 16 holds about
#: three times the tasks a 24-slot window receives on average: no
#: queue formed in 300 traces of random seeds, and 2500 20-slot
#: ``sharded`` traces, whose shards each admit their own 16, failed
#: no task.
ADMISSION = dict(max_active_tasks=16)
STREAM_UNITS = 20
#: ``durable`` drains the first 16 of the same traces, so that its
#: slower drains keep a run near the others' length.
DURABLE_UNITS = 16
#: Micro-batch traces for ``sharded``: short enough that a run holds
#: the 100 drains its tail percentile needs, each a distinct trace so
#: that a run serves ~650 tasks and one seed's arrival counts do not
#: set the run's time.
SHARDED_TRACE = dict(horizon=20, task_rate=0.35)
SHARDED_UNITS = 100
#: ``offline``: scenarios of ~1000 workers at m=100, cut into batches
#: of ``OFFLINE_BATCH`` tasks served one-shot.
OFFLINE_SCENARIO = dict(tasks=8, slots=100, workers=1000)
OFFLINE_SCENARIOS = 2
OFFLINE_BATCH = 2


def unit_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th input of a run with workload seed ``seed``."""
    return seed * 1000 + index


def plan_digest(signature) -> str:
    """Short stable digest of a ``plan_signature()`` tuple."""
    return hashlib.sha256(repr(tuple(signature)).encode()).hexdigest()[:16]


@dataclass
class Unit:
    """One input the workload drains per timed call."""

    index: int
    seed: int
    data: object
    tasks: int
    events: int
    workers: int


@dataclass
class Drain:
    """What one timed drain of one unit produced."""

    digest: str
    counts: dict
    qualities: list
    #: Probe-normalised seconds of each decision (epoch or batch).
    samples: list
    #: The same decisions in raw seconds.
    raw_samples: list
    raw_s: float
    norm_s: float
    attempted: int
    failed: int
    extras: dict = field(default_factory=dict)
    #: Per decision, whether it admitted a task (None: every one did).
    admitting: list | None = None

    def admitting_samples(self, raw: bool = False) -> list:
        """Normalised (or ``raw``) seconds of the decisions that
        admitted a task."""
        samples = self.raw_samples if raw else self.samples
        if self.admitting is None:
            return list(samples)
        return [s for s, admits in zip(samples, self.admitting) if admits]


def _stream_spec(seed: int, **extra):
    from repro.runtime import RunSpec, WorkloadSpec

    return RunSpec(
        mode="stream",
        backend="numpy",
        workload=WorkloadSpec(seed=seed, **STREAM_TRACE),
        **ADMISSION,
        **extra,
    )


def _ops(*counters) -> dict:
    """The op counts the per-layer metrics report, summed."""
    return {
        "gain_evaluations": sum(c.gain_evaluations for c in counters),
        "slot_evaluations": sum(c.slot_evaluations for c in counters),
        "knn_queries": sum(c.knn_queries for c in counters),
        "iterations": sum(c.iterations for c in counters),
        "virtual_cost": sum(c.virtual_cost() for c in counters),
    }


def _stream_counts(metrics, assignment) -> dict:
    return {
        "arrived": metrics.tasks_arrived,
        "admitted": metrics.tasks_admitted,
        "rejected": metrics.tasks_rejected,
        "completed": metrics.tasks_completed,
        "starved": metrics.tasks_starved,
        "epochs": metrics.epochs,
        "subtasks": len(assignment),
    }


class StreamWorkload:
    """Single-core online stack, stepped epoch by epoch."""

    name = "stream"
    expected_key = "stream"
    units = STREAM_UNITS

    def __init__(self, scratch: Path):
        self.scratch = scratch

    def spec(self, seed: int, index: int):
        return _stream_spec(seed)

    def generate(self, seed: int, index: int) -> Unit:
        from repro.runtime import StreamRuntime

        seed = unit_seed(seed, index)
        scenario = StreamRuntime(self.spec(seed, index)).scenario()
        return Unit(
            index=index,
            seed=seed,
            data=scenario,
            tasks=scenario.task_count,
            events=len(scenario.events),
            workers=scenario.worker_count,
        )

    def open(self) -> None:
        """Run-wide resources (none for a single-core stack)."""

    def close(self) -> None:
        pass

    def construct(self, unit: Unit):
        from repro.runtime import StreamRuntime

        runtime = StreamRuntime(self.spec(unit.seed, unit.index), scenario=unit.data)
        runtime.server  # the stack is built lazily; build it here
        return runtime

    def drain(self, runtime, unit: Unit, norm) -> Drain:
        server = runtime.server
        raw = norm_s = 0.0
        samples, raw_samples, admitting = [], [], []
        # ``begin`` returns the run's live metrics, which every epoch
        # updates.
        live, r, n = norm.call(server.begin, list(unit.data.events))
        raw += r
        norm_s += n
        while server.pending_work():
            admitted = live.tasks_admitted
            _, r, n = norm.call(server.step_epoch)
            raw += r
            norm_s += n
            samples.append(n)
            raw_samples.append(r)
            admitting.append(live.tasks_admitted > admitted)
        metrics, r, n = norm.call(server.finish)
        raw += r
        norm_s += n
        assignment = server.assignment()
        return Drain(
            digest=plan_digest(assignment.plan_signature()),
            counts=_stream_counts(metrics, assignment),
            qualities=list(metrics.promised_quality.values()),
            samples=samples,
            raw_samples=raw_samples,
            raw_s=raw,
            norm_s=norm_s,
            attempted=metrics.tasks_arrived,
            failed=metrics.tasks_rejected + metrics.tasks_starved,
            admitting=admitting,
            extras={
                "queue_depth_max": metrics.max_queue_depth,
                "assign_latencies": list(metrics.assignment_latencies),
                "ops": _ops(metrics.counters),
                **self.after_drain(runtime),
            },
        )

    def after_drain(self, runtime) -> dict:
        """Untimed work after a drain; returns layer extras."""
        return {}


class DurableWorkload(StreamWorkload):
    """The stream traces through journal + telemetry layers."""

    name = "durable"
    expected_key = "stream"
    units = DURABLE_UNITS

    def spec(self, seed: int, index: int):
        root = self.scratch / "durable"
        return _stream_spec(
            seed,
            journal=str(root / f"journal-{index}"),
            snapshot_every=4,
            sync=False,
            telemetry=True,
            trace_out=str(root / f"trace-{index}.jsonl"),
        )

    def open(self) -> None:
        (self.scratch / "durable").mkdir(parents=True, exist_ok=True)

    def close(self) -> None:
        shutil.rmtree(self.scratch / "durable", ignore_errors=True)

    def after_drain(self, runtime) -> dict:
        from repro.journal.layer import journal_layer

        # StreamRuntime.run() finishes the telemetry bundle itself; a
        # stepped drain must do it to write the summary and close the
        # trace file.
        telemetry = runtime._telemetry
        telemetry.finish()
        return {
            "snapshot_bytes": journal_layer(runtime.server).journal.snapshot_bytes,
            "obs_records": telemetry.recorder.next_seq,
            "trace_bytes": Path(telemetry.trace_path).stat().st_size,
        }


class ShardedWorkload:
    """Micro-batch traces through four shards on two worker processes."""

    name = "sharded"
    expected_key = "sharded"
    units = SHARDED_UNITS

    def __init__(self, scratch: Path):
        self.scratch = scratch
        self.executor = None

    def spec(self, seed: int):
        from repro.runtime import RunSpec, WorkloadSpec

        return RunSpec(
            mode="stream",
            backend="numpy",
            shards=4,
            executor="process",
            max_workers=2,
            workload=WorkloadSpec(seed=seed, **SHARDED_TRACE),
            **ADMISSION,
        )

    def generate(self, seed: int, index: int) -> Unit:
        from repro.runtime import StreamRuntime

        seed = unit_seed(seed, index)
        scenario = StreamRuntime(self.spec(seed)).scenario()
        return Unit(
            index=index,
            seed=seed,
            data=scenario,
            tasks=scenario.task_count,
            events=len(scenario.events),
            workers=scenario.worker_count,
        )

    def open(self) -> None:
        from repro.par.executor import Executor

        # One warm pool for the run, as the bench suites share one
        # across a sweep; workers start on the first drain.
        self.executor = Executor("process", max_workers=2, persistent=True)

    def close(self) -> None:
        if self.executor is not None:
            self.executor.close()
            self.executor = None

    def construct(self, unit: Unit):
        from repro.runtime import StreamRuntime

        runtime = StreamRuntime(
            self.spec(unit.seed), scenario=unit.data, executor=self.executor
        )
        runtime.server
        return runtime

    def drain(self, runtime, unit: Unit, norm) -> Drain:
        server = runtime.server
        metrics, raw, norm_s = norm.call(server.run, list(unit.data.events))
        assignment = server.assignment()
        per_shard_events = [m.total_events for m in metrics.per_shard]
        mean_events = sum(per_shard_events) / len(per_shard_events)
        return Drain(
            digest=plan_digest(assignment.plan_signature()),
            counts=_stream_counts(metrics, assignment),
            qualities=list(metrics.promised_quality.values()),
            samples=[norm_s],
            raw_samples=[raw],
            raw_s=raw,
            norm_s=norm_s,
            attempted=metrics.tasks_arrived,
            failed=metrics.tasks_rejected + metrics.tasks_starved,
            extras={
                "replication": metrics.shard_stats()["halo_replication_factor"],
                "skew": max(per_shard_events) / mean_events if mean_events else 1.0,
                "ops": _ops(*(m.counters for m in metrics.per_shard)),
            },
        )


class OfflineWorkload:
    """Plain-mode one-shot batches on the greedy/CELF solver."""

    name = "offline"
    expected_key = "offline"
    units = OFFLINE_SCENARIOS * (OFFLINE_SCENARIO["tasks"] // OFFLINE_BATCH)

    def __init__(self, scratch: Path):
        self.scratch = scratch
        self._scenarios: dict[int, object] = {}

    def spec(self, seed: int):
        from repro.runtime import RunSpec, WorkloadSpec

        return RunSpec(
            mode="plain",
            backend="numpy",
            workload=WorkloadSpec(seed=seed, **OFFLINE_SCENARIO),
        )

    def scenario(self, seed: int):
        from repro.workloads.scenario import ScenarioConfig, build_scenario
        from repro.workloads.spatial import Distribution

        spec = self.spec(seed)
        w = spec.workload
        return build_scenario(
            ScenarioConfig(
                num_tasks=w.tasks,
                num_slots=w.slots,
                num_workers=w.workers,
                distribution=Distribution(w.distribution),
                seed=w.seed,
                k=spec.k,
                budget_fraction=spec.budget_fraction,
            )
        )

    def generate(self, seed: int, index: int) -> Unit:
        """Unit ``index`` is batch ``index % per`` of scenario
        ``index // per``; a scenario is built once, with its first batch."""
        from repro.model.task import TaskSet

        per = OFFLINE_SCENARIO["tasks"] // OFFLINE_BATCH
        scenario_seed = unit_seed(seed, index // per)
        if index % per == 0 or scenario_seed not in self._scenarios:
            self._scenarios = {scenario_seed: self.scenario(scenario_seed)}
        scenario = self._scenarios[scenario_seed]
        ordered = sorted(scenario.tasks, key=lambda t: t.task_id)
        start = (index % per) * OFFLINE_BATCH
        batch = TaskSet(ordered[start:start + OFFLINE_BATCH])
        return Unit(
            index=index,
            seed=scenario_seed,
            data=(scenario, batch),
            tasks=len(batch),
            events=len(batch),
            workers=len(scenario.pool) if index % per == 0 else 0,
        )

    def open(self) -> None:
        pass

    def close(self) -> None:
        self._scenarios = {}

    def construct(self, unit: Unit):
        from repro.runtime import build_serving_solver

        scenario, _ = unit.data
        return build_serving_solver(self.spec(unit.seed), scenario.pool, scenario.bbox)

    def drain(self, solver, unit: Unit, norm) -> Drain:
        _, batch = unit.data
        fraction = self.spec(unit.seed).budget_fraction
        report, raw, norm_s = norm.call(solver.assign, batch, budget_fraction=fraction)
        served = {record.task_id for record in report.assignment}
        starved = sum(1 for task in batch if task.task_id not in served)
        return Drain(
            digest=plan_digest(report.plan_signature()),
            counts={"tasks": len(batch), "subtasks": len(report.assignment),
                    "starved": starved},
            qualities=list(report.qualities.values()),
            samples=[norm_s],
            raw_samples=[raw],
            raw_s=raw,
            norm_s=norm_s,
            attempted=len(batch),
            failed=starved,
            extras={"ops": _ops(report.counters)},
        )


WORKLOADS = {
    cls.name: cls
    for cls in (StreamWorkload, DurableWorkload, ShardedWorkload, OfflineWorkload)
}


def scratch_dir(root: Path) -> Path:
    """Per-process scratch space inside the checkout."""
    path = root / ".perfbench_tmp" / str(os.getpid())
    path.mkdir(parents=True, exist_ok=True)
    return path
