"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload stream --seed 1 --seconds 12 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The line before it is a ``diagnostics`` object: the
host stamp, raw (un-normalised) seconds and sample counts.

``--write-expected`` records the output-check digests for the pinned
and held-out seeds into ``perfbench/expected.json``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

#: Environment every measured interpreter runs under.
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
SETUP_REPS = 3
#: Decisions a run needs so that p90 has ten samples beyond it.
MIN_SAMPLES = 100
#: A run keeps draining past ``--seconds`` only to reach MIN_SAMPLES,
#: and never past this many seconds of measuring.
MAX_MEASURE_S = 120.0
PINNED_SEED = 1
HELD_OUT_SEED = 2


def _pin_environment(argv) -> None:
    """Re-exec this interpreter under :data:`PINNED_ENV` (same process,
    fresh interpreter) unless it already runs under it."""
    if all(os.environ.get(k) == v for k, v in PINNED_ENV.items()):
        return
    env = dict(os.environ, **PINNED_ENV)
    os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv], env)


def _purge_program_modules() -> None:
    for name in [n for n in sys.modules if n == "repro" or n.startswith("repro.")]:
        del sys.modules[name]


def _median_by_unit(drains, attr):
    return sum(statistics.median(getattr(d, attr) for d in ds) for ds in drains.values())


class Run:
    """One invocation: set-up repetitions, timed drains, output check."""

    def __init__(self, workload_name, seed, seconds, expected):
        from perfbench.probe import Normaliser
        from perfbench.workloads import WORKLOADS, scratch_dir

        self.scratch = scratch_dir(ROOT)
        self.workload = WORKLOADS[workload_name](self.scratch)
        self.seed = seed
        self.seconds = seconds
        self.expected = expected.get(self.workload.expected_key, {})
        self.setup_norm = Normaliser()
        self.norm = Normaliser()
        self.setups: list[dict] = []
        self.units = []
        self.errors: list[str] = []
        self.mismatches: list[str] = []

    # -- set-up ---------------------------------------------------------
    def setup(self) -> None:
        """Import, generate and construct SETUP_REPS times; the last
        repetition's inputs are the ones served."""
        norm = self.setup_norm
        for _ in range(SETUP_REPS):
            self.workload.close()
            _purge_program_modules()
            norm.start()
            parts = {"import": [0.0, 0.0], "generate": [0.0, 0.0], "build": [0.0, 0.0]}

            def timed(part, fn, *args):
                result, raw, n = norm.call(fn, *args)
                parts[part][0] += raw
                parts[part][1] += n
                return result

            timed("import", importlib.import_module, "repro")
            units = [
                timed("generate", self.workload.generate, self.seed, i)
                for i in range(self.workload.units)
            ]
            self.workload.open()
            for unit in units:
                timed("build", self.workload.construct, unit)
            self.setups.append(parts)
            self.units = units

    def setup_metric(self, part=None, index=1) -> float:
        """Median over set-ups of one part (or all): ``index`` 1 reads
        normalised seconds, 0 raw seconds."""
        parts = [part] if part else ["import", "generate", "build"]
        return statistics.median(sum(s[p][index] for p in parts) for s in self.setups)

    # -- drains ---------------------------------------------------------
    def drain(self, unit):
        """One timed drain; an exception is recorded, never raised."""
        try:
            stack = self.workload.construct(unit)
            self.norm.start()
            return self.workload.drain(stack, unit, self.norm)
        except Exception:  # noqa: BLE001 - a failed drain fails the run's operations
            self.fail()
            return None

    def cycle(self, drains: dict, tracer=None) -> list:
        """Drain every unit once (up to a failed drain); returns this
        cycle's drains."""
        out = []
        if tracer is not None:
            tracer.install()
        try:
            for unit in self.units:
                d = self.drain(unit)
                if d is None:
                    break
                drains.setdefault(unit.index, []).append(d)
                out.append(d)
        finally:
            if tracer is not None:
                tracer.uninstall()
        return out

    def measure(self) -> dict:
        """Drain the units round-robin until every unit is drained once,
        ``seconds`` have passed and MIN_SAMPLES decisions are timed, or
        until a drain fails."""
        drains: dict[int, list] = {}
        samples = 0
        start = time.perf_counter()
        for count in range(1, 1_000_000):
            unit = self.units[(count - 1) % len(self.units)]
            d = self.drain(unit)
            if d is None:
                break  # one failed drain fails the run; measuring on is moot
            drains.setdefault(unit.index, []).append(d)
            samples += len(d.samples)
            elapsed = time.perf_counter() - start
            if count >= len(self.units) and (
                (elapsed >= self.seconds and samples >= MIN_SAMPLES)
                or elapsed >= MAX_MEASURE_S
            ):
                break
        return drains

    # -- output check ---------------------------------------------------
    def check(self, drains: dict) -> None:
        """Every drain of a unit repeats its first drain's plan.  On the
        pinned and held-out seeds every unit's plan matches the record,
        in unit order; on any other seed one unit of the pinned seed
        (which one turns with the run's seed) is drained once more and
        matches its record."""
        for index, ds in drains.items():
            first = ds[0]
            for d in ds[1:]:
                if (d.digest, d.counts) != (first.digest, first.counts):
                    self.mismatches.append(f"unit {index}: drains disagree")
        if str(self.seed) in self.expected:
            got = [unit_key(drains[u.index][0]) if u.index in drains else None
                   for u in self.units]
            self._compare(self.seed, got)
            return
        from perfbench.probe import Normaliser

        index = self.seed % self.workload.units
        self.workload.open()
        try:
            unit = self.workload.generate(PINNED_SEED, index)
            stack = self.workload.construct(unit)
            scratch = Normaliser()
            scratch.start()
            key = unit_key(self.workload.drain(stack, unit, scratch))
            self._compare(PINNED_SEED, [key], first=index)
        except Exception:  # noqa: BLE001 - a failed check fails the run
            self.fail()
        finally:
            self.workload.close()

    def _compare(self, seed, got: list, first: int = 0) -> None:
        """``got``: unit keys of units ``first``, ``first`` + 1, ... in
        order.  The record may hold more units: ``durable`` serves a
        prefix of the ``stream`` traces and is held to the same plans."""
        want = self.expected.get(str(seed), {}).get("units", [])[first:first + len(got)]
        if got != want:
            index = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w),
                         min(len(got), len(want)))
            self.mismatches.append(
                f"seed {seed}: unit {first + index} differs from the record"
            )

    def fail(self) -> None:
        """Record the exception being handled; it fails the run."""
        self.errors.append(traceback.format_exc())
        sys.stderr.write(self.errors[-1])


def unit_key(drain) -> str:
    """One digest of a drain's plan digest and outcome counts."""
    from perfbench.workloads import plan_digest

    return plan_digest((drain.digest, tuple(sorted(drain.counts.items()))))


def _outcome(run, drains):
    """(correct, attempted, failed) over every timed drain."""
    attempted = sum(d.attempted for ds in drains.values() for d in ds)
    failed = sum(d.failed for ds in drains.values() for d in ds)
    lost = sum(u.tasks for u in run.units) if run.errors else 0
    attempted = max(1, attempted + lost)
    correct = not run.errors and not run.mismatches
    if not correct:
        failed = attempted
    return correct, attempted, failed


def _remove_scratch(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        path.parent.rmdir()  # only once no other run uses it
    except OSError:
        pass


def _rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def end_to_end(run, drains) -> tuple[dict, dict]:
    from perfbench.stats import median, tail_percentile

    samples = [s for ds in drains.values() for d in ds for s in d.samples]
    raw_samples = [s for ds in drains.values() for d in ds for s in d.raw_samples]
    # The median counts only decisions that admit a task: on the
    # stream workloads about half the epochs admit none and take a
    # tenth of the time of one that does, so a median over all epochs
    # sits in the gap between the two and jumps with the mix.
    admitting = [s for ds in drains.values() for d in ds for s in d.admitting_samples()]
    raw_admitting = [s for ds in drains.values() for d in ds
                     for s in d.admitting_samples(raw=True)]
    p90, reason = tail_percentile(samples, 90)
    raw_p90, _ = tail_percentile(raw_samples, 90)
    if p90 is None:
        # Only a program too slow to time MIN_SAMPLES decisions within
        # MAX_MEASURE_S gets here; its slowest decision stands in for
        # p90, an over-estimate, so the slowdown shows.
        p90, raw_p90 = max(samples), max(raw_samples)
    first = [ds[0] for ds in drains.values()]
    qualities = [q for d in first for q in d.qualities]
    metrics = {
        "setup_s": run.setup_metric(),
        "serve_s": _median_by_unit(drains, "norm_s"),
        "epoch_p50_ms": median(admitting) * 1e3,
        "epoch_p90_ms": p90 * 1e3,
        "peak_rss_mb": _rss_mb(),
        "quality_mean": sum(qualities) / len(qualities),
    }
    raw = {
        "setup_s": run.setup_metric(index=0),
        "serve_s": _median_by_unit(drains, "raw_s"),
        "epoch_p50_ms": median(raw_admitting) * 1e3,
        "epoch_p90_ms": raw_p90 * 1e3,
        "epoch_p90_note": reason,
        "samples": len(samples),
        "admitting_samples": len(admitting),
        "drains": sum(len(ds) for ds in drains.values()),
    }
    return metrics, raw


def per_layer(run, seconds) -> tuple[dict | None, dict, dict]:
    """Alternate untraced and traced cycles for ``seconds``; per-layer
    metrics are medians over the traced cycles (None after a failed
    drain)."""
    from perfbench.spans import Tracer
    from perfbench.stats import median

    tracer = Tracer()
    drains: dict[int, list] = {}
    plain_serve, traced_serve, cycles = [], [], []
    start = time.perf_counter()
    while not cycles or time.perf_counter() - start < seconds:
        plain_serve.append(sum(d.norm_s for d in run.cycle(drains)))
        tracer.reset()
        traced = [] if run.errors else run.cycle(drains, tracer)
        if run.errors:
            return None, drains, {}
        serve = sum(d.norm_s for d in traced)
        traced_serve.append(serve)
        cycles.append(_layer_metrics(run, tracer, traced, serve))
    run.workload.close()
    values = {name: median(c[name] for c in cycles) for name in cycles[0]}
    values["par.worker_peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    )
    values["trace.overhead_share"] = median(traced_serve) / median(plain_serve) - 1.0
    values["host.probe_us"] = median(run.norm.probes) * 1e6
    values["host.setup_wall_s"] = run.setup_metric(index=0)
    values["host.serve_wall_s"] = _median_by_unit(drains, "raw_s")
    values["host.threads_at_probe.max"] = max(
        run.norm.max_threads, run.setup_norm.max_threads
    )
    return values, drains, {"cycles": len(cycles)}


def _layer_metrics(run, tracer, traced, serve) -> dict:
    from perfbench.stats import tail_percentile

    summary = tracer.summary(run.norm.factor_at)

    def get(name, key):
        return summary.get(name, {}).get(key, 0.0)

    def ops(key):
        return sum(d.extras["ops"][key] for d in traced)

    def extra_sum(key):
        return sum(d.extras.get(key, 0) for d in traced)

    def extra_mean(key):
        values = [d.extras[key] for d in traced if key in d.extras]
        return sum(values) / len(values) if values else 0.0

    stream_kind = run.workload.name != "offline"
    latencies = [x for d in traced for x in d.extras.get("assign_latencies", ())]
    p90_slots, _ = tail_percentile(latencies, 90)
    find_calls = get("core.tree_index.find_best", "calls")
    map_s = get("par.map_units", "s")
    generate = run.setup_metric("generate")
    return {
        "workloads.build_stream_events.s": generate if stream_kind else 0.0,
        "workloads.build_scenario.s": 0.0 if stream_kind else generate,
        "workloads.trace_events": sum(u.events for u in run.units) if stream_kind else 0,
        "workloads.workers": sum(u.workers for u in run.units),
        "runtime.import.s": run.setup_metric("import"),
        "runtime.build.s": run.setup_metric("build"),
        "stream.step_epoch.calls": get("stream.step_epoch", "calls"),
        "stream.step_epoch.self_s": get("stream.step_epoch", "self_s"),
        "stream.session_step.calls": get("stream.session_step", "calls"),
        "stream.session_step.self_s": get("stream.session_step", "self_s"),
        "stream.queue_depth.max": max(
            (d.extras.get("queue_depth_max", 0) for d in traced), default=0
        ),
        "stream.assign_latency.p90_slots": p90_slots or 0.0,
        "core.tree_index.build.calls": get("core.tree_index.build", "calls"),
        "core.tree_index.build.s": get("core.tree_index.build", "s"),
        "core.tree_index.refresh_slots.calls": get("core.tree_index.refresh_slots", "calls"),
        "core.tree_index.refresh_slots.s": get("core.tree_index.refresh_slots", "s"),
        "core.tree_index.refreshed_slots": tracer.notes.get("core.tree_index.refresh_slots", 0),
        "core.tree_index.find_best.calls": find_calls,
        "core.tree_index.find_best.s": get("core.tree_index.find_best", "s"),
        "core.tree_index.find_best.hit_ratio": (
            tracer.notes.get("core.tree_index.find_best", 0) / find_calls if find_calls else 0.0
        ),
        "core.greedy.solve.calls": get("core.greedy.solve", "calls"),
        "core.greedy.solve.s": get("core.greedy.solve", "s"),
        "engine.cost_table.build.calls": get("engine.cost_table.build", "calls"),
        "engine.cost_table.build.s": get("engine.cost_table.build", "s"),
        "engine.registry.build.s": get("engine.registry.build", "s"),
        "core.ops.gain_evaluations": ops("gain_evaluations"),
        "core.ops.slot_evaluations": ops("slot_evaluations"),
        "core.ops.knn_queries": ops("knn_queries"),
        "core.ops.virtual_cost": ops("virtual_cost"),
        "core.greedy.commit_ratio": (
            ops("iterations") / ops("gain_evaluations") if ops("gain_evaluations") else 0.0
        ),
        "journal.wal.append.calls": get("journal.wal.append", "calls"),
        "journal.wal.append.s": get("journal.wal.append", "s"),
        "journal.wal.bytes": tracer.notes.get("journal.wal.append", 0),
        "journal.snapshot.write.calls": get("journal.snapshot.write", "calls"),
        "journal.snapshot.write.s": get("journal.snapshot.write", "s"),
        "journal.snapshot.bytes": extra_sum("snapshot_bytes"),
        "journal.server_state.calls": get("journal.server_state", "calls"),
        "journal.server_state.s": get("journal.server_state", "s"),
        "obs.hooks.s": get("obs.hooks", "s"),
        "obs.records": extra_sum("obs_records"),
        "obs.trace_bytes": extra_sum("trace_bytes"),
        "shard.route.s": get("shard.route", "s"),
        "shard.shard_distances.calls": get("shard.shard_distances", "calls"),
        "shard.replication": extra_mean("replication"),
        "shard.skew": extra_mean("skew"),
        "par.encode.s": get("par.encode", "s"),
        "par.unit_bytes": tracer.notes.get("par.encode", 0),
        "par.map_units.s": map_s,
        "par.decode.s": get("par.decode", "s"),
        "par.restore.s": get("par.restore", "s"),
        "par.serial_share": 1.0 - map_s / serve if map_s and serve else 0.0,
        "trace.coverage": summary["__top__"]["s"] / serve if serve else 0.0,
    }


def host_stamp() -> dict:
    import numpy

    from perfbench import probe

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "probe_reference_s": probe.REFERENCE_PROBE_S,
        "probe_loops": probe.PROBE_LOOPS,
        "probe_array_rounds": probe.PROBE_ARRAY_ROUNDS,
        "probe_repeats": probe.PROBE_REPEATS,
        "env": {k: os.environ.get(k) for k in PINNED_ENV},
    }


def write_expected() -> None:
    """Record every unit's key, in unit order, for the pinned and
    held-out seeds of every workload whose plans it defines."""
    from perfbench.probe import Normaliser
    from perfbench.workloads import WORKLOADS, scratch_dir

    out = {}
    scratch = scratch_dir(ROOT)
    for name in ("stream", "sharded", "offline"):
        workload = WORKLOADS[name](scratch)
        workload.open()
        out[name] = {}
        for seed in (PINNED_SEED, HELD_OUT_SEED):
            keys = []
            for index in range(workload.units):
                unit = workload.generate(seed, index)
                norm = Normaliser()
                norm.start()
                keys.append(unit_key(workload.drain(workload.construct(unit), unit, norm)))
            out[name][str(seed)] = {"units": keys}
        workload.close()
    _remove_scratch(scratch)
    (HERE / "expected.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


#: Value of every metric of a run that failed before it measured; the
#: run reports correct=false with every operation failed, so the value
#: carries no meaning beyond being finite.
FAILED_RUN_VALUE = 1.0


def execute(run, trace: bool, seconds: float, units: dict) -> tuple[dict, str]:
    """Set up, measure and check ``run``; returns the diagnostics and
    the result line.  An exception anywhere fails every operation of
    the run and still yields a result line."""
    from perfbench.stats import result_line

    drains, metrics, raw = {}, None, {}
    try:
        run.setup()
        if trace:
            metrics, drains, raw = per_layer(run, seconds)
        else:
            drains = run.measure()
            run.workload.close()
            if not run.errors:
                metrics, raw = end_to_end(run, drains)
        if not run.errors:
            run.check(drains)
    except Exception:  # noqa: BLE001 - a failed run still reports
        run.fail()
    finally:
        run.workload.close()
        _remove_scratch(run.scratch)
    if metrics is None or run.errors:
        metrics = dict.fromkeys(units, FAILED_RUN_VALUE)
    correct, attempted, failed = _outcome(run, drains)
    probes = run.norm.probes or run.setup_norm.probes
    diagnostics = {
        "workload": run.workload.name, "seed": run.seed, "trace": int(trace),
        "host": host_stamp(), "raw": raw,
        "probe_us": statistics.median(probes) * 1e6 if probes else None,
        "errors": len(run.errors), "mismatches": run.mismatches,
    }
    line = result_line(correct=correct, attempted=attempted, failed=failed,
                       metrics=metrics, units=units)
    return diagnostics, line


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("stream", "durable", "sharded", "offline"))
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-expected", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    benchmark = ROOT / "BENCHMARK.json"
    if not benchmark.is_file():
        print(f"perfbench: missing {benchmark}", file=sys.stderr)
        return 2
    _pin_environment(argv)
    sys.path[:0] = [str(SRC), str(ROOT)]
    if args.write_expected:
        write_expected()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    config = json.loads(benchmark.read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in config[kind]}
    expected = json.loads((HERE / "expected.json").read_text())
    run = Run(args.workload, args.seed, args.seconds, expected)
    diagnostics, line = execute(run, bool(args.trace), args.seconds, units)
    print(json.dumps({"diagnostics": diagnostics}))
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
