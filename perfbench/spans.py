"""In-memory span tracing around the program's layer boundaries.

The tracer wraps public functions and methods *at their lookup
sites*: a function imported by name into another module (for example
``server_state`` into ``repro.journal.layer``) is patched where the
caller looks it up, since patching only its home module would record
nothing.  Each span records name, start, end and parent; spans stay in
memory and are reduced to per-layer metrics when the traced drains end.
Work inside executor worker processes is not traced.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass

__all__ = ["SITES", "Span", "Tracer"]


def _hit(args, result):
    return result is not None


def _slots(args, result):
    return len({s for s in args[1] if 1 <= s <= args[0].m})


def _size(args, result):
    return len(result)


def _size_int(args, result):
    return result


#: (module, attribute path, span name, kind[, note]).  ``kind`` is
#: ``"span"`` (timed, nests) or ``"count"`` (calls only: sites hit too
#: often for a span to stay cheap).  ``note(args, result)`` returns a
#: number summed under the span name in :attr:`Tracer.notes`.
SITES = (
    ("repro.stream.online_server", "StreamingTCSCServer.begin", "stream.begin", "span"),
    ("repro.stream.online_server", "StreamingTCSCServer.step_epoch", "stream.step_epoch", "span"),
    ("repro.stream.online_server", "StreamingTCSCServer.finish", "stream.finish", "span"),
    ("repro.stream.session", "TaskSession.step", "stream.session_step", "span"),
    ("repro.core.tree_index", "TreeIndex.__init__", "core.tree_index.build", "span"),
    ("repro.core.tree_index", "TreeIndex.refresh_slots", "core.tree_index.refresh_slots", "span", _slots),
    ("repro.core.tree_index", "TreeIndex.find_best", "core.tree_index.find_best", "span", _hit),
    ("repro.core.greedy", "SingleTaskGreedy.solve", "core.greedy.solve", "span"),
    ("repro.core.greedy", "IndexedSingleTaskGreedy.solve", "core.greedy.solve", "span"),
    ("repro.engine.costs", "SingleTaskCostTable.__init__", "engine.cost_table.build", "span"),
    ("repro.engine.registry", "WorkerRegistry.__init__", "engine.registry.build", "span"),
    ("repro.journal.wal", "WriteAheadLog.append", "journal.wal.append", "span", _size_int),
    ("repro.journal.wal", "Journal.write_snapshot", "journal.snapshot.write", "span"),
    ("repro.journal.layer", "server_state", "journal.server_state", "span"),
    ("repro.obs.layer", "TelemetryLayer.before_event", "obs.hooks", "span"),
    ("repro.obs.layer", "TelemetryLayer.after_event", "obs.hooks", "span"),
    ("repro.obs.layer", "TelemetryLayer.before_commit", "obs.hooks", "span"),
    ("repro.obs.layer", "TelemetryLayer.before_finalize", "obs.hooks", "span"),
    ("repro.obs.layer", "TelemetryLayer.on_epoch_end", "obs.hooks", "span"),
    ("repro.obs.layer", "TelemetryLayer.on_run_complete", "obs.hooks", "span"),
    ("repro.shard.streaming", "ShardedStreamingServer.route", "shard.route", "span"),
    ("repro.shard.partitioner", "SpatialPartitioner.shard_distances", "shard.shard_distances", "count"),
    ("repro.par.stream", "encode_stream_unit", "par.encode", "span", _size),
    ("repro.par.executor", "Executor.map_units", "par.map_units", "span"),
    ("repro.par.stream", "decode_stream_result", "par.decode", "span"),
    # drain_sharded imports it from its home module at call time.
    ("repro.journal.snapshot", "restore_server_state", "par.restore", "span"),
)


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans; -1 for a top-level span


class Tracer:
    """Records spans while installed; :meth:`uninstall` restores every
    patched attribute."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.notes: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- patching -------------------------------------------------------
    def install(self) -> None:
        for module_name, path, name, kind, *note in SITES:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            # An inherited method is set on the subclass while traced
            # and deleted again on uninstall.
            own = attr in vars(owner)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original if own else None))
            wrapper = self._span_wrapper if kind == "span" else self._count_wrapper
            setattr(owner, attr, wrapper(original, name, *note))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._saved.clear()

    def _span_wrapper(self, fn, name, note=None):
        spans = self.spans
        stack = self._stack
        notes = self.notes
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, clock(), 0.0, stack[-1] if stack else -1)
            index = len(spans)
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    notes[name] += note(args, result)
                return result
            finally:
                stack.pop()
                span.end = clock()

        return traced

    def _count_wrapper(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.notes.clear()

    # -- reduction ------------------------------------------------------
    def summary(self, scale=lambda t: 1.0) -> dict:
        """Per span name: ``calls``, total ``s`` and ``self_s``; the
        ``"__top__"`` entry holds the time in top-level spans.

        ``scale(t)`` is the normalisation factor at time ``t`` (the
        probe factor of the timed call a span started in).  Self time
        is a span's duration minus its children's.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        top = 0.0
        for index, span in enumerate(self.spans):
            duration = span.end - span.start
            factor = scale(span.start)
            entry = out[span.name]
            entry["calls"] += 1
            entry["s"] += duration * factor
            entry["self_s"] += (duration - child_time[index]) * factor
            if span.parent < 0:
                top += duration * factor
        for name, calls in self.counts.items():
            out[name]["calls"] += calls
        result = dict(out)
        result["__top__"] = {"calls": 0, "s": top, "self_s": top}
        return result
