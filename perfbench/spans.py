"""Outside-in span tracing of weaktame's layers.

A Tracer replaces selected module attributes (the names the callers look up,
e.g. ``weaktame.strong_error.integrate_increments``) with wrappers that
record one span per call: name, start, end and the enclosing span. Nothing in
``src/`` is edited, and leaving the ``with`` block puts the originals back.

Spans live in flat arrays, so hundreds of thousands of them (one per EnKF
step) stay cheap in memory. They are written out when the benchmark ends.
"""

from __future__ import annotations

import functools
import importlib
import pickle
from array import array
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable

NO_PARENT = -1


@dataclass(frozen=True)
class Target:
    """One attribute to wrap, ``module.attr`` (attr may be ``Class.method``).

    ``count(args, result)`` returns work counts that are added to the span
    name's totals. It runs after the span has closed, so its cost is not
    charged to the wrapped layer.
    """

    module: str
    attr: str
    span: str
    count: Callable[[tuple, object], dict] | None = None


def _count_increment_block(args, out) -> dict:
    return {"rows": out.shape[0], "draws": out.size}


def _count_coarsen(args, out) -> dict:
    return {"inputs": args[0].size}


def _count_integrate(args, result) -> dict:
    rows, nodes = result[0].shape
    return {"rows": rows, "sample_steps": rows * (nodes - 1)}


def _count_interpolant(args, result) -> dict:
    return {"nodes": result[0].size}


def _count_chain(args, states) -> dict:
    return {"steps": len(states) - 1}


def _count_batches(args, results) -> dict:
    return {"batches": len(results)}


def _count_batches_and_bytes(args, results) -> dict:
    size = len(pickle.dumps(results, protocol=pickle.HIGHEST_PROTOCOL))
    return {"batches": len(results), "result_bytes": size}


def batch_targets(with_bytes: bool = False) -> tuple[Target, ...]:
    """The two ``run_batches`` call sites.

    Each caller keeps its own span name, so the reduce time of the
    strong-error and moment engines (the self time of this span when batches
    run inline) stays apart. ``with_bytes`` also pickles every batch result
    list to measure pool traffic; that costs time, so it is for pooled runs
    whose wall time is not reported.
    """
    count = _count_batches_and_bytes if with_bytes else _count_batches
    return (
        Target("weaktame.strong_error", "run_batches", "strong_error.run_batches", count),
        Target("weaktame.moments", "run_batches", "moments.run_batches", count),
    )


LAYER_TARGETS: tuple[Target, ...] = batch_targets() + (
    Target("weaktame.cli", "run", "cli.run"),
    Target("weaktame.strong_error", "estimate_strong_error", "strong_error.estimate_strong_error"),
    Target("weaktame.moments", "moment_table", "moments.moment_table"),
    Target("weaktame.strong_error", "increment_block", "brownian.increment_block", _count_increment_block),
    Target("weaktame.moments", "increment_block", "brownian.increment_block", _count_increment_block),
    Target("weaktame.strong_error", "coarsen_increments", "brownian.coarsen_increments", _count_coarsen),
    Target("weaktame.strong_error", "integrate_increments", "schemes.integrate_increments", _count_integrate),
    Target("weaktame.moments", "integrate_increments", "schemes.integrate_increments", _count_integrate),
    Target("weaktame.schemes", "integrate_increments", "schemes.integrate_increments", _count_integrate),
    Target("weaktame.strong_error", "interpolant_increments", "schemes.interpolant_increments", _count_interpolant),
    Target("weaktame.cli", "run_chain", "enkf.run_chain", _count_chain),
    Target("weaktame.enkf", "run_chain", "enkf.run_chain", _count_chain),
    Target("weaktame.enkf", "enkf_step", "enkf.enkf_step"),
    Target("weaktame.enkf", "EnsembleState.__post_init__", "enkf.state_validations"),
    Target("weaktame.enkf", "reduce_to_q", "enkf.reduce_to_q"),
    Target("weaktame.reports", "strong_error_csv", "reports.strong_error_csv"),
    Target("weaktame.reports", "moments_csv", "reports.moments_csv"),
    Target("weaktame.reports", "enkf_csv", "reports.enkf_csv"),
)


def _owner(target: Target):
    """(object holding the attribute, attribute name) for ``target``."""
    owner = importlib.import_module(target.module)
    *path, name = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Span recorder over a fixed set of wrapped attributes.

    Use as a context manager: the wrappers exist only inside the ``with``
    block. Times are ``perf_counter_ns`` readings.
    """

    def __init__(self, targets=LAYER_TARGETS):
        self.targets = tuple(targets)
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for target in self.targets:
            owner, name = _owner(target)
            original = vars(owner)[name]
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(original, self._span_id(target.span), target.count))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _span_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, span_id: int) -> int:
        index = len(self.start)
        self.name_id.append(span_id)
        self.parent.append(self._stack[-1] if self._stack else NO_PARENT)
        self.start.append(perf_counter_ns())
        self.end.append(0)
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.end[index] = perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn, span_id: int, count):
        tracer = self
        name = self.names[span_id]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer._open(span_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if count is not None:
                totals = tracer.counts[name]
                for key, value in count(args, result).items():
                    totals[key] += value
            return result

        return traced

    def __len__(self) -> int:
        return len(self.start)

    def durations(self) -> dict[str, tuple[int, float]]:
        """Per span name: (number of spans, summed duration in seconds)."""
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, int] = defaultdict(int)
        for i in range(len(self)):
            name = self.names[self.name_id[i]]
            calls[name] += 1
            total[name] += self.end[i] - self.start[i]
        return {name: (calls[name], total[name] * 1e-9) for name in calls}

    def self_times(self) -> dict[str, float]:
        """Per span name: summed span time minus the time of direct children."""
        own = [self.end[i] - self.start[i] for i in range(len(self))]
        for i in range(len(self)):
            parent = self.parent[i]
            if parent != NO_PARENT:
                own[parent] -= self.end[i] - self.start[i]
        out: dict[str, int] = defaultdict(int)
        for i, value in enumerate(own):
            out[self.names[self.name_id[i]]] += value
        return {name: value * 1e-9 for name, value in out.items()}

    def write_csv(self, path) -> None:
        """One line per span: index, name, start_ns, end_ns, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_ns,end_ns,parent\n")
            for i in range(len(self)):
                fh.write(
                    f"{i},{self.names[self.name_id[i]]},{self.start[i]},{self.end[i]},{self.parent[i]}\n"
                )
