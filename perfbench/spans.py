"""Per-layer spans around the library's public functions.

``Tracer`` replaces every public function of the layer modules, in every
``noncrossing`` module namespace that refers to it, with a wrapper that
records a span, and puts the originals back on exit.  The library itself
is not changed: the wrappers live in the benchmark.

Spans are aggregated as they close, per function: calls, total time, self
time (total minus the time its child spans cover) and the Dyck-path work
handed in (rows and steps).  A span opened on a pool thread with no open
span of its own is a child of the span open on the main thread: the
benchmark is a closed loop with one client, so that span is the call
waiting on the pool.  Children on pool threads overlap, so a parent's self
time subtracts the union of their intervals.  Self times of spans on
different threads add up, so layer self times are thread-seconds.

Class methods are not wrapped; their time counts towards the calling
function.  Generator functions are timed per step, each step one call.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
from dataclasses import dataclass
from time import perf_counter

import numpy as np

PACKAGE = "noncrossing"
# ``series`` is reached only through ``exact``; its time counts there.
LAYERS = (
    "sampling",
    "statistics",
    "harness",
    "exact",
    "structures",
    "bijections",
    "limitlaws",
    "acceptance",
)
SAMPLER = "sampling.sample_dyck_steps"
POOL_MAP = "harness.map_sample_statistics"


@dataclass
class FunctionStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    rows: int = 0
    steps: int = 0


class _Frame:
    __slots__ = ("thread", "parent", "child_s", "pool_children")

    def __init__(self, thread: int, parent: "_Frame | None") -> None:
        self.thread = thread
        self.parent = parent
        self.child_s = 0.0  # children on this frame's own thread
        self.pool_children: list[tuple[float, float, int]] = []  # (start, end, thread)


def union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = lo
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if a > cur_hi:
            total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    return total + (cur_hi - cur_lo)


def _sampler_work(args: tuple) -> tuple[int, int]:
    n, count = args[0], args[1]
    return count, count * 2 * n


def _steps_work(args: tuple) -> tuple[int, int]:
    if args and isinstance(args[0], np.ndarray) and args[0].ndim == 2:
        return args[0].shape[0], args[0].size
    return 0, 0


class Tracer:
    """Context manager: wrap the layer functions on enter, restore on exit."""

    def __init__(self) -> None:
        # (duration, busy thread-seconds) of each pool map call
        self.pool_maps: list[tuple[float, float]] = []
        self._main = threading.get_ident()
        self._main_stack: list[_Frame] = []
        self._local = threading.local()
        # one dict per thread, qualname -> [calls, total, self, rows, steps],
        # so that threads never update the same record
        self._thread_stats: list[dict[str, list]] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name, obj in vars(module).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        namespaces = [
            module
            for key, module in list(sys.modules.items())
            if key == PACKAGE or key.startswith(PACKAGE + ".")
        ]
        for module in namespaces:
            for name, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, name, entry[1])
                    self._patched.append((module, name, obj))
        return self

    def __exit__(self, *exc) -> None:
        for module, name, obj in self._patched:
            setattr(module, name, obj)
        self._patched.clear()

    def _thread_state(self) -> tuple[list[_Frame], dict[str, list], int]:
        try:
            return self._local.state
        except AttributeError:
            thread = threading.get_ident()
            stack = self._main_stack if thread == self._main else []
            stats: dict[str, list] = {}
            self._thread_stats.append(stats)
            self._local.state = (stack, stats, thread)
            return self._local.state

    def _wrap(self, qualname: str, fn):
        if qualname == SAMPLER:
            work = _sampler_work
        elif qualname.startswith("statistics.batch_"):
            work = _steps_work
        else:
            work = None
        main_stack = self._main_stack
        thread_state = self._thread_state

        def open_frame() -> tuple[_Frame, list[_Frame], dict[str, list]]:
            stack, stats, thread = thread_state()
            if stack:
                parent = stack[-1]
            elif stack is not main_stack and main_stack:
                parent = main_stack[-1]
            else:
                parent = None
            frame = _Frame(thread, parent)
            stack.append(frame)
            return frame, stack, stats

        def close_frame(frame, stack, stats, start, end, args) -> None:
            stack.pop()
            duration = end - start
            own = duration - frame.child_s
            if frame.pool_children:
                spans = [(a, b) for a, b, _ in frame.pool_children]
                own -= union_length(spans, start, end)
            if qualname == POOL_MAP:
                self._record_pool_map(frame, start, end)
            parent = frame.parent
            if parent is not None:
                if parent.thread == frame.thread:
                    parent.child_s += duration
                else:
                    # list.append is atomic; the parent waits for the pool to drain
                    parent.pool_children.append((start, end, frame.thread))
            record = stats.get(qualname)
            if record is None:
                record = stats[qualname] = [0, 0.0, 0.0, 0, 0]
            record[0] += 1
            record[1] += duration
            record[2] += own
            if work is not None:
                rows, steps = work(args)
                record[3] += rows
                record[4] += steps

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_steps(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    frame, stack, stats = open_frame()
                    start = perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        close_frame(frame, stack, stats, start, perf_counter(), args)
                    yield item

            return traced_steps

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame, stack, stats = open_frame()
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                close_frame(frame, stack, stats, start, perf_counter(), args)

        return traced

    def _record_pool_map(self, frame: _Frame, start: float, end: float) -> None:
        busy = frame.child_s
        for thread in {t for _, _, t in frame.pool_children}:
            spans = [(a, b) for a, b, t in frame.pool_children if t == thread]
            busy += union_length(spans, start, end)
        self.pool_maps.append((end - start, busy))

    @property
    def stats(self) -> dict[str, FunctionStats]:
        merged: dict[str, FunctionStats] = {}
        for per_thread in self._thread_stats:
            for qualname, record in per_thread.items():
                total = merged.setdefault(qualname, FunctionStats())
                total.calls += record[0]
                total.total_s += record[1]
                total.self_s += record[2]
                total.rows += record[3]
                total.steps += record[4]
        return merged

    # -- metrics --------------------------------------------------------

    def get(self, qualname: str) -> FunctionStats:
        return self.stats.get(qualname, FunctionStats())

    def layer_self_s(self, layer: str) -> float:
        return sum(s.self_s for q, s in self.stats.items() if q.startswith(layer + "."))

    def layer_calls(self, layer: str) -> int:
        return sum(s.calls for q, s in self.stats.items() if q.startswith(layer + "."))

    def ns_per_step(self, qualname: str) -> float:
        """Self time per Dyck-path step handed in; 0 when never called."""
        stats = self.get(qualname)
        return stats.self_s / stats.steps * 1e9 if stats.steps else 0.0

    def worker_idle_frac(self, threads: int) -> float:
        """Share of thread capacity during pool maps with no layer span running."""
        capacity = threads * sum(d for d, _ in self.pool_maps)
        if not capacity:
            return 0.0
        return 1.0 - sum(b for _, b in self.pool_maps) / capacity
