"""In-memory span tracer over the liftcert layers.

``Tracer.install`` wraps every public function of each layer module and
rebinds every module attribute of the package that referred to the
original, so calls made through names other modules imported are seen too.  A wrapped call records a span (name, start,
end, parent) in flat arrays; a few tiny, very hot functions only count
calls, so that tracing does not swamp the work they do.  ``uninstall``
restores every binding.  What was wrapped is recorded (``names``,
``counts``, ``contains``), so a metric whose function no longer exists can be
told apart from one that was called 0 times.

Spans become ``<module>.<function>.{calls,s,self_s}``: ``s`` is inclusive
time counted once per outermost call (a recursive function's inner calls
are not added again) and ``self_s`` is a span's time minus its children's.
"""

from __future__ import annotations

import inspect
import statistics
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable

LAYERS = ("bitcore", "linalg", "atoms", "covering", "cli")

#: Called millions of times per job, for under a microsecond each: counted,
#: not timed.  Their time stays in the caller's self time.
COUNT_ONLY = frozenset(
    {"bitcore.intersection_size", "bitcore.concat", "bitcore.split", "linalg.inner"}
)

#: The oracle loops; a trial runs from one sample_atom call to the next.
ORACLE_RUNNERS = frozenset(
    {"cli.run_pattern_oracle", "cli.run_witness_oracle", "cli.run_induction_oracle"}
)
SAMPLER = "atoms.sample_atom"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: dict[str, list[int]] = {}
        self.contains: list[int] | None = None  # Rectangle.contains calls, hits
        self.samples: list = []  # factorizations returned by sample_atom
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def install(self, package: str) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == package or name.startswith(package + ".")]
        wrapped: dict[int, Callable] = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for fname, fn in inspect.getmembers(mod, inspect.isfunction):
                if fn.__module__ != mod.__name__ or fname.startswith("_"):
                    continue
                key = f"{layer}.{fname}"
                wrapped[id(fn)] = (self._counter(key, fn) if key in COUNT_ONLY
                                   else self._span(key, fn))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped and inspect.isfunction(value):
                    self._rebind(mod, attr, wrapped[id(value)])
        rect = getattr(sys.modules[f"{package}.covering"], "Rectangle", None)
        if rect is not None and inspect.isfunction(getattr(rect, "contains", None)):
            self.contains = [0, 0]
            self._rebind(rect, "contains", self._contains(rect.contains))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _rebind(self, owner: object, attr: str, value: object) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _span(self, key: str, fn: Callable) -> Callable:
        sid = len(self.names)
        self.names.append(key)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        keep = self.samples if key == SAMPLER else None
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(sid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if keep is not None:
                keep.append(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, key: str, fn: Callable) -> Callable:
        cell = self.counts.setdefault(key, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _contains(self, fn: Callable) -> Callable:
        cell = self.contains

        def wrapper(self, x, y):
            hit = fn(self, x, y)
            cell[0] += 1
            cell[1] += hit
            return hit

        wrapper.__wrapped__ = fn
        return wrapper

    # -- reading -------------------------------------------------------------

    def mark(self) -> int:
        """Index of the next span, to split spans into phases."""
        return len(self.span_start)

    def summary(self, lo: int = 0) -> dict[str, dict]:
        """Per-function calls, inclusive and self seconds of the spans from lo
        on; every wrapped function has a row, with 0 calls if it was not called."""
        hi = self.mark()
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        child = defaultdict(float)
        for i in range(lo, hi):
            if parents[i] >= 0:
                child[parents[i]] += ends[i] - starts[i]
        out = {key: {"calls": 0, "s": 0.0, "self_s": 0.0} for key in self.names}
        for i in range(lo, hi):
            sid = names[i]
            row = out[self.names[sid]]
            dur = ends[i] - starts[i]
            row["calls"] += 1
            row["self_s"] += dur - child[i]
            p = parents[i]
            while p >= 0 and names[p] != sid:
                p = parents[p]
            if p < 0:
                row["s"] += dur
        return out

    def trial_ms(self, lo: int = 0) -> list[float]:
        """Per-trial latency: from each sample_atom start to the next one, or to
        the end of the oracle loop that made it (spans from lo on)."""
        hi = self.mark()
        runner_ids = {i for i, k in enumerate(self.names) if k in ORACLE_RUNNERS}
        sampler_ids = {i for i, k in enumerate(self.names) if k == SAMPLER}
        starts: dict[int, list[float]] = defaultdict(list)
        ends: dict[int, float] = {}
        for i in range(lo, hi):
            sid = self.span_name[i]
            if sid in runner_ids:
                ends[i] = self.span_end[i]
            elif sid in sampler_ids and self.span_parent[i] >= 0:
                starts[self.span_parent[i]].append(self.span_start[i])
        out = []
        for runner, ts in starts.items():
            if runner in ends:
                bounds = ts + [ends[runner]]
                out += [1e3 * (b - a) for a, b in zip(bounds, bounds[1:])]
        return out


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (statistics.quantiles, exclusive method)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]
