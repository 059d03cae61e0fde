"""Span tracing around the calls into flexshuffle's modules.

The program itself is not changed: while a ``Tracer`` is installed, every
public function of the seven modules is replaced, in every flexshuffle
namespace that binds it, by a wrapper that records one span per call.
Installing and removing the wrappers is cheap, so a run can alternate
traced and untraced calls.  Spans live in flat arrays (name, start, end,
parent) and are written out once, after the measurement.  A span's self
time is its duration minus the durations of its direct children, so the
self times of all spans sum to the durations of the root spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("instance", "coverage", "shuffle", "coding", "engine", "analysis", "cli")
HARNESS = "harness"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.failed = array("b")
        self._stack = [-1]
        self.busy = False
        self._patches: list[tuple[object, str, object, object]] = []
        # per span name: work counts from results, and exceptions by type
        self.counts: dict[str, Counter] = defaultdict(Counter)

    def _id(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def _open(self, nid: int) -> int:
        # ``busy`` tells a deadline signal handler to wait until the four
        # arrays and the stack agree again before it raises.
        self.busy = True
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.failed.append(0)
        self.end.append(0.0)
        self.start.append(perf_counter())
        self._stack.append(idx)
        self.busy = False
        return idx

    def _close(self, idx: int, failed: bool) -> None:
        now = perf_counter()
        self.busy = True
        stack = self._stack
        # An exception raised between a wrapper's bookkeeping and its ``try``
        # leaves inner spans open; they end, failed, with this one.
        while stack[-1] != idx:
            inner = stack.pop()
            self.end[inner] = now
            self.failed[inner] = 1
        stack.pop()
        self.end[idx] = now
        self.failed[idx] = failed
        self.busy = False

    @contextmanager
    def span(self, name: str):
        """Record one span around the benchmark's own code."""
        idx = self._open(self._id(name))
        try:
            yield
        except BaseException:
            self._close(idx, True)
            raise
        self._close(idx, False)

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording a span per call.

        ``count(args, kwargs, result)`` returns work counts to add to
        ``self.counts[name]``; raised exceptions are counted by type name.
        """
        nid = self._id(name)
        counts = self.counts[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(idx, True)
                counts[type(exc).__name__] += 1
                raise
            self._close(idx, False)
            if count is not None:
                counts.update(count(args, kwargs, result))
            return result

        return traced

    def wrap_package(self, package, counters=None) -> None:
        """Prepare wrappers for every public function of the layer modules.

        ``counters`` maps a span name such as ``"engine.run_plan"`` to the
        ``count`` callback passed to ``wrap``.  A function is rebound,
        while ``installed``, wherever a module of the package (or the
        package itself) holds a reference to it, so calls between modules,
        calls within a module and calls from the benchmark are all seen.
        """
        namespaces = [
            mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == package.__name__ or name.startswith(package.__name__ + "."))
        ]
        for layer in LAYERS:
            module = sys.modules[f"{package.__name__}.{layer}"]
            for fname, fn in inspect.getmembers(module, inspect.isfunction):
                if fname.startswith("_") or fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{fname}"
                traced = self.wrap(name, fn, (counters or {}).get(name))
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._patches.append((ns, attr, fn, traced))

    @contextmanager
    def installed(self):
        """Rebind the wrappers prepared by ``wrap_package`` for the duration."""
        for ns, attr, _, traced in self._patches:
            setattr(ns, attr, traced)
        try:
            yield self
        finally:
            for ns, attr, fn, _ in self._patches:
                setattr(ns, attr, fn)

    # ------------------------------------------------------------------
    # Aggregation

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "failed": np.frombuffer(self.failed, dtype=np.int8),
        }

    def self_times(self) -> np.ndarray:
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        children = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        return dur - children

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, failed calls, total and self seconds."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        self_s = self.self_times()
        out = {}
        for nid, name in enumerate(self.names):
            sel = a["name"] == nid
            out[name] = {
                "calls": int(sel.sum()),
                "failed": int(a["failed"][sel].sum()),
                "total_s": float(dur[sel].sum()),
                "failed_s": float(dur[sel & (a["failed"] == 1)].sum()),
                "self_s": float(self_s[sel].sum()),
            }
        return out

    def write(self, path) -> None:
        """Save all spans as a compressed ``.npz`` with a ``names`` table."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

