"""In-memory spans and counters recorded around calls into program layers.

The benchmark never edits the program: a :class:`Tracer` wraps public
entry points of each layer (class methods and module functions) for the
duration of a traced campaign and restores them afterwards.  Every
wrapped call is a span with a name, start, end and parent.  Fine-grained
spans (one per RHS evaluation, kernel call or observer fold, hundreds of
thousands per campaign) are folded into per-name aggregates as they end;
coarse spans (campaigns, shards, solves, cache and HTTP calls) are also
kept whole and written out by :meth:`Tracer.write` at exit.

A span's self time is its duration minus the time its direct children
cover, accumulated when each child ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from pathlib import Path

#: spans kept whole in the written trace; all others are aggregated only
COARSE = frozenset({
    "campaign", "replay", "executor.shard",
    "integrate.solve", "cache.save", "cache.load", "assembly.npz",
    "service.submit", "service.status", "service.fetch",
})


class _Agg:
    __slots__ = ("count", "total", "self_time")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Span stack per thread, per-name aggregates, named counters.

    Fine-grained spans only run on the thread that drives the solve, so
    their aggregates are updated without a lock; coarse spans can also
    end on the service's handler threads and update under the lock.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.aggs: dict[str, _Agg] = {}
        self.counters: dict[str, float] = {}
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _agg(self, name: str) -> _Agg:
        agg = self.aggs.get(name)
        if agg is None:
            agg = self.aggs.setdefault(name, _Agg())
        return agg

    def begin(self, name: str) -> list:
        """Open a span; returns its frame ``[id, name, start, parent, child]``."""
        stack = self._stack()
        frame = [next(self._ids), name, 0.0,
                 stack[-1][0] if stack else None, 0.0]
        stack.append(frame)
        frame[2] = time.perf_counter()
        return frame

    def end(self, frame: list) -> float:
        """Close the innermost span; returns its duration."""
        t1 = time.perf_counter()
        stack = self._stack()
        stack.pop()
        sid, name, t0, parent, child = frame
        dur = t1 - t0
        if stack:
            stack[-1][4] += dur
        if name in COARSE:
            with self._lock:
                self._fold(name, dur, child)
                self.spans.append((sid, name, t0, t1, parent))
        else:
            self._fold(name, dur, child)
        return dur

    def _fold(self, name: str, dur: float, child: float) -> None:
        agg = self._agg(name)
        agg.count += 1
        agg.total += dur
        agg.self_time += dur - child

    def span(self, name: str):
        """Context manager around a block of the benchmark's own code."""
        return _Span(self, name)

    def count(self, name: str, value: float = 1) -> None:
        """Add to a counter (any thread)."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def total(self, name: str) -> float:
        agg = self.aggs.get(name)
        return agg.total if agg else 0.0

    def calls(self, name: str) -> int:
        agg = self.aggs.get(name)
        return agg.count if agg else 0

    def self_time(self, name: str) -> float:
        agg = self.aggs.get(name)
        return agg.self_time if agg else 0.0

    def reset(self) -> None:
        """Zero every aggregate and counter (wrappers keep their bindings)."""
        for agg in self.aggs.values():
            agg.count, agg.total, agg.self_time = 0, 0.0, 0.0
        self.counters.clear()
        self.spans.clear()

    # ------------------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``after(result, args)`` runs inside the span and may record
        counters from the call's arguments and result.
        """
        original = getattr(owner, attr)
        tracer = self
        if name in COARSE:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return original(*args, **kwargs)
                frame = tracer.begin(name)
                try:
                    result = original(*args, **kwargs)
                    if after is not None:
                        after(result, args)
                    return result
                finally:
                    tracer.end(frame)
        else:
            # The same bookkeeping as begin()/end(), inlined: these
            # wrappers run once per RHS evaluation.
            agg = self._agg(name)
            clock = time.perf_counter

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return original(*args, **kwargs)
                stack = tracer._stack()
                frame = [0, name, 0.0, None, 0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    result = original(*args, **kwargs)
                    if after is not None:
                        after(result, args)
                    return result
                finally:
                    dur = clock() - t0
                    stack.pop()
                    if stack:
                        stack[-1][4] += dur
                    agg.count += 1
                    agg.total += dur
                    agg.self_time += dur - frame[4]

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path, header: dict) -> None:
        """Write the coarse spans as JSON lines after a header line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for sid, name, t0, t1, parent in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0,
                                     "end": t1, "parent": parent}) + "\n")
            for name in sorted(self.aggs):
                agg = self.aggs[name]
                fh.write(json.dumps({"aggregate": name, "count": agg.count,
                                     "total_s": agg.total,
                                     "self_s": agg.self_time}) + "\n")


class _Span:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.frame = self.tracer.begin(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer.end(self.frame)


def _kernel_bytes(result, args) -> int:
    """Computed compulsory bytes of one coupling-kernel call.

    The phases are read once and the coupling written once (16 bytes
    per state entry) and four per-member coefficient columns are read;
    the edge-list kernel also streams its int32 row and column arrays.
    Cache misses are not modelled, so this is a lower bound.
    """
    r = result.shape[0] if result.ndim == 2 else 1
    nbytes = 16 * result.size + 32 * r
    if len(args) > 1 and getattr(args[0], "dtype", None) is not None \
            and args[0].dtype.itemsize == 4:
        nbytes += 8 * args[0].size
    return nbytes


def install_layer_probes(tracer: Tracer) -> None:
    """Wrap the entry points of every layer the benchmark reports on."""
    from repro.backends import HeteroBatchedBackend
    from repro.core import simulation
    from repro.core.model import PhysicalOscillatorModel
    from repro.kernels import cc, tiled
    from repro.metrics.streaming import StreamingObserver
    from repro.runs import ResultCache, executor

    def kernel_after(result, args):
        tracer.count("kernels.bytes", _kernel_bytes(result, args))

    def solve_after(sol, args):
        tracer.count("integrate.steps", sol.stats.n_steps)
        tracer.count("integrate.rejected", sol.stats.n_rejected)
        tracer.count("integrate.n_rhs", sol.stats.n_rhs)

    def load_after(data, args):
        tracer.count("cache.hits" if data is not None else "cache.misses")

    tracer.wrap(PhysicalOscillatorModel, "realize", "core.realize")
    tracer.wrap(HeteroBatchedBackend, "rhs", "backends.rhs")
    tracer.wrap(HeteroBatchedBackend, "intrinsic_frequency",
                "backends.frequency")
    tracer.wrap(HeteroBatchedBackend, "coupling", "backends.coupling")
    for fn in ("ring_batched", "torus_batched", "fused_batched",
               "ring_single", "torus_single", "fused_single"):
        tracer.wrap(cc, fn, "kernels.call", kernel_after)
    for cls in (tiled.TiledSingleCoupling, tiled.TiledBatchedCoupling,
                tiled.TiledStackedCoupling):
        tracer.wrap(cls, "__call__", "kernels.call", kernel_after)
    for fn in ("solve_rk4", "solve_dopri45", "solve_euler"):
        tracer.wrap(simulation, fn, "integrate.solve", solve_after)
    tracer.wrap(StreamingObserver, "__call__", "metrics.fold")
    tracer.wrap(executor, "execute_shard", "executor.shard")
    tracer.wrap(ResultCache, "save", "cache.save")
    tracer.wrap(ResultCache, "load", "cache.load", load_after)
