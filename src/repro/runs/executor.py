"""Sharded campaign executor: multiprocess solves with caching/resume.

Runs a compiled :class:`~repro.runs.plan.Plan`:

1. **cache probe** — with a :class:`~repro.runs.cache.ResultCache` and
   ``resume=True`` (the default), every shard whose key is already
   stored is loaded instead of solved.  A finished campaign replays as
   a pure cache hit (zero solves — asserted by tests); a killed one
   resumes from its completed shards.
2. **execution** — pending shards run inline (``jobs=1``) or through a
   ``ProcessPoolExecutor``.  A shard solve is a pure function of its
   payload (models, seeds, and initial states are rebuilt from the spec
   dicts inside the worker; per-member seeds were fixed at expansion
   time), so the worker count can never change the bits — ``jobs=1``
   and ``jobs=8`` produce identical results, and every completed shard
   is persisted immediately, making the campaign kill-safe.
3. **assembly** — member results are ordered by their global member
   index, independent of shard completion order.

Two executor properties make the sharding actually pay (PR 5):

* **worker thread pinning** — pool workers start through an initializer
  that pins ``OMP_NUM_THREADS`` / the BLAS thread knobs / the kernels'
  own ``POM_NUM_THREADS`` to the per-shard ``threads`` count (default
  1), so ``jobs x threads`` never oversubscribes the machine.  The
  compiled kernels read ``POM_NUM_THREADS`` at call time, so the pin is
  effective even under the fork start method.
* **shared-memory transport** — with ``transport="shm"`` (the default)
  a worker writes its ``(R, n_t, N)`` trajectory stack into a
  ``multiprocessing.shared_memory`` segment named after the shard key
  and returns only a tiny layout descriptor through the pool; the
  parent maps the segment, copies the arrays out, and unlinks it.  That
  replaces pickling hundreds of megabytes through the result pipe.
  ``transport="pickle"`` keeps the plain round-trip (the
  cross-checking/debug path).  Transport never changes the bits.

``progress`` receives one event dict per completed shard (``cached``
True/False), which the CLI renders as a live campaign log.
"""

from __future__ import annotations

import os
import tempfile
import time
import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from multiprocessing import resource_tracker, shared_memory
from pathlib import Path
from typing import Callable

import numpy as np

from ..core import OscillatorTrajectory, simulate_grid
from ..kernels import THREADS_ENV_VAR
from ..metrics.streaming import StreamingObserver, parse_trajectories
from .cache import ResultCache
from .faults import FaultInjector, ensure_shared_state_dir, injector_from_env
from .plan import Plan, compile_plan
from .spec import MemberSpec, ScenarioSpec

__all__ = ["MemberResult", "RunResult", "TRANSPORTS", "collect_cached",
           "drain_queue", "execute_shard", "reclaim_stale_segments",
           "run_plan", "run_plan_queue", "run_spec"]

#: shard-result transports accepted by ``run_plan(transport=...)``
TRANSPORTS = ("shm", "pickle")

#: thread-count environment knobs pinned inside pool workers
_PIN_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

#: shared-memory array alignment (matches the compiled kernels' scratch)
_SHM_ALIGN = 64


def _worker_env(threads: int | None) -> dict[str, str]:
    """Environment pins for pool workers: ``threads`` each, default 1."""
    t = 1 if threads is None else int(threads)
    env = {var: str(t) for var in _PIN_ENV_VARS}
    env[THREADS_ENV_VAR] = str(t)
    return env


def _init_worker(env: dict) -> None:
    """Pool-worker initializer: apply the thread pins before any solve."""
    os.environ.update(env)


def execute_shard(payload: dict, threads: int | None = None) -> dict:
    """Solve one shard (top-level so worker processes can import it).

    Returns the arrays the cache stores: the global member ``indices``
    and the solve wall-clock, plus — depending on the payload —

    * ``ts`` and the stacked member phases ``thetas (R, n_t, N)`` when
      ``trajectories`` is ``"full"`` (default) or ``"stride:K"``
      (thinned retention); metric-only shards
      (``trajectories="none"``) carry **no** trajectory arrays at all,
    * streamed metric arrays (``metrics_ts`` + ``metric_<name>``,
      kilobyte-scale) when the payload declares ``metrics``, folded by
      a :class:`~repro.metrics.streaming.StreamingObserver` per
      accepted solver step over the ``(R, N)`` super-state.

    ``threads`` is the in-kernel thread count (pool workers leave it
    ``None`` and inherit the pinned ``POM_NUM_THREADS`` instead); it
    never changes the bits, so it stays out of the payload and the
    cache key.
    """
    t0 = time.perf_counter()
    members = [MemberSpec.from_dict(m) for m in payload["members"]]
    models = [m.build_model() for m in members]
    n = models[0].n
    theta0s = np.stack([m.build_theta0(n) for m in members])
    solver = payload["solver"]
    metrics = tuple(payload.get("metrics") or ())
    trajectories = payload.get("trajectories", "full")
    observer = StreamingObserver(models, metrics) if metrics else None
    trajs = simulate_grid(
        models, payload["t_end"],
        seeds=[m.seed for m in members],
        theta0s=theta0s,
        method=solver["method"],
        dt=solver["dt"],
        rtol=solver["rtol"],
        atol=solver["atol"],
        n_samples=solver.get("n_samples"),
        threads=threads,
        observer=observer,
        record=parse_trajectories(trajectories),
    )
    out = {
        "indices": np.asarray([m.index for m in members], dtype=np.int64),
    }
    if trajectories != "none":
        out["ts"] = trajs[0].ts
        out["thetas"] = np.stack([t.thetas for t in trajs])
    if observer is not None:
        out.update(observer.finalize())
    out["seconds"] = time.perf_counter() - t0
    return out


def _shm_layout(arrays: dict) -> tuple[dict, int]:
    """Aligned offsets for packing ``arrays`` into one segment."""
    layout = {}
    offset = 0
    for name, arr in arrays.items():
        offset = -(-offset // _SHM_ALIGN) * _SHM_ALIGN
        layout[name] = {"dtype": arr.dtype.str, "shape": arr.shape,
                        "offset": offset}
        offset += arr.nbytes
    return layout, max(offset, 1)


def _unregister_shm(seg: shared_memory.SharedMemory) -> None:
    """Detach a freshly *created* ``seg`` from the resource tracker.

    The parent owns the segment lifetime (it unlinks after assembly);
    without this, the worker-side tracker would destroy or complain
    about segments that outlive the worker by design.
    """
    try:
        resource_tracker.unregister(seg._name, "shared_memory")
    except Exception:
        pass


def _attach_shm(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without tracker registration.

    Attaching never registers on Python < 3.13; newer versions grew a
    ``track`` knob (and register by default), so pass it when accepted.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        return shared_memory.SharedMemory(name=name)


def _execute_shard_pickle(payload: dict, index: int) -> dict:
    """Pool-worker entry for the pickle transport (with fault hooks)."""
    injector_from_env().fire("shard-start", shard=index)
    return execute_shard(payload)


def _execute_shard_shm(payload: dict, shm_name: str,
                       index: int | None = None) -> dict:
    """Pool-worker entry for the shared-memory transport.

    Solves the shard, writes the result arrays into a fresh shared
    segment ``shm_name``, and returns only the layout descriptor — the
    parent maps the segment instead of unpickling the arrays.  The
    ``POM_FAULTS`` chaos hooks fire here (worker side), never in the
    orchestrating parent.
    """
    faults = injector_from_env()
    faults.fire("shard-start", shard=index)
    data = execute_shard(payload)
    # Pack whatever arrays the shard produced — trajectory stacks,
    # streamed metric arrays, or both.
    arrays = {k: np.ascontiguousarray(v) for k, v in data.items()
              if isinstance(v, np.ndarray)}
    layout, size = _shm_layout(arrays)
    t0 = time.perf_counter()
    try:
        seg = shared_memory.SharedMemory(name=shm_name, create=True,
                                         size=size)
    except FileExistsError:
        # Stale segment from a killed earlier run with the same name:
        # reclaim it.
        stale = _attach_shm(shm_name)
        stale.close()
        stale.unlink()
        seg = shared_memory.SharedMemory(name=shm_name, create=True,
                                         size=size)
    try:
        for k, arr in arrays.items():
            spec = layout[k]
            dst = np.ndarray(arr.shape, dtype=arr.dtype, buffer=seg.buf,
                             offset=spec["offset"])
            dst[...] = arr
    finally:
        if faults and faults.fire("shm-written", shard=index):
            # ``drop-shm`` chaos: the segment vanishes between the
            # worker's write and the parent's collect — the parent must
            # degrade to an inline re-solve, not crash the campaign.
            # (Unlink while still tracker-registered: one clean
            # unregister, no tracker noise.)
            seg.unlink()
        else:
            _unregister_shm(seg)
        seg.close()
    return {
        "shm": shm_name,
        "layout": layout,
        "seconds": data["seconds"],
        "write_s": time.perf_counter() - t0,
        "worker_omp": os.environ.get("OMP_NUM_THREADS"),
    }


def _collect_shm(meta: dict) -> dict:
    """Parent side of the shared-memory transport: map, copy, unlink."""
    t0 = time.perf_counter()
    seg = _attach_shm(meta["shm"])
    try:
        data = {}
        for k, spec in meta["layout"].items():
            src = np.ndarray(tuple(spec["shape"]),
                             dtype=np.dtype(spec["dtype"]),
                             buffer=seg.buf, offset=spec["offset"])
            # Own copy — the segment is unlinked below.
            data[k] = np.array(src)
    finally:
        seg.close()
        try:
            seg.unlink()
        except FileNotFoundError:  # pragma: no cover
            pass
    data["seconds"] = meta["seconds"]
    data["transport_s"] = (meta.get("write_s", 0.0)
                           + (time.perf_counter() - t0))
    data["worker_omp"] = meta.get("worker_omp")
    return data


def _cleanup_shm(names) -> None:
    """Best-effort unlink of leftover segments after a failed run."""
    for name in names:
        try:
            seg = _attach_shm(name)
        except FileNotFoundError:
            continue
        seg.close()
        try:
            seg.unlink()
        except FileNotFoundError:  # pragma: no cover
            pass


def reclaim_stale_segments(shm_dir: str = "/dev/shm") -> list[str]:
    """Unlink ``pom-*`` segments whose owning process is dead.

    Segment names embed the orchestrating PID (``pom-<pid>-<shard>-
    <key>``), so a run whose parent was SIGKILLed mid-transfer leaves
    segments no later run would ever collect by name.  Every pool run
    starts with this sweep; returns the reclaimed names.  A no-op on
    hosts without a POSIX shm directory.
    """
    reclaimed: list[str] = []
    try:
        names = os.listdir(shm_dir)
    except OSError:  # pragma: no cover - non-Linux
        return reclaimed
    for name in names:
        parts = name.split("-")
        if parts[0] != "pom" or len(parts) < 4:
            continue
        try:
            pid = int(parts[1])
        except ValueError:
            continue
        try:
            os.kill(pid, 0)
            continue  # owner alive: in use by a concurrent run
        except ProcessLookupError:
            pass
        except PermissionError:  # pragma: no cover - other-user process
            continue
        try:
            seg = _attach_shm(name)
        except FileNotFoundError:
            continue
        seg.close()
        try:
            seg.unlink()
            reclaimed.append(name)
        except FileNotFoundError:  # pragma: no cover - lost a race
            pass
    return reclaimed


@dataclass
class MemberResult:
    """One grid point's solved results plus its provenance.

    ``trajectory()`` rebuilds the declarative model from the member's
    spec dict, so results that crossed a process boundary (or came out
    of the cache) still carry full model metadata.  For metric-only
    campaigns (``trajectories="none"``) ``ts``/``thetas`` are ``None``
    and the streamed reductions live in ``metrics`` (keyed by metric
    name, on the ``metrics_ts`` observation mesh).
    """

    member: MemberSpec
    ts: np.ndarray | None
    thetas: np.ndarray | None
    metrics_ts: np.ndarray | None = None
    metrics: dict = field(default_factory=dict)

    @property
    def index(self) -> int:
        """Global member index (expansion order)."""
        return self.member.index

    @property
    def params(self) -> dict:
        """The member's axis coordinates."""
        return self.member.params

    @property
    def seed(self) -> int:
        """Noise-realisation seed."""
        return self.member.seed

    @property
    def has_trajectory(self) -> bool:
        """Whether this member carries phase states (any capture mode)."""
        return self.thetas is not None

    def trajectory(self) -> OscillatorTrajectory:
        """The solved phases as a full :class:`OscillatorTrajectory`."""
        if self.thetas is None:
            raise ValueError(
                f"member {self.index} has no trajectory (the campaign "
                'ran with trajectories="none"; re-run with '
                'trajectories="full" or consume the streamed metrics)')
        return OscillatorTrajectory(ts=self.ts, thetas=self.thetas,
                                    model=self.member.build_model(),
                                    seed=self.member.seed)


@dataclass
class RunResult:
    """Outcome of a campaign execution.

    Attributes
    ----------
    spec:
        The campaign that ran.
    members:
        Per-member results in global member order.
    n_shards, n_executed, n_cached:
        Shard accounting — ``n_executed == 0`` is the pure-cache-hit
        replay the acceptance tests assert.
    wall_s:
        End-to-end wall-clock of :func:`run_plan`.
    solve_s:
        Summed in-worker solve time of the executed shards.
    transport_s:
        Summed measured result-transport time (shared-memory write +
        map/copy); 0 for the inline and pickle paths, where the
        transport cost hides in ``wall_s - solve_s``.
    transport:
        The transport that moved executed shard results across the pool
        (``"shm"`` | ``"pickle"``), or ``None`` when no pool ran.
    worker_omp:
        ``OMP_NUM_THREADS`` as reported from inside a pool worker (the
        pinning witness asserted by CI), or ``None`` when no pool ran.
    queue:
        Durable-queue execution report (:meth:`WorkQueue.describe` plus
        worker accounting) when the campaign ran through
        :func:`run_plan_queue`; ``None`` for in-process runs.  The
        ``retried`` map (shard index -> attempts) is how recovered
        worker deaths stay visible in the run report.
    """

    spec: ScenarioSpec
    members: list[MemberResult]
    n_shards: int = 0
    n_executed: int = 0
    n_cached: int = 0
    wall_s: float = 0.0
    solve_s: float = 0.0
    transport_s: float = 0.0
    transport: str | None = None
    worker_omp: str | None = None
    queue: dict | None = field(default=None)

    def __len__(self) -> int:
        return len(self.members)

    def trajectories(self) -> list[OscillatorTrajectory]:
        """All member trajectories, in member (expansion) order."""
        return [m.trajectory() for m in self.members]

    def summary_table(self) -> dict:
        """Axis columns plus standard sync/streamed metrics per member.

        Columns: one per axis path, plus ``seed``; when trajectories
        were captured, ``final_spread``, ``mean_abs_gap``, ``r_final``,
        and ``state`` from :func:`repro.metrics.sync.classify`; when the
        spec declared streaming metrics, one summary column per metric
        (``<name>_final`` for the series reductions,
        ``wavefront_reached`` rank counts, ``phase_histogram_peak`` bin
        indices) in declaration order.  A trajectory-mode and a
        metric-only campaign with the same ``metrics`` therefore agree
        bit-for-bit on the shared metric columns — the CI stream-smoke
        invariant.
        """
        from ..metrics.streaming import SERIES_METRICS
        from ..metrics.sync import classify

        # ``seed`` already has a dedicated column; don't duplicate it
        # when it is also swept as an axis.
        paths = [p for p, _ in self.spec.axes if p != "seed"]
        table: dict[str, list] = {p: [] for p in paths}
        table["seed"] = []
        has_traj = all(m.thetas is not None for m in self.members)
        if has_traj:
            table.update({"final_spread": [], "mean_abs_gap": [],
                          "r_final": [], "state": []})
        metric_names = [name for name in getattr(self.spec, "metrics", ())
                        if all(name in m.metrics for m in self.members)]
        for name in metric_names:
            if name in SERIES_METRICS:
                table[f"{name}_final"] = []
            elif name == "wavefront":
                table["wavefront_reached"] = []
            elif name == "phase_histogram":
                table["phase_histogram_peak"] = []
        for m in self.members:
            for p in paths:
                table[p].append(m.params.get(p))
            table["seed"].append(m.seed)
            if has_traj:
                model = m.member.build_model()
                verdict = classify(m.ts, m.thetas, model.omega)
                table["final_spread"].append(verdict.final_spread)
                table["mean_abs_gap"].append(verdict.mean_abs_gap)
                table["r_final"].append(verdict.r_final)
                table["state"].append(verdict.state.value)
            for name in metric_names:
                arr = m.metrics[name]
                if name in SERIES_METRICS:
                    table[f"{name}_final"].append(float(arr[-1]))
                elif name == "wavefront":
                    table["wavefront_reached"].append(
                        int(np.isfinite(arr).sum()))
                elif name == "phase_histogram":
                    table["phase_histogram_peak"].append(
                        int(np.argmax(arr)))
        return table

    def _npz_arrays(self) -> dict[str, np.ndarray]:
        """The canonical ``.npz`` payload: spec hash + per-member arrays.

        Trajectory campaigns contribute ``ts_<i>`` / ``thetas_<i>``;
        campaigns with streamed metrics contribute ``metrics_ts_<i>``
        plus ``metric_<name>_<i>`` (meshes are per-member because
        adaptive shards may differ); metric-only campaigns carry no
        trajectory arrays at all.
        """
        arrays: dict[str, np.ndarray] = {
            "spec_hash": np.frombuffer(
                self.spec.content_hash().encode(), dtype=np.uint8),
        }
        for m in self.members:
            if m.ts is not None:
                arrays[f"ts_{m.index}"] = m.ts
                arrays[f"thetas_{m.index}"] = m.thetas
            if m.metrics_ts is not None:
                arrays[f"metrics_ts_{m.index}"] = m.metrics_ts
            for name, arr in m.metrics.items():
                arrays[f"metric_{name}_{m.index}"] = arr
        return arrays

    def save_npz(self, path: str | Path) -> Path:
        """Write every member's arrays to one ``.npz`` file.

        Arrays are named ``ts_<index>`` / ``thetas_<index>`` (and/or
        ``metrics_ts_<index>`` / ``metric_<name>_<index>`` for streamed
        metrics); the file also records the spec hash, so two runs of
        the same campaign (any ``jobs=``) produce comparable artefacts.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, **self._npz_arrays())
        return path

    def npz_bytes(self) -> bytes:
        """The :meth:`save_npz` artefact as in-memory bytes.

        Same arrays, same names — the campaign service streams this
        over HTTP and stores it content-addressed without touching the
        filesystem twice.  Zip container metadata (timestamps) may
        differ between writes; the *decoded arrays* are the identity
        that matters, and they are bit-equal to a ``save_npz`` file.
        """
        import io

        buf = io.BytesIO()
        np.savez(buf, **self._npz_arrays())
        return buf.getvalue()


@dataclass
class _ShardOutcome:
    data: dict
    cached: bool


def _assemble_members(
        plan: Plan,
        outcomes: dict[int, _ShardOutcome]) -> tuple[list[MemberResult],
                                                     float, float]:
    """Fan shard outcomes back out to ordered member results.

    Member order is the expansion order, never completion order — the
    bit-for-bit anchor across ``jobs=`` settings and executors.
    Members are rebuilt from the shard payloads (no second grid
    expansion).  Returns ``(members, solve_s, transport_s)``.
    """
    results: list[MemberResult] = []
    solve_s = 0.0
    transport_s = 0.0
    for shard in plan.shards:
        out = outcomes[shard.index]
        if not out.cached:
            solve_s += float(out.data.get("seconds", 0.0))
            transport_s += float(out.data.get("transport_s", 0.0))
        ts = out.data.get("ts")
        thetas = out.data.get("thetas")
        metrics_ts = out.data.get("metrics_ts")
        metric_names = [name for name in shard.payload.get("metrics", ())
                        if f"metric_{name}" in out.data]
        members_by_index = {m["index"]: MemberSpec.from_dict(m)
                            for m in shard.payload["members"]}
        for row, gindex in enumerate(out.data["indices"].tolist()):
            metrics = {name: out.data[f"metric_{name}"][row]
                       for name in metric_names}
            results.append(MemberResult(
                member=members_by_index[int(gindex)],
                ts=ts,
                thetas=thetas[row] if thetas is not None else None,
                metrics_ts=metrics_ts,
                metrics=metrics))
    results.sort(key=lambda m: m.index)
    return results, solve_s, transport_s


def collect_cached(plan: Plan, cache: ResultCache) -> RunResult | None:
    """Assemble a campaign purely from cached shard solves, or ``None``.

    The zero-execution path behind the campaign service's result
    endpoint: every shard of ``plan`` must load (checksum-verified)
    from ``cache``.  Any missing or corrupt shard returns ``None`` —
    the caller decides whether to enqueue, requeue, or 409.  Assembly
    is the same member-ordered fan-out as :func:`run_plan`, so the
    result is bit-identical to an executed campaign.
    """
    t0 = time.perf_counter()
    outcomes: dict[int, _ShardOutcome] = {}
    for shard in plan.shards:
        data = cache.load(shard.key)
        if data is None:
            return None
        outcomes[shard.index] = _ShardOutcome(data=data, cached=True)
    results, solve_s, _ = _assemble_members(plan, outcomes)
    return RunResult(
        spec=plan.spec,
        members=results,
        n_shards=plan.n_shards,
        n_executed=0,
        n_cached=plan.n_shards,
        wall_s=time.perf_counter() - t0,
        solve_s=solve_s,
    )


def run_plan(plan: Plan, *,
             jobs: int = 1,
             cache: ResultCache | str | Path | None = None,
             resume: bool = True,
             threads: int | None = None,
             transport: str = "shm",
             progress: Callable[[dict], None] | None = None) -> RunResult:
    """Execute a compiled plan; see the module docstring for semantics.

    Parameters
    ----------
    plan:
        Output of :func:`~repro.runs.plan.compile_plan`.
    jobs:
        Worker processes; ``1`` runs inline (no pool).
    cache:
        Result cache (directory path or :class:`ResultCache`); solved
        shards are stored there and — with ``resume`` — reused.
    resume:
        Reuse cached shard solves.  ``False`` recomputes everything
        (and overwrites the stored artefacts): the escape hatch for a
        cache poisoned by an unversioned numerics change.
    threads:
        In-kernel thread count per shard solve.  ``None`` pins pool
        workers to 1 thread each (``jobs x threads`` never
        oversubscribes) and lets the inline path resolve
        ``POM_NUM_THREADS``.  Never affects results or cache keys.
    transport:
        How executed shard results cross the pool: ``"shm"`` (default,
        shared-memory segments) or ``"pickle"`` (the plain round-trip).
        Bit-identical by construction.
    progress:
        Callback receiving one event dict per completed shard.
    """
    if jobs < 1:
        raise ValueError("jobs must be positive")
    if transport not in TRANSPORTS:
        raise ValueError(
            f"unknown transport {transport!r}; available: "
            f"{', '.join(TRANSPORTS)}")
    if cache is not None and not isinstance(cache, ResultCache):
        cache = ResultCache(cache)

    t0 = time.perf_counter()
    outcomes: dict[int, _ShardOutcome] = {}
    pending = []
    for shard in plan.shards:
        data = cache.load(shard.key) if (cache is not None and resume) \
            else None
        if data is not None:
            outcomes[shard.index] = _ShardOutcome(data=data, cached=True)
        else:
            pending.append(shard)

    done = 0
    total = plan.n_shards

    def _notify(shard, data, cached: bool) -> None:
        if progress is not None:
            progress({
                "kind": "shard",
                "shard": shard.index,
                "members": shard.n_members,
                "cached": cached,
                "seconds": float(data.get("seconds", 0.0)),
                "done": done,
                "total": total,
            })

    for shard in plan.shards:
        if shard.index in outcomes:
            done += 1
            _notify(shard, outcomes[shard.index].data, True)

    transport_used: str | None = None
    worker_omp: str | None = None
    if pending:
        if jobs == 1 or len(pending) == 1:
            for shard in pending:
                data = execute_shard(shard.payload, threads=threads)
                if cache is not None:
                    cache.save(shard.key, data)
                outcomes[shard.index] = _ShardOutcome(data=data,
                                                      cached=False)
                done += 1
                _notify(shard, data, False)
        else:
            transport_used = transport
            reclaim_stale_segments()
            if injector_from_env():
                # Chaos run: all workers (and any inline fallback here)
                # must share one fire-count budget.
                ensure_shared_state_dir(
                    tempfile.mkdtemp(prefix="pom-faults-"))
            shm_names = {}
            if transport == "shm":
                shm_names = {
                    s.index: f"pom-{os.getpid()}-{s.index}-{s.key[:8]}"
                    for s in pending
                }
            try:
                with ProcessPoolExecutor(
                        max_workers=min(jobs, len(pending)),
                        initializer=_init_worker,
                        initargs=(_worker_env(threads),)) as pool:
                    if transport == "shm":
                        futures = {
                            pool.submit(_execute_shard_shm, s.payload,
                                        shm_names[s.index], s.index): s
                            for s in pending
                        }
                    else:
                        futures = {
                            pool.submit(_execute_shard_pickle, s.payload,
                                        s.index): s
                            for s in pending
                        }
                    remaining = set(futures)
                    while remaining:
                        finished, remaining = wait(
                            remaining, return_when=FIRST_COMPLETED)
                        for fut in finished:
                            shard = futures[fut]
                            if transport == "shm":
                                try:
                                    data = _collect_shm(fut.result())
                                    worker_omp = data.get("worker_omp")
                                except FileNotFoundError:
                                    # Segment vanished between write and
                                    # collect (dropped/reclaimed): the
                                    # solve is pure, so re-run it here.
                                    warnings.warn(
                                        f"shard {shard.index}: shared-"
                                        "memory result segment lost; "
                                        "re-solving inline",
                                        RuntimeWarning)
                                    data = execute_shard(shard.payload,
                                                         threads=threads)
                                shm_names.pop(shard.index, None)
                            else:
                                data = fut.result()
                            # Persist immediately: a kill after this point
                            # loses at most the in-flight shards.
                            if cache is not None:
                                cache.save(shard.key, data)
                            outcomes[shard.index] = _ShardOutcome(
                                data=data, cached=False)
                            done += 1
                            _notify(shard, data, False)
            except BrokenProcessPool:
                # A worker died abnormally (SIGKILL, OOM).  Shard solves
                # are pure functions, so the campaign degrades to inline
                # execution of whatever the pool did not finish instead
                # of losing the run.
                missing = [s for s in pending if s.index not in outcomes]
                warnings.warn(
                    f"worker process died; re-solving {len(missing)} "
                    "unfinished shard(s) inline", RuntimeWarning)
                _cleanup_shm([shm_names.pop(s.index)
                              for s in missing if s.index in shm_names])
                for shard in missing:
                    data = execute_shard(shard.payload, threads=threads)
                    if cache is not None:
                        cache.save(shard.key, data)
                    outcomes[shard.index] = _ShardOutcome(data=data,
                                                          cached=False)
                    done += 1
                    _notify(shard, data, False)
            finally:
                # Uncollected segments (a worker crash, a parent
                # exception mid-assembly) must not outlive the run.
                _cleanup_shm(shm_names.values())

    results, solve_s, transport_s = _assemble_members(plan, outcomes)

    return RunResult(
        spec=plan.spec,
        members=results,
        n_shards=total,
        n_executed=len(pending),
        n_cached=total - len(pending),
        wall_s=time.perf_counter() - t0,
        solve_s=solve_s,
        transport_s=transport_s,
        transport=transport_used,
        worker_omp=worker_omp,
    )


# ======================================================================
# durable-queue execution (leases, heartbeats, retry, quarantine)
# ======================================================================

class _Heartbeat:
    """Background lease keeper for one claimed shard.

    Beats every ``every`` seconds until stopped.  Stops beating on its
    own when the per-shard ``timeout`` elapses (so the lease expires
    and the reaper hands the shard to another worker) or when a beat
    reports the lease already lost (``lost``) — the fencing signals the
    drain loop inspects after the solve returns.
    """

    def __init__(self, queue, lease, *, every: float, lease_ttl: float,
                 timeout: float | None) -> None:
        import threading

        self.queue = queue
        self.lease = lease
        self.every = every
        self.lease_ttl = lease_ttl
        self.timeout = timeout
        self.lost = False
        self.timed_out = False
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        start = time.monotonic()
        while not self._stop.wait(self.every):
            if self.timeout is not None \
                    and time.monotonic() - start > self.timeout:
                self.timed_out = True
                return
            if not self.queue.heartbeat(self.lease.key, self.lease.lease_id,
                                        lease_ttl=self.lease_ttl):
                self.lost = True
                return

    def __enter__(self) -> _Heartbeat:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)


def drain_queue(queue, cache: ResultCache, *,
                worker: str = "worker",
                lease_ttl: float = 30.0,
                heartbeat_every: float | None = None,
                timeout: float | None = None,
                max_shards: int | None = None,
                probe_cache: bool = True,
                faults: FaultInjector | None = None,
                progress: Callable[[dict], None] | None = None,
                poll: float = 0.2) -> dict:
    """Worker loop: claim, heartbeat, solve, persist, complete.

    The body of ``pom worker`` and of the processes
    :func:`run_plan_queue` spawns.  Per shard: claim a lease, probe the
    shared cache (a hit completes without solving — this is how resumed
    campaigns and fenced stragglers converge), otherwise solve under a
    heartbeat, persist to the cache **before** completing (so a crash
    between the two costs one redundant solve, never a result), and
    complete fenced on the lease id.  Failures are recorded through
    :meth:`WorkQueue.fail` — retry with exponential backoff, then
    quarantine with the captured traceback.

    ``timeout`` bounds the heartbeat span of one solve: past it the
    lease is allowed to lapse, another worker re-claims (the backoff
    ladder applies), and this worker's eventual result is fenced out —
    though whatever it manages to cache still serves the re-claimer.

    Returns counts: ``solved``, ``cache_hits``, ``failed``, ``fenced``,
    ``quarantined``, ``stalled``.
    """
    import traceback as tb_mod

    if faults is None:
        faults = injector_from_env()
    every = heartbeat_every if heartbeat_every is not None \
        else max(lease_ttl / 3.0, 0.05)
    stats = {"solved": 0, "cache_hits": 0, "failed": 0, "fenced": 0,
             "quarantined": 0, "stalled": 0}

    def _notify(lease, outcome: str, seconds: float = 0.0) -> None:
        if progress is not None:
            progress({"kind": "worker-shard", "worker": worker,
                      "shard": lease.index, "attempt": lease.attempts,
                      "outcome": outcome, "seconds": seconds})

    while max_shards is None or \
            stats["solved"] + stats["cache_hits"] < max_shards:
        queue.reap()
        lease = queue.claim(worker, lease_ttl=lease_ttl)
        if lease is None:
            if queue.unfinished() == 0:
                break
            # Everything claimable is leased out or inside a retry
            # backoff window; linger — leases may be reaped back.
            time.sleep(poll)
            continue
        try:
            fired = faults.fire("shard-start", shard=lease.index)
            stall = next((f for f in fired if f.kind == "stall"), None)
            if stall is not None:
                # A hung/partitioned worker: no heartbeats while the
                # lease runs out under us.
                stats["stalled"] += 1
                time.sleep(stall.secs if stall.secs is not None
                           else 2.0 * lease_ttl + 0.5)
            if probe_cache:
                data = cache.load(lease.key)
                if data is not None:
                    if queue.complete(lease.key, lease.lease_id,
                                      cached=True, seconds=0.0):
                        stats["cache_hits"] += 1
                        _notify(lease, "cache-hit")
                    else:
                        stats["fenced"] += 1
                        _notify(lease, "fenced")
                    continue
            with _Heartbeat(queue, lease, every=every, lease_ttl=lease_ttl,
                            timeout=timeout) as hb:
                data = execute_shard(lease.payload)
            cache.save(lease.key, data)
            for f in faults.fire("cache-saved", shard=lease.index):
                if f.kind == "corrupt-cache":
                    # Torn write chaos: truncate the blob we just
                    # stored; the checksummed store must flag it and
                    # the orchestrator must re-run the shard.
                    path = cache.store.path_for(lease.key)
                    path.write_bytes(path.read_bytes()[:64])
            if hb.timed_out:
                queue.fail(lease.key, lease.lease_id,
                           f"solve exceeded timeout={timeout}s "
                           "(result cached; retry will hit it)")
                stats["failed"] += 1
                _notify(lease, "timeout", float(data.get("seconds", 0.0)))
            elif queue.complete(lease.key, lease.lease_id, cached=False,
                                seconds=float(data.get("seconds", 0.0))):
                stats["solved"] += 1
                _notify(lease, "solved", float(data.get("seconds", 0.0)))
            else:
                stats["fenced"] += 1
                _notify(lease, "fenced", float(data.get("seconds", 0.0)))
        except Exception:
            verdict = queue.fail(lease.key, lease.lease_id,
                                 tb_mod.format_exc())
            if verdict == "quarantined":
                stats["quarantined"] += 1
            elif verdict == "retry":
                stats["failed"] += 1
            else:
                stats["fenced"] += 1
            _notify(lease, verdict)
    return stats


def _queue_worker_entry(queue_path: str, cache_root: str,
                        opts: dict) -> None:
    """Top-level entry for spawned queue-worker processes."""
    from .queue import WorkQueue

    os.environ.update(_worker_env(opts.get("threads")))
    queue = WorkQueue(queue_path, backoff=opts.get("backoff", 0.5))
    cache = ResultCache(cache_root)
    drain_queue(queue, cache,
                worker=opts.get("worker", f"worker-{os.getpid()}"),
                lease_ttl=opts.get("lease_ttl", 30.0),
                heartbeat_every=opts.get("heartbeat_every"),
                timeout=opts.get("timeout"),
                probe_cache=opts.get("probe_cache", True))


def run_plan_queue(plan: Plan, queue_path: str | Path, *,
                   jobs: int = 1,
                   cache: ResultCache | str | Path | None = None,
                   resume: bool = True,
                   threads: int | None = None,
                   lease_ttl: float = 30.0,
                   heartbeat_every: float | None = None,
                   max_attempts: int = 3,
                   backoff: float = 0.5,
                   timeout: float | None = None,
                   progress: Callable[[dict], None] | None = None,
                   poll: float = 0.2) -> RunResult:
    """Execute a plan through a durable work queue (crash-safe).

    Shards become leased messages in a SQLite-backed
    :class:`~repro.runs.queue.WorkQueue` at ``queue_path``; ``jobs``
    worker processes are spawned to drain it (any number of *external*
    ``pom worker`` processes — on this host or any host sharing the
    filesystem — may drain the same queue concurrently).  The
    orchestrator reaps expired leases, respawns dead workers, verifies
    every completed shard is actually loadable from the shared
    content-addressed cache (requeueing any that are not — e.g. a
    corrupt entry from a kill mid-write), and assembles the result.

    The bit-identical contract of :func:`run_plan` holds: shard solves
    are pure, the cache round-trip is exact, and assembly orders by
    member index — so a queue campaign with workers SIGKILLed and
    leases expiring mid-run still equals ``jobs=1``.

    Degradations:

    * an unwritable ``queue_path`` falls back to plain in-process
      execution with a warning (never fails a campaign over a missing
      mount);
    * if workers keep dying past the respawn budget, the orchestrator
      drains the remainder inline (fault injection disabled — the
      orchestrator is the recovery path, not a chaos target).

    Raises ``RuntimeError`` if shards end up quarantined: the campaign
    is incomplete, and the report (also available via ``pom queue``)
    carries each quarantined shard's captured traceback.
    """
    import multiprocessing as mp

    from .queue import (WorkQueue, default_queue_sibling,
                        writable_queue_path)

    if jobs < 1:
        raise ValueError("jobs must be positive")
    queue_path = Path(queue_path)
    if cache is not None and not isinstance(cache, ResultCache):
        cache = ResultCache(cache)
    if not writable_queue_path(queue_path):
        warnings.warn(
            f"queue path {queue_path} is not writable; degrading to "
            "in-process execution (no durable queue, no multi-host "
            "workers)", RuntimeWarning)
        return run_plan(plan, jobs=jobs, cache=cache, resume=resume,
                        threads=threads, progress=progress)
    if cache is None:
        # The queue is coordination state; the sibling cache is the
        # shared result tier a resumed/multi-worker campaign converges
        # through.  A queue without a cache cannot be crash-safe.
        cache = ResultCache(default_queue_sibling(queue_path, "cache"))

    t0 = time.perf_counter()
    ensure_shared_state_dir(default_queue_sibling(queue_path, "faults"))
    queue = WorkQueue(queue_path, backoff=backoff)
    queue.enqueue_plan(plan, max_attempts=max_attempts)
    plan_keys = {s.key for s in plan.shards}
    if not resume:
        queue.requeue(plan_keys)

    # Trust-but-verify the prior state: a row marked done whose cached
    # result is missing or corrupt goes back to pending.
    done_at_start: set[str] = set()
    for row in queue.rows():
        if row.key not in plan_keys:
            continue
        if row.state == "done":
            if resume and cache.load(row.key) is not None:
                done_at_start.add(row.key)
            else:
                queue.requeue([row.key])

    worker_opts = {"lease_ttl": lease_ttl,
                   "heartbeat_every": heartbeat_every,
                   "timeout": timeout, "backoff": backoff,
                   "threads": threads, "probe_cache": resume}

    def _spawn(i: int) -> mp.Process:
        opts = dict(worker_opts, worker=f"{os.uname().nodename}-w{i}")
        proc = mp.Process(target=_queue_worker_entry,
                          args=(str(queue_path), str(cache.root), opts),
                          daemon=True)
        proc.start()
        return proc

    total = plan.n_shards
    respawn_budget = 2 * total + 4
    spawned = 0
    workers: list[mp.Process] = []
    seen_done: set[str] = set(done_at_start)
    n_cached = len(done_at_start)
    n_executed = 0
    done = len(done_at_start)

    def _emit(row, cached: bool) -> None:
        if progress is not None:
            shard = plan.shards[row.index]
            progress({"kind": "shard", "shard": row.index,
                      "members": shard.n_members, "cached": cached,
                      "attempts": row.attempts,
                      "seconds": float(row.seconds or 0.0),
                      "done": done, "total": total})

    for row in queue.rows():
        if row.key in done_at_start:
            _emit(row, True)

    verify_rounds = 0
    try:
        while True:
            queue.reap()
            rows = [r for r in queue.rows() if r.key in plan_keys]
            for row in rows:
                if row.state == "done" and row.key not in seen_done:
                    seen_done.add(row.key)
                    done += 1
                    if row.cached:
                        n_cached += 1
                    else:
                        n_executed += 1
                    _emit(row, row.cached)
            unfinished = sum(r.state in ("pending", "leased") for r in rows)
            if unfinished == 0:
                # Drained.  Verify the result tier before declaring
                # victory: `done` in the queue means nothing unless the
                # cached shard actually loads.
                bad = [r for r in rows
                       if r.state == "done" and cache.load(r.key) is None]
                if not bad:
                    break
                verify_rounds += 1
                if verify_rounds > 3:
                    raise RuntimeError(
                        f"{len(bad)} shard result(s) remained unloadable "
                        "after 3 recompute rounds; cache tier is "
                        "persistently failing")
                for r in bad:
                    seen_done.discard(r.key)
                    done -= 1
                    if r.key in done_at_start:
                        done_at_start.discard(r.key)
                        n_cached -= 1
                    elif r.cached:
                        n_cached -= 1
                    else:
                        n_executed -= 1
                queue.requeue([r.key for r in bad])
                continue
            workers = [w for w in workers if w.is_alive()]
            deficit = min(jobs, unfinished) - len(workers)
            while deficit > 0 and spawned < respawn_budget:
                workers.append(_spawn(spawned))
                spawned += 1
                deficit -= 1
            if not workers:
                # Respawn budget exhausted (workers keep dying): the
                # orchestrator is the last line — drain inline with
                # fault injection off.
                drain_queue(queue, cache, worker="orchestrator",
                            lease_ttl=lease_ttl, timeout=timeout,
                            probe_cache=resume,
                            faults=FaultInjector.disabled())
                continue
            time.sleep(poll)
    finally:
        for w in workers:
            if w.is_alive():
                w.terminate()
        for w in workers:
            w.join(timeout=5.0)

    report = queue.describe()
    report["workers"] = jobs
    report["spawned"] = spawned
    quarantined = [{"shard": r.index, "attempts": r.attempts,
                    "error": r.error}
                   for r in queue.quarantined() if r.key in plan_keys]
    if quarantined:
        details = "; ".join(
            f"shard {q['shard']} after {q['attempts']} attempt(s)"
            for q in quarantined)
        raise RuntimeError(
            f"campaign incomplete: {len(quarantined)} shard(s) "
            f"quarantined ({details}); inspect with `pom queue "
            f"{queue_path}` and requeue with --requeue-quarantined")

    outcomes = {}
    for shard in plan.shards:
        data = cache.load(shard.key)
        if data is None:  # pragma: no cover - excluded by verify loop
            raise RuntimeError(
                f"shard {shard.index} missing from cache after drain")
        outcomes[shard.index] = _ShardOutcome(
            data=data, cached=shard.key in done_at_start)
    results, solve_s, _ = _assemble_members(plan, outcomes)

    return RunResult(
        spec=plan.spec,
        members=results,
        n_shards=total,
        n_executed=n_executed,
        n_cached=n_cached,
        wall_s=time.perf_counter() - t0,
        solve_s=solve_s,
        queue=report,
    )


def run_spec(spec: ScenarioSpec, *,
             jobs: int = 1,
             shard_members: int | None = None,
             cache: ResultCache | str | Path | None = None,
             resume: bool = True,
             threads: int | None = None,
             transport: str = "shm",
             queue: str | Path | None = None,
             progress: Callable[[dict], None] | None = None,
             **queue_kwargs) -> RunResult:
    """Compile and execute a scenario in one call (the common entry).

    With ``queue=`` the campaign runs through the durable work queue
    (:func:`run_plan_queue`, which accepts the extra ``queue_kwargs``
    like ``lease_ttl`` / ``max_attempts``); otherwise in-process via
    :func:`run_plan`.
    """
    plan = compile_plan(spec, shard_members=shard_members)
    if queue is not None:
        return run_plan_queue(plan, queue, jobs=jobs, cache=cache,
                              resume=resume, threads=threads,
                              progress=progress, **queue_kwargs)
    if queue_kwargs:
        raise TypeError(
            f"unexpected arguments {sorted(queue_kwargs)} "
            "(queue-only options need queue=)")
    return run_plan(plan, jobs=jobs, cache=cache, resume=resume,
                    threads=threads, transport=transport,
                    progress=progress)
