"""The benchmark's four campaign workloads and how one repetition runs.

Sizes, parameter grids, N and horizons are fixed; the ``--seed``
argument only draws the initial-condition seed and the noise seeds
(:func:`draw_seeds`).  Why each workload exists:

``paper_sweep``
    The paper's own scale (ring N=24/32).  The solve is dominated by
    Python RHS dispatch, so the backends/integrate glue and the dopri
    controller do the work; the coupling kernel is a small share.
``large_n``
    Ring N=65536: per-call dispatch is amortised, so the observer fold,
    the intrinsic frequency and the coupling kernel carry the time.
``campaign_io``
    ~100 MB of full trajectories through a 2-process pool: the only
    workload where pool transport, cache writes and reads, and npz
    assembly carry the wall time.
``service``
    The same kind of solve as ``paper_sweep`` behind the HTTP service,
    SQLite lease queue and artifact store, so queue and HTTP cost show
    apart from solve cost.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("paper_sweep", "large_n", "campaign_io", "service")

#: the cached-result latency leg: each burst sends fetches for
#: BURST_S, then resubmits for BURST_S, at least BURST_MIN of each; the
#: leg ends after at least BURSTS bursts and MIN_REQUESTS of each kind
BURST_S = 0.6
BURST_MIN = 8
#: untimed requests that open each loop of a burst (the first requests
#: after a campaign run on cold caches)
BURST_WARMUP = 2
BURSTS = 3
MIN_REQUESTS = 20
#: warm replays per repetition, within a time budget (see replay())
REPLAYS = 50
REPLAY_BUDGET_S = 0.5

_SIGMAS = [0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0]
_JITTER = {"kind": "gaussian", "std": 0.01, "refresh": 0.5}
_RING = {"t_comp": 0.9, "t_comm": 0.1}


@dataclass
class Campaign:
    """One campaign of a workload: a spec plus how it is executed."""

    spec: object
    jobs: int = 1
    shard_members: int | None = None


@dataclass
class Seeds:
    initial: int
    noise: list[int] = field(default_factory=list)


def draw_seeds(seed: int) -> Seeds:
    """Initial-condition and noise seeds drawn from the run's seed."""
    rng = np.random.default_rng([seed, 0x504F4D])
    values = rng.integers(1, 2**31 - 1, size=5)
    return Seeds(initial=int(values[0]), noise=[int(v) for v in values[1:]])


def campaigns(workload: str, seed: int) -> list[Campaign]:
    """The campaigns one repetition of ``workload`` runs, in order."""
    from repro.experiments.registry import get_experiment
    from repro.runs import ScenarioSpec

    s = draw_seeds(seed)
    initial = {"kind": "normal", "std": 1e-3, "seed": s.initial}
    if workload == "paper_sweep":
        noisy = ScenarioSpec(
            name="bench-noisy-sigma-seed",
            model={"topology": {"kind": "ring", "n": 32,
                                "distances": [1, -1]},
                   "potential": {"kind": "bottleneck"},
                   "local_noise": _JITTER, **_RING},
            t_end=120.0, solver={"method": "rk4", "dt": 0.01},
            initial=initial,
            axes=[("potential.sigma", _SIGMAS), ("seed", s.noise[:2])],
            metrics=["order_parameter", "phase_spread"],
            trajectories="none")
        return [
            Campaign(get_experiment("sigma").spec_factory(seed=s.initial)),
            Campaign(get_experiment("beta-kappa").spec_factory(
                seed=s.noise[0])),
            Campaign(noisy),
        ]
    if workload == "large_n":
        return [Campaign(ScenarioSpec(
            name="bench-large-n",
            model={"topology": {"kind": "ring", "n": 65536,
                                "distances": [1, -1]},
                   "potential": {"kind": "bottleneck"}, **_RING},
            t_end=2.0, solver={"method": "rk4", "dt": 0.01}, initial=initial,
            seed=s.noise[0], axes=[("potential.sigma", [1.0, 2.0])],
            metrics=["order_parameter", "phase_spread"],
            trajectories="none"))]
    if workload == "campaign_io":
        return [Campaign(ScenarioSpec(
            name="bench-campaign-io",
            model={"topology": {"kind": "torus2d", "nx": 16, "ny": 16},
                   "potential": {"kind": "tanh"},
                   "local_noise": _JITTER, **_RING},
            t_end=30.0, solver={"method": "rk4", "dt": 0.01},
            initial=initial,
            axes=[("v_p_override", [0.5, 1.0, 2.0, 4.0]),
                  ("seed", s.noise[:4])]),
            jobs=2, shard_members=4)]
    if workload == "service":
        return [Campaign(ScenarioSpec(
            name="bench-service",
            model={"topology": {"kind": "ring", "n": 32,
                                "distances": [1, -1]},
                   "potential": {"kind": "bottleneck"},
                   "local_noise": _JITTER, **_RING},
            t_end=60.0, solver={"method": "rk4", "dt": 0.01},
            initial=initial, seed=s.noise[0],
            axes=[("potential.sigma", _SIGMAS)],
            metrics=["order_parameter", "phase_spread"],
            trajectories="none"), jobs=2, shard_members=4)]
    raise ValueError(f"unknown workload {workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")


def compile_all(items: list[Campaign]) -> list:
    """Compile every campaign's plan."""
    from repro.runs import compile_plan

    return [compile_plan(c.spec, shard_members=c.shard_members)
            for c in items]


# ======================================================================
# one repetition
# ======================================================================
@dataclass
class Rep:
    """What one cold campaign plus its warm replays cost.

    ``campaign`` and each of ``replays`` are ``(start, end)``
    perf-counter stamps.  The results themselves are handed to the
    ``inspect`` callback of :func:`run_rep` and not kept, so memory use
    does not grow with the number of replays or repetitions.
    """

    campaign: tuple[float, float]
    replays: list[tuple[float, float]]
    caches: list          # ResultCache per campaign
    root: Path
    solve_s: float        # summed in-worker solve seconds
    transport_s: float    # summed measured result-transport seconds
    slot_s: float         # worker slots x wall seconds
    shard_seconds: list[float] = field(default_factory=list)
    executed: int = 0
    server_root: Path | None = None

    @property
    def campaign_s(self) -> float:
        return self.campaign[1] - self.campaign[0]


def _span(tracer, name):
    return contextlib.nullcontext() if tracer is None else tracer.span(name)


def run_inprocess(items, plans, root: Path, inspect, tracer=None) -> Rep:
    """Cold campaign into fresh caches, then warm replays + npz assembly.

    ``campaign`` runs from the compiled plans to the assembled
    :class:`RunResult` objects; each replay reloads every plan from its
    cache (no solve may run) and builds its ``npz_bytes``.
    """
    from repro.runs import ResultCache, run_plan

    caches = []
    for i in range(len(items)):
        path = root / f"cache{i}"
        shutil.rmtree(path, ignore_errors=True)
        caches.append(ResultCache(path))
    shard_seconds: list[float] = []

    def progress(event):
        if not event["cached"]:
            shard_seconds.append(event["seconds"])

    cold = []
    t0 = time.perf_counter()
    with _span(tracer, "campaign"):
        for c, plan, cache in zip(items, plans, caches):
            cold.append(run_plan(plan, jobs=c.jobs, cache=cache,
                                 progress=progress))
    campaign = (t0, time.perf_counter())
    rep = Rep(campaign=campaign, replays=[], caches=caches, root=root,
              solve_s=sum(r.solve_s for r in cold),
              transport_s=sum(r.transport_s for r in cold),
              slot_s=sum(c.jobs * r.wall_s for c, r in zip(items, cold)),
              shard_seconds=shard_seconds,
              executed=sum(r.n_executed for r in cold))
    rep.replays = replay(plans, caches, lambda warm: inspect(cold, warm),
                         tracer)
    return rep


def replay(plans, caches, inspect, tracer=None) -> list:
    """Warm replays of every plan from its cache, plus npz assembly.

    The first replay's RunResults go to ``inspect`` and are dropped.
    Untraced, the replay repeats up to :data:`REPLAYS` times within
    :data:`REPLAY_BUDGET_S` (a metric-only replay takes milliseconds);
    traced, it runs once so the layer counts repeat exactly.  Returns
    every replay's ``(start, end)``.
    """
    from repro.runs import run_plan

    spans = []
    t_budget = time.perf_counter() + REPLAY_BUDGET_S
    while not spans or (tracer is None and len(spans) < REPLAYS
                        and time.perf_counter() < t_budget):
        runs = []
        t0 = time.perf_counter()
        with _span(tracer, "replay"):
            for plan, cache in zip(plans, caches):
                run = run_plan(plan, jobs=1, cache=cache)
                with _span(tracer, "assembly.npz"):
                    blob = run.npz_bytes()
                if tracer is not None:
                    tracer.count("assembly.npz_bytes", len(blob))
                runs.append(run)
        spans.append((t0, time.perf_counter()))
        # Free this replay's arrays before the next one starts, so peak
        # memory does not depend on how many replays fit the budget.
        del blob
        if len(spans) == 1:
            inspect(runs)
        del runs, run
    return spans


def start_server(root: Path, campaign: Campaign):
    """A fresh in-process service: HTTP, SQLite queue, 2 workers."""
    from repro.service.server import CampaignServer

    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    return CampaignServer(root / "queue.db", workers=campaign.jobs,
                          shard_members=campaign.shard_members).start()


def run_service(items, plans, root: Path, inspect, tracer=None) -> Rep:
    """Submit to a fresh server, wait, fetch the npz; then replay warm.

    The campaign runs from the submit request to the fetched bytes;
    the client polls status every 50 ms.  The replays reload the plan
    in-process from the cache the service workers wrote.
    """
    from repro.runs import ResultCache
    from repro.service.client import ServiceClient

    (campaign,), (plan,) = items, plans
    server = start_server(root, campaign)
    try:
        client = ServiceClient(server.url)
        t0 = time.perf_counter()
        with _span(tracer, "campaign"):
            with _span(tracer, "service.submit"):
                status = client.submit(campaign.spec,
                                       shard_members=campaign.shard_members)
            cid = status["id"]
            while status["status"] == "running":
                time.sleep(0.05)
                with _span(tracer, "service.status"):
                    status = client.status(cid)
            if status["status"] != "done":
                raise RuntimeError(f"service campaign ended {status}")
            with _span(tracer, "service.fetch"):
                blob = client.result_bytes(cid)
        span = (t0, time.perf_counter())
        rows = server.service.queue.rows()
    finally:
        server.close()
    shard_seconds = [r.seconds for r in rows if r.seconds and not r.cached]
    cache = ResultCache(root / "queue.db.cache")
    rep = Rep(campaign=span, replays=[], caches=[cache], root=root,
              solve_s=float(sum(shard_seconds)), transport_s=0.0,
              slot_s=campaign.jobs * (span[1] - span[0]),
              shard_seconds=shard_seconds,
              executed=sum(1 for r in rows if not r.cached),
              server_root=root)
    rep.replays = replay([plan], [cache], lambda warm: inspect(blob, warm),
                         tracer)
    return rep


def run_rep(workload, items, plans, root: Path, inspect=lambda c, w: None,
            tracer=None) -> Rep:
    """One repetition; ``inspect(cold, warm)`` sees its results once.

    ``cold`` is the list of cold RunResults (on ``service``, the fetched
    npz bytes) and ``warm`` the first replay's RunResults.
    """
    if workload == "service":
        return run_service(items, plans, root, inspect, tracer)
    return run_inprocess(items, plans, root, inspect, tracer)


# ======================================================================
# cached-result latency leg
# ======================================================================
class LatencyLeg:
    """Closed-loop fetches and idempotent resubmits of finished campaigns.

    Each request is sent only after the previous reply arrived.  The
    samples come in time-boxed bursts, one after each repetition over
    that repetition's finished campaign, so they spread over the run
    instead of landing in one phase of host contention.  On ``service``
    the requests cross HTTP to a server over the repetition's state;
    elsewhere the same :class:`CampaignService` calls run in-process
    over the workload's first campaign and its cache.  A resubmit must
    report a full cache hit and enqueue nothing, and a fetch must
    return as many bytes as the burst's first fetch did.  The sample
    counts differ with the cost of a request (a ``campaign_io`` fetch
    reads and checksums 100 MB) and are reported.
    """

    def __init__(self, workload: str, items, tracer=None) -> None:
        self.workload = workload
        self.campaign = items[0]
        self.tracer = tracer
        # (start, end, milliseconds) per request
        self.fetches: list[tuple[float, float, float]] = []
        self.submits: list[tuple[float, float, float]] = []
        #: the first npz fetched over HTTP (``service`` only), for the
        #: service identity check
        self.fetched: bytes | None = None
        self.bursts = 0
        self.requests = 0     # every request sent, timed or not

    def done(self) -> bool:
        return self.bursts >= BURSTS \
            and len(self.fetches) >= MIN_REQUESTS \
            and len(self.submits) >= MIN_REQUESTS

    def _endpoints(self, rep: Rep, root: Path):
        campaign = self.campaign
        if self.workload == "service":
            from repro.service.client import ServiceClient
            from repro.service.server import CampaignServer

            server = CampaignServer(rep.server_root / "queue.db",
                                    workers=campaign.jobs,
                                    shard_members=campaign.shard_members)
            server.start()
            client = ServiceClient(server.url)
            return (lambda: client.submit(
                        campaign.spec, shard_members=campaign.shard_members),
                    client.result_bytes, server.close)
        from repro.service.server import CampaignService

        body = {"spec": campaign.spec.to_dict()}
        if campaign.shard_members is not None:
            body["shard_members"] = campaign.shard_members
        svc = CampaignService(root / "queue.db", rep.caches[0])
        return (lambda: svc.submit(body), lambda cid: svc.result(cid)[0],
                lambda: shutil.rmtree(root, ignore_errors=True))

    def burst(self, rep: Rep, root: Path) -> None:
        """One burst over ``rep``'s finished campaign.

        The calling thread is pinned to one CPU for the burst, and the
        server's threads started inside it inherit the pin, so client
        and handler share the core whose contention the speed sampler
        measures (left unpinned, a handler on the other, separately
        contended vCPU made the HTTP p90 swing by 2x between runs).
        """
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(allowed)})
        try:
            self._burst(rep, root)
        finally:
            os.sched_setaffinity(0, allowed)
        self.bursts += 1

    def _burst(self, rep: Rep, root: Path) -> None:
        submit, fetch, close = self._endpoints(rep, root)
        try:
            cid = submit()["id"]
            first = fetch(cid)
            self.requests += 2
            if self.fetched is None and self.workload == "service":
                self.fetched = first
            self._loop(self.fetches, "service.fetch", lambda: fetch(cid),
                       lambda data: self._same_size(data, first))
            self._loop(self.submits, "service.submit", submit,
                       self._idempotent)
        finally:
            close()

    def _loop(self, samples, name, call, check) -> None:
        for _ in range(BURST_WARMUP):
            check(call())
        self.requests += BURST_WARMUP
        deadline = time.perf_counter() + BURST_S
        n = 0
        while n < BURST_MIN or time.perf_counter() < deadline:
            t0 = time.perf_counter()
            with _span(self.tracer, name):
                out = call()
            t1 = time.perf_counter()
            samples.append((t0, t1, (t1 - t0) * 1e3))
            check(out)
            n += 1
        self.requests += n

    @staticmethod
    def _same_size(data: bytes, first: bytes) -> None:
        if len(data) != len(first):
            raise RuntimeError("cached fetch returned different bytes")

    @staticmethod
    def _idempotent(out: dict) -> None:
        if not out["cached"] or out["new_shards"] != 0:
            raise RuntimeError(f"resubmit was not idempotent: {out}")
