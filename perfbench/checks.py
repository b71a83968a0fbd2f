"""Correctness gates: every run checks the outputs it timed.

Three gates, each one counted operation (a failure makes the run exit
non-zero):

* **Reference agreement.**  A seeded subset of members (one per
  campaign) is re-solved one member at a time on the independent
  reference path, ``simulate(..., backend="dense")`` (the dense
  backend always evaluates the coupling with NumPy), and compared with
  the batched campaign result.  ``large_n`` uses ``backend="sparse",
  kernel="numpy"`` instead, because the dense O(N^2) coupling matrix at
  N=65536 would need 34 GB; the single-member NumPy edge-list path is
  still independent of the batched compiled kernel.

  - Fixed-step (rk4) members are compared on the shared mesh, over a
    prefix of the horizon (:data:`REFERENCE_HORIZON`) where a full
    reference solve would dominate the run.  Both paths step the same
    mesh with the same noise draws, so they agree to rounding:
    :data:`RTOL_FIXED` relative to the largest magnitude compared.
  - Adaptive (dopri) members are compared at ``t_end``: the batched
    solve shares one adaptive mesh across members, so where it steps
    across the one-off delay differs from a single-member solve, and
    weakly coupled members carry that difference to the horizon.
    Measured up to 5.4e-5 relative (0.1 rad at |theta| ~ 1885) on the
    beta-kappa sweep; :data:`RTOL_ADAPTIVE` relative to the largest
    final phase leaves a 4x margin and still fails a missing delay
    (~12 rad) or a wrong coupling scale.
* **Replay identity.**  The warm-cache replay is bit-identical to the
  cold run, member by member and array by array.
* **Service identity** (``service`` only).  The npz fetched over HTTP
  decodes to arrays bit-identical to ``run_plan(jobs=1)`` of the same
  spec solved in this process.
"""

from __future__ import annotations

import io

import numpy as np

#: relative agreement of rk4 members with the reference path
RTOL_FIXED = 1e-9
#: relative agreement of dopri final phases with the reference
RTOL_ADAPTIVE = 2e-4
#: prefix of the horizon the fixed-step reference solves, per workload
REFERENCE_HORIZON = {"paper_sweep": 120.0, "large_n": 0.5,
                     "campaign_io": 10.0, "service": 60.0}


class CheckLog:
    """Named pass/fail outcomes of one run."""

    def __init__(self) -> None:
        self.results: list[tuple[str, bool, str]] = []

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        self.results.append((name, bool(ok), detail))
        return ok

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> int:
        return sum(1 for _, ok, _ in self.results if not ok)

    def failures(self) -> list[str]:
        return [f"{n}: {d}" for n, ok, d in self.results if not ok]

    def reference_errors(self) -> dict[str, str]:
        """Measured reference errors, passed or not (for provenance)."""
        return {n: d for n, _, d in self.results
                if n.startswith("reference/")}


def _same(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


def runs_identical(a, b) -> str | None:
    """``None`` when two RunResults hold bit-identical member arrays."""
    if len(a.members) != len(b.members):
        return f"{len(a.members)} vs {len(b.members)} members"
    for ma, mb in zip(a.members, b.members):
        if ma.index != mb.index:
            return f"member order {ma.index} vs {mb.index}"
        for name in ("ts", "thetas", "metrics_ts"):
            if not _same(getattr(ma, name), getattr(mb, name)):
                return f"member {ma.index}: {name} differs"
        if sorted(ma.metrics) != sorted(mb.metrics):
            return f"member {ma.index}: metric names differ"
        for name in ma.metrics:
            if not _same(ma.metrics[name], mb.metrics[name]):
                return f"member {ma.index}: metric {name} differs"
    return None


def npz_identical(blob_a: bytes, blob_b: bytes) -> str | None:
    """``None`` when two npz artefacts decode to bit-identical arrays."""
    with np.load(io.BytesIO(blob_a)) as za, np.load(io.BytesIO(blob_b)) as zb:
        if sorted(za.files) != sorted(zb.files):
            return "array names differ"
        for name in za.files:
            if not _same(za[name], zb[name]):
                return f"array {name} differs"
    return None


def _reference_member(member, solver: dict, metrics, backend: str,
                      horizon: float):
    """Solve one member alone on the reference path."""
    from repro.core import simulate
    from repro.metrics.streaming import metrics_from_trajectories

    spec = member.member
    model = spec.build_model()
    method = solver["method"]
    t_end = spec.t_end if method == "dopri" else min(spec.t_end, horizon)
    traj = simulate(model, t_end, theta0=spec.build_theta0(model.n),
                    method=method, dt=solver["dt"], rtol=solver["rtol"],
                    atol=solver["atol"], seed=spec.seed, backend=backend,
                    kernel="numpy" if backend == "sparse" else None)
    ref_metrics = {}
    if metrics:
        ref_metrics = metrics_from_trajectories(
            traj.ts, traj.thetas[None], [model], metrics)
    return traj, ref_metrics


def pick_members(seed: int, plans, runs) -> list[tuple]:
    """One seeded member per campaign, with its shard's solver settings.

    Taken right after the first repetition, so the rest of its (up to
    100 MB) results can be dropped before the reference solves run.
    """
    rng = np.random.default_rng([seed, 0x524546])
    picks = []
    for plan, run in zip(plans, runs):
        member = run.members[int(rng.integers(len(run.members)))]
        shard = next(s for s in plan.shards
                     if member.index in s.member_indices)
        picks.append((plan.spec.name, member, shard.payload["solver"],
                      tuple(shard.payload.get("metrics") or ())))
    return picks


def check_reference(log: CheckLog, workload: str, picks) -> None:
    """Re-solve each picked member alone on the reference path."""
    backend = "sparse" if workload == "large_n" else "dense"
    for campaign, member, solver, metrics in picks:
        name = f"reference/{campaign}/member{member.index}"
        traj, ref_metrics = _reference_member(
            member, solver, metrics, backend, REFERENCE_HORIZON[workload])
        if solver["method"] == "dopri":
            if member.thetas is None:
                log.record(name, False, "adaptive member has no phases")
                continue
            want = traj.thetas[-1]
            err = float(np.max(np.abs(member.thetas[-1] - want))) \
                / max(1.0, float(np.max(np.abs(want))))
            log.record(name, err <= RTOL_ADAPTIVE,
                       f"final-phase relative error {err:.3g} "
                       f"(limit {RTOL_ADAPTIVE})")
            continue
        n = traj.ts.size
        pairs = []
        if member.thetas is not None:
            pairs.append(("ts", member.ts[:n], traj.ts))
            pairs.append(("thetas", member.thetas[:n], traj.thetas))
        if metrics:
            pairs.append(("metrics_ts", member.metrics_ts[:n], traj.ts))
            for mname in metrics:
                got = member.metrics[mname]
                want = ref_metrics[f"metric_{mname}"][0]
                if got.ndim == 1:
                    got = got[:n]
                pairs.append((mname, got, want))
        worst, worst_name = 0.0, "every array"
        for pname, got, want in pairs:
            if got.shape != want.shape:
                worst, worst_name = np.inf, f"{pname} shape"
                break
            scale = max(1.0, float(np.max(np.abs(want))))
            err = float(np.max(np.abs(got - want))) / scale
            if err > worst:
                worst, worst_name = err, pname
        log.record(name, worst <= RTOL_FIXED,
                   f"{worst_name} relative error {worst:.3g} "
                   f"(limit {RTOL_FIXED})")


def check_replay(log: CheckLog, cold, warm) -> None:
    """Warm replay must reproduce the cold campaign bit for bit.

    On ``service`` ``cold`` is the fetched npz, compared with the
    replay's npz; elsewhere the cold and warm RunResults are compared
    member by member, and the replay must have solved nothing.
    """
    if isinstance(cold, bytes):
        why = npz_identical(cold, warm[0].npz_bytes())
        log.record("replay/service", why is None, why or "")
        return
    for c, w in zip(cold, warm):
        why = runs_identical(c, w)
        log.record(f"replay/{c.spec.name}", why is None, why or "")
        log.record(f"replay/{c.spec.name}/no-solve",
                   w.n_executed == 0 and c.n_executed == c.n_shards,
                   f"cold executed {c.n_executed}/{c.n_shards}, "
                   f"warm executed {w.n_executed}")


def check_service(log: CheckLog, items, fetched: bytes):
    """The served npz must equal an in-process ``run_plan(jobs=1)``.

    Returns the in-process run, which the reference gate then samples.
    """
    from repro.runs import compile_plan, run_plan

    plan = compile_plan(items[0].spec)
    run = run_plan(plan, jobs=1)
    why = npz_identical(fetched, run.npz_bytes())
    log.record("service/npz-vs-jobs1", why is None, why or "")
    return plan, run
