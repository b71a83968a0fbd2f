"""Campaign planner: compile a :class:`ScenarioSpec` into solve shards.

The planner turns the flat member list of a spec into **shards** — the
units the executor runs and the cache stores.  Members are *fused* into
one shard (a single stacked :func:`~repro.core.simulate_grid` solve
through the heterogeneous batched backend) when they share the
topology dict and the horizon ``t_end``: the stacked backend needs one
edge set, and a solve has one time mesh.  A topology axis (a
machine-design sweep over candidate networks) therefore plans one
shard per topology value, and every shard runs the same-topology
stacked path — the compiled stepper for rk4/euler on the ``cc`` kernel.

Everything else — coupling strength, period, potential parameters,
noise, seeds, one-off delays, initial conditions — batches freely.

The fixed step ``dt`` is resolved *at plan time* (the spec's value, or
the smallest :func:`~repro.core.simulation.default_dt` over the fused
group), so how a group is later chunked can never change the step.
Without an explicit ``solver["dt"]`` each topology group keeps its own
kappa-dependent default.

Chunking (``shard_members=``) splits fused groups into bounded shards
so the multiprocess executor has units to spread: for the fixed-step
methods (``rk4``/``euler``/``em``) member rows are arithmetically
independent, so chunking is **bit-for-bit invariant** — any shard
layout produces the phases of the full-grid batched solve.  For the
adaptive ``dopri`` the members of a shard share one adaptive mesh, so
chunking changes meshes (results stay within solver tolerances); the
default ``shard_members=None`` keeps each fused group whole, which is
what reproduces ``grid_sweep(batched=True)`` bit for bit.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass

from ..core.simulation import default_dt
from ..core.topology import topology_n_from_spec
from .cache import shard_key
from .spec import FIXED_STEP_METHODS, MemberSpec, ScenarioSpec

__all__ = ["Shard", "Plan", "compile_plan", "TRAJ_WARN_ENV_VAR"]

#: env override (bytes) for the full-trajectory footprint warning;
#: <= 0 disables it
TRAJ_WARN_ENV_VAR = "POM_TRAJ_WARN_BYTES"

_TRAJ_WARN_DEFAULT = 128 * 1024 * 1024

#: spec hashes already warned about (the warning is one-time per spec
#: per process — a campaign is typically compiled more than once)
_footprint_warned: set[str] = set()


def _warn_footprint(spec: ScenarioSpec, est_bytes: float) -> None:
    """One-time warning for full-trajectory campaigns that would drown
    the cache; points at the streaming-metrics opt-out."""
    try:
        threshold = float(os.environ.get(TRAJ_WARN_ENV_VAR,
                                         _TRAJ_WARN_DEFAULT))
    except ValueError:
        threshold = _TRAJ_WARN_DEFAULT
    if threshold <= 0 or est_bytes <= threshold:
        return
    shash = spec.content_hash()
    if shash in _footprint_warned:
        return
    _footprint_warned.add(shash)
    warnings.warn(
        f"campaign {spec.name!r} requests full trajectories with an "
        f"estimated (R, n_t, N) footprint of ~{est_bytes / 1e6:.0f} MB; "
        "declare metrics=[...] with trajectories=\"none\" (or thin with "
        "trajectories=\"stride:K\") to cache kilobyte-scale reductions "
        f"instead (threshold: {TRAJ_WARN_ENV_VAR}={threshold:.0f})",
        RuntimeWarning, stacklevel=3)


@dataclass(frozen=True)
class Shard:
    """One executor unit: a batched solve over fused members.

    Attributes
    ----------
    index:
        Position in the plan (execution order is unconstrained; results
        are assembled by member index, not shard index).
    payload:
        JSON-able solve description handed to the worker process:
        ``{"members": [member dicts], "t_end": float, "solver": dict,
        "metrics": [names], "trajectories": mode}``.  The metric set and
        capture mode are part of the cache key — a metric-only shard and
        a full-trajectory shard of the same members are distinct cached
        artefacts.
    key:
        Content-addressed cache key of the solve
        (:func:`repro.runs.cache.shard_key`).
    """

    index: int
    payload: dict
    key: str

    @property
    def n_members(self) -> int:
        """Members fused into this shard."""
        return len(self.payload["members"])

    @property
    def member_indices(self) -> list[int]:
        """Global member indices covered by this shard."""
        return [m["index"] for m in self.payload["members"]]


@dataclass
class Plan:
    """A compiled campaign: the spec plus its shard decomposition."""

    spec: ScenarioSpec
    shards: list[Shard]

    @property
    def n_members(self) -> int:
        """Total members across all shards."""
        return sum(s.n_members for s in self.shards)

    @property
    def n_shards(self) -> int:
        """Number of solve units."""
        return len(self.shards)

    def describe(self, cache=None) -> dict:
        """Metadata for ``pom plan`` and reports.

        With a :class:`~repro.runs.cache.ResultCache` the per-shard
        cache state is included, so a partially finished campaign shows
        exactly which shards a resumed run would still execute.
        """
        shards = []
        for s in self.shards:
            row = {
                "shard": s.index,
                "members": s.n_members,
                "t_end": s.payload["t_end"],
                "method": s.payload["solver"]["method"],
                "key": s.key[:16],
            }
            if cache is not None:
                row["cached"] = cache.has(s.key)
            shards.append(row)
        out = {
            "name": self.spec.name,
            "spec_hash": self.spec.content_hash()[:16],
            "members": self.n_members,
            "shards": shards,
        }
        if cache is not None:
            out["cache"] = cache.describe()
        return out


def _chunks(seq: list, size: int | None) -> list[list]:
    if size is None or size >= len(seq):
        return [seq]
    return [seq[i:i + size] for i in range(0, len(seq), size)]


def compile_plan(spec: ScenarioSpec, *,
                 shard_members: int | None = None) -> Plan:
    """Compile a scenario into its deterministic shard decomposition.

    Parameters
    ----------
    spec:
        The campaign.
    shard_members:
        Upper bound on members per shard (see the module docstring for
        the bit-for-bit implications); ``None`` keeps each fused group
        as one shard.

    The decomposition is a pure function of ``(spec, shard_members)`` —
    never of the worker count — which is what makes ``jobs=1`` and
    ``jobs=8`` executions of the same plan bit-for-bit identical.
    """
    if shard_members is not None and shard_members < 1:
        raise ValueError("shard_members must be positive")
    members = spec.members()
    solver = spec.solver
    method = solver.get("method", "dopri")

    # Stage 1: fuse hash-compatible members (identical topology dict and
    # t_end), preserving first-seen group order.
    groups: dict[str, list[MemberSpec]] = {}
    for m in members:
        gkey = json.dumps([m.model["topology"], m.t_end], sort_keys=True,
                          separators=(",", ":"))
        groups.setdefault(gkey, []).append(m)

    # Stage 2: resolve the solver per group (dt over the fused group)
    # and cut the group into shards.
    est_traj_bytes = 0.0
    shards: list[Shard] = []
    for group in groups.values():
        dt = solver.get("dt")
        if dt is None:
            # Plan-time resolution over the *fused group* (the exact set
            # simulate_grid would see unchunked), so chunking and the
            # pre-existing grid_sweep(batched=True) path agree on dt.
            dt = min(default_dt(m.build_model()) for m in group)
        resolved = {
            "method": method,
            "dt": float(dt),
            "rtol": float(solver.get("rtol", 1e-6)),
            "atol": float(solver.get("atol", 1e-9)),
            "n_samples": solver.get("n_samples"),
        }
        if method not in FIXED_STEP_METHODS and shard_members is not None \
                and len(group) > shard_members:
            # Not an error — but the caller opted into adaptive meshes
            # that differ from this group's unchunked batched solve;
            # record it (only on the groups actually split) so `pom
            # plan` surfaces the fact and chunked solves never share a
            # cache key with unchunked ones.
            resolved["chunked_adaptive"] = True
        if spec.trajectories == "full":
            n_t = group[0].t_end / float(dt) + 1.0
            n_osc = topology_n_from_spec(group[0].model["topology"])
            est_traj_bytes += len(group) * n_t * n_osc * 8.0
        for chunk in _chunks(group, shard_members):
            payload = {
                "members": [m.to_dict() for m in chunk],
                "t_end": chunk[0].t_end,
                "solver": resolved,
                "metrics": list(spec.metrics),
                "trajectories": spec.trajectories,
            }
            shards.append(Shard(index=len(shards), payload=payload,
                                key=shard_key(payload)))

    _warn_footprint(spec, est_traj_bytes)
    return Plan(spec=spec, shards=shards)
