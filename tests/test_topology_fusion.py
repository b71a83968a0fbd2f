"""Topology axes: one stacked shard per topology value.

A machine-design sweep (one axis ranging over candidate interconnects)
plans one shard per topology value.  Each shard is a same-topology
stacked solve — the compiled stepper for rk4 where ``cc`` is available —
and its bits are independent of the shard layout, the worker count and
the fault-injected queue path.  A stacked solve over mixed topologies
is rejected.
"""

import hashlib
import json

import numpy as np
import pytest

from repro import kernels
from repro.core import grid_sweep, simulate_grid
from repro.runs import ScenarioSpec, compile_plan, run_plan, run_spec
from repro.runs.cache import shard_key
from repro.runs.spec import MemberSpec

needs_cc = pytest.mark.skipif(not kernels.cc_available(),
                              reason="no C compiler")

#: four same-N machine candidates (N = 16), incl. two real interconnects
TOPOLOGIES_N16 = [
    {"kind": "ring", "n": 16, "distances": [1, -1]},
    {"kind": "torus2d", "nx": 4, "ny": 4},
    {"kind": "hypercube", "dim": 4},
    {"kind": "dragonfly", "groups": 4, "routers": 4},
]


def topo_axis_spec(*, method="rk4", dt=0.05, t_end=12.0, seeds=(0, 1),
                   topologies=None, name="machine-design",
                   trajectories="none",
                   metrics=("order_parameter", "phase_spread")):
    return ScenarioSpec(
        name=name,
        model={
            "topology": dict(TOPOLOGIES_N16[0]),
            "potential": {"kind": "bottleneck", "sigma": 1.5},
            "t_comp": 0.9,
            "t_comm": 0.1,
        },
        t_end=t_end,
        solver=({"method": method, "dt": dt} if dt is not None
                else {"method": method}),
        initial={"kind": "normal", "std": 1e-3, "seed": 7},
        axes=[
            ("topology", [dict(t) for t in
                          (topologies or TOPOLOGIES_N16)]),
            ("seed", list(seeds)),
        ],
        metrics=list(metrics),
        trajectories=trajectories,
    )


def _payload_digest(payload: dict) -> str:
    return hashlib.sha256(json.dumps(
        payload, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def _assert_one_shard_per_topology(plan):
    assert plan.n_shards == 4
    for shard, topo in zip(plan.shards, TOPOLOGIES_N16):
        assert [m["model"]["topology"] for m in shard.payload["members"]] \
            == [topo, topo]
    assert [s.member_indices for s in plan.shards] == \
        [[0, 1], [2, 3], [4, 5], [6, 7]]


class TestPlannerFusion:
    def test_fixed_step_plans_one_shard_per_topology(self):
        plan = compile_plan(topo_axis_spec())
        _assert_one_shard_per_topology(plan)
        assert "topologies" not in plan.describe()["shards"][0]

    def test_adaptive_defaults_to_per_group(self):
        _assert_one_shard_per_topology(
            compile_plan(topo_axis_spec(method="dopri", dt=None)))

    def test_no_explicit_dt_stays_per_group(self):
        # Without solver["dt"] each topology group resolves its own
        # kappa-dependent default dt.
        plan = compile_plan(topo_axis_spec(dt=None))
        assert plan.n_shards == 4
        dts = {s.payload["solver"]["dt"] for s in plan.shards}
        assert len(dts) > 1

    def test_mixed_n_never_merges(self):
        spec = topo_axis_spec(topologies=[
            {"kind": "ring", "n": 8, "distances": [1, -1]},
            {"kind": "hypercube", "dim": 3},   # N = 8, still its own shard
            {"kind": "ring", "n": 12, "distances": [1, -1]},
        ])
        plan = compile_plan(spec)
        assert [s.n_members for s in plan.shards] == [2, 2, 2]

    def test_single_topology_plan_is_unchanged(self):
        # A campaign without a topology axis must keep its payload byte
        # for byte across planner changes, so its cache keys move only
        # with the numerics fingerprint.
        spec = topo_axis_spec(topologies=[TOPOLOGIES_N16[0]])
        (shard,) = compile_plan(spec).shards
        assert _payload_digest(shard.payload) == (
            "16ff46fd86b6d752ef05a2e7791ec568440f5aebe1c39f8094d9ede06ce7be0a")
        assert shard.key == shard_key(shard.payload)


def _members_equal(a, b):
    for ma, mb in zip(a.members, b.members):
        assert ma.member.index == mb.member.index
        for name in ma.metrics:
            np.testing.assert_array_equal(ma.metrics[name],
                                          mb.metrics[name])
        np.testing.assert_array_equal(ma.metrics_ts, mb.metrics_ts)


class TestFusedBitIdentity:
    """Per-topology shards give the same bits under any execution."""

    def test_jobs_do_not_change_bits(self):
        spec = topo_axis_spec()
        ref = run_spec(spec, jobs=1)
        for kw in ({"jobs": 2, "shard_members": 4},
                   {"jobs": 2, "shard_members": 1}):
            assert run_spec(spec, **kw).npz_bytes() == ref.npz_bytes(), kw

    def test_queue_with_faults_matches_inline(self, tmp_path, monkeypatch):
        spec = topo_axis_spec(name="machine-design-chaos")
        monkeypatch.setenv("POM_FAULTS", "kill:shard=1,times=1")
        monkeypatch.setenv("POM_FAULTS_STATE", str(tmp_path / "faults"))
        res = run_spec(spec, jobs=2, shard_members=2,
                       queue=tmp_path / "q.db",
                       lease_ttl=1.0, backoff=0.05)
        monkeypatch.delenv("POM_FAULTS")
        monkeypatch.delenv("POM_FAULTS_STATE")
        ref = run_spec(spec, jobs=1)
        assert res.queue["retried"].get(1, 0) >= 1
        _members_equal(ref, res)

    def test_full_trajectories_identical(self):
        # Each stacked topology shard equals its members solved alone.
        spec = topo_axis_spec(trajectories="full", metrics=(), t_end=6.0)
        stacked = run_plan(compile_plan(spec))
        alone = run_plan(compile_plan(spec, shard_members=1))
        for a, b in zip(stacked.members, alone.members):
            np.testing.assert_array_equal(a.ts, b.ts)
            np.testing.assert_array_equal(a.thetas, b.thetas)

    @needs_cc
    def test_each_topology_shard_runs_the_stepper(self):
        for shard in compile_plan(topo_axis_spec(t_end=2.0)).shards:
            members = [MemberSpec.from_dict(m)
                       for m in shard.payload["members"]]
            solver = shard.payload["solver"]
            trajs = simulate_grid(
                [m.build_model() for m in members], shard.payload["t_end"],
                seeds=[m.seed for m in members], method=solver["method"],
                dt=solver["dt"], record="none")
            assert trajs[0].solution.backend["stepper"] is True
            assert trajs[0].solution.backend["kernel"] == "cc"


def _same_n_models():
    models = [m.build_model() for m in topo_axis_spec(seeds=(0,)).members()]
    assert len({m.n for m in models}) == 1
    return models


class TestMixedTopologyGrid:
    def test_simulate_grid_rejects_a_mixed_topology_grid(self):
        models = _same_n_models()
        with pytest.raises(ValueError, match="disagree on topology") as exc:
            simulate_grid(models, 1.0, method="rk4", dt=0.05)
        assert models[0].topology.name in str(exc.value)

    def test_batched_grid_sweep_rejects_a_mixed_topology_grid(self):
        models = _same_n_models()
        with pytest.raises(ValueError, match="disagree on topology"):
            grid_sweep({"i": list(range(len(models)))},
                       model_factory=lambda i: models[i], batched=True,
                       t_end=1.0, method="rk4", dt=0.05)
