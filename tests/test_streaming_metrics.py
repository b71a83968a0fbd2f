"""Streaming in-solve metric reductions (PR 9).

The contract under test: a campaign that declares ``metrics=[...]``
folds the reductions *inside* the solve loop, per accepted step, and
the streamed arrays are **bit-identical** to the same reductions
computed post-hoc from full trajectories — for every solver, any shard
layout, any ``jobs=``, through the pool and through the durable queue
(with faults injected).  Metric-only campaigns (``trajectories="none"``)
cache kilobyte-scale arrays instead of ``(R, n_t, N)`` stacks.
"""

import io

import numpy as np
import pytest

from repro.metrics import (
    METRIC_NAMES,
    SERIES_METRICS,
    StreamingObserver,
    metrics_from_trajectories,
    parse_trajectories,
    validate_metrics,
)
from repro.runs import (
    NUMERICS_VERSION,
    ResultCache,
    ScenarioSpec,
    collect_cached,
    compile_plan,
    fingerprint_files,
    run_plan,
    run_spec,
    shard_key,
)

ALL_METRICS = ["order_parameter", "phase_spread", "energy", "wavefront",
               "phase_histogram"]


def metric_spec(method="rk4", t_end=5.0, metrics=ALL_METRICS,
                trajectories="full", n=8, name="stream-test", axes=None,
                **extra):
    model = {
        "topology": {"kind": "ring", "n": n, "distances": [1, -1]},
        "potential": {"kind": "bottleneck", "sigma": 1.0},
        "t_comp": 0.9,
        "t_comm": 0.1,
    }
    if method == "em":
        model["local_noise"] = {"kind": "gaussian", "std": 0.02}
    solver = {"method": method}
    if method in ("em", "euler"):
        solver["dt"] = 0.02
    solver.update(extra.pop("solver", {}))
    return ScenarioSpec(
        name=name,
        model=model,
        t_end=t_end,
        solver=solver,
        initial={"kind": "normal", "std": 0.3, "seed": 0},
        axes=axes or [("potential.sigma", [0.6, 1.4]), ("seed", [0, 1])],
        metrics=metrics,
        trajectories=trajectories,
        **extra,
    )


def with_overrides(spec, **kv):
    d = spec.to_dict()
    d.update(kv)
    return ScenarioSpec.from_dict(d)


class TestSpecValidation:
    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="unknown metric"):
            metric_spec(metrics=["order_parameter", "banana"])

    def test_duplicate_metric_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            metric_spec(metrics=["energy", "energy"])

    def test_bare_string_metrics_rejected(self):
        # A plain string would silently iterate to letters.
        with pytest.raises(ValueError, match="sequence of names"):
            metric_spec(metrics="energy")

    def test_bad_trajectory_modes_rejected(self):
        for bad in ("sometimes", "stride", "stride:0", "stride:x"):
            with pytest.raises(ValueError):
                metric_spec(trajectories=bad)

    def test_parse_trajectories(self):
        assert parse_trajectories("full") == "full"
        assert parse_trajectories("none") == "none"
        assert parse_trajectories("stride:4") == 4

    def test_n_samples_requires_full_capture(self):
        with pytest.raises(ValueError, match="n_samples"):
            metric_spec(trajectories="none",
                        solver={"n_samples": 50})

    def test_validate_metrics_preserves_order(self):
        assert validate_metrics(["wavefront", "energy"]) == \
            ("wavefront", "energy")
        assert set(METRIC_NAMES) >= set(ALL_METRICS)

    def test_roundtrip_and_backcompat(self):
        spec = metric_spec(trajectories="stride:3")
        d = spec.to_dict()
        assert d["metrics"] == list(ALL_METRICS)
        assert d["trajectories"] == "stride:3"
        again = ScenarioSpec.from_dict(d)
        assert again.content_hash() == spec.content_hash()
        # Old spec dicts (pre-PR9, no keys) still load with defaults.
        d.pop("metrics")
        d.pop("trajectories")
        old = ScenarioSpec.from_dict(d)
        assert old.metrics == () and old.trajectories == "full"

    def test_metrics_change_spec_hash(self):
        a = metric_spec(metrics=["energy"])
        b = metric_spec(metrics=["order_parameter"])
        c = metric_spec(metrics=["energy"], trajectories="none")
        assert len({a.content_hash(), b.content_hash(),
                    c.content_hash()}) == 3


class TestBitIdentity:
    """Streamed == post-hoc == metric-only, for every solver."""

    @pytest.mark.parametrize("method", ["euler", "rk4", "dopri", "em"])
    def test_streamed_equals_posthoc_equals_metric_only(self, method):
        full = metric_spec(method=method, name=f"bits-{method}")
        rf = run_plan(compile_plan(full))
        ronly = run_plan(compile_plan(
            with_overrides(full, trajectories="none")))
        for a, b in zip(rf.members, ronly.members):
            post = metrics_from_trajectories(
                a.ts, a.thetas[None], [a.member.build_model()],
                full.metrics)
            np.testing.assert_array_equal(a.metrics_ts, a.ts)
            for name in full.metrics:
                streamed = a.metrics[name]
                np.testing.assert_array_equal(
                    streamed, post[f"metric_{name}"][0],
                    err_msg=f"{method}/{name}: streamed != post-hoc")
                np.testing.assert_array_equal(
                    streamed, b.metrics[name],
                    err_msg=f"{method}/{name}: capture mode changed bits")

    def test_batched_vs_looped_shards(self):
        spec = metric_spec(trajectories="none", name="bits-shards")
        fused = run_plan(compile_plan(spec))
        looped = run_plan(compile_plan(spec, shard_members=1))
        for a, b in zip(fused.members, looped.members):
            for name in spec.metrics:
                np.testing.assert_array_equal(a.metrics[name],
                                              b.metrics[name])

    def test_jobs_do_not_change_metric_bits(self):
        spec = metric_spec(trajectories="none", name="bits-jobs")
        r1 = run_spec(spec, jobs=1, shard_members=1)
        r2 = run_spec(spec, jobs=2, shard_members=1)
        assert r1.npz_bytes() == r2.npz_bytes()

    def test_queue_with_faults_matches_inline(self, tmp_path, monkeypatch):
        """PR-6 chaos path: a SIGKILLed and a stalled worker shard still
        produce the bit-exact streamed metrics of an inline run."""
        spec = metric_spec(trajectories="none", name="bits-chaos")
        monkeypatch.setenv("POM_FAULTS",
                           "kill:shard=1;stall:shard=2,secs=1.5")
        monkeypatch.setenv("POM_FAULTS_STATE", str(tmp_path / "faults"))
        res = run_spec(spec, jobs=2, shard_members=1,
                       queue=tmp_path / "q.db",
                       lease_ttl=1.0, backoff=0.05)
        monkeypatch.delenv("POM_FAULTS")
        monkeypatch.delenv("POM_FAULTS_STATE")
        ref = run_spec(spec, jobs=1, shard_members=1)
        assert res.queue["retried"].get(1, 0) >= 2
        for a, b in zip(ref.members, res.members):
            np.testing.assert_array_equal(a.metrics_ts, b.metrics_ts)
            for name in spec.metrics:
                np.testing.assert_array_equal(a.metrics[name],
                                              b.metrics[name])


class TestMetricOnlyResults:
    def test_no_trajectories_attached(self):
        res = run_plan(compile_plan(
            metric_spec(trajectories="none", name="mo-none")))
        for m in res.members:
            assert m.ts is None and m.thetas is None
            assert not m.has_trajectory
            with pytest.raises(ValueError, match="no trajectory"):
                m.trajectory()
        with pytest.raises(ValueError, match="no trajectory"):
            res.trajectories()

    def test_npz_has_metrics_but_no_thetas(self):
        res = run_plan(compile_plan(
            metric_spec(trajectories="none", name="mo-npz")))
        with np.load(io.BytesIO(res.npz_bytes())) as npz:
            names = set(npz.files)
            for m in res.members:
                assert f"metrics_ts_{m.index}" in names
                for metric in ALL_METRICS:
                    assert f"metric_{metric}_{m.index}" in names
            assert not any(k.startswith("thetas_") for k in names)

    def test_summary_table_shared_metric_columns(self):
        """Trajectory-mode and metric-only CSVs agree bit-for-bit on the
        metric columns — the CI stream-smoke invariant."""
        full = metric_spec(name="mo-csv")
        rf = run_plan(compile_plan(full))
        rm = run_plan(compile_plan(with_overrides(full,
                                                  trajectories="none")))
        tf, tm = rf.summary_table(), rm.summary_table()
        assert "state" in tf and "state" not in tm
        shared = ["potential.sigma", "seed"] + \
            [f"{n}_final" for n in SERIES_METRICS] + \
            ["wavefront_reached", "phase_histogram_peak"]
        for col in shared:
            assert tf[col] == tm[col], col

    def test_cache_replay_and_collect_cached(self, tmp_path):
        spec = metric_spec(trajectories="none", name="mo-cache")
        cache = ResultCache(tmp_path / "cache")
        plan = compile_plan(spec)
        first = run_plan(plan, cache=cache)
        assert first.n_executed == plan.n_shards
        replay = run_plan(plan, cache=cache)
        assert replay.n_executed == 0
        assert replay.n_cached == plan.n_shards
        collected = collect_cached(plan, cache)
        assert collected is not None
        assert collected.npz_bytes() == first.npz_bytes()

    def test_metric_only_cache_is_much_smaller(self, tmp_path):
        """The point of the PR: kilobyte metric shards vs (R, n_t, N)."""
        base = metric_spec(n=64, t_end=10.0, metrics=["order_parameter"],
                           name="mo-size",
                           axes=[("seed", [0, 1, 2, 3])])
        cf, cm = ResultCache(tmp_path / "full"), ResultCache(tmp_path / "m")
        run_plan(compile_plan(base), cache=cf)
        run_plan(compile_plan(with_overrides(base, trajectories="none")),
                 cache=cm)
        full_b = cf.describe()["size_bytes"]
        metric_b = cm.describe()["size_bytes"]
        assert full_b / metric_b >= 20.0


class TestStrideCapture:
    def test_stride_thins_trajectories_not_metrics(self):
        full = metric_spec(name="stride-t")
        thin = with_overrides(full, trajectories="stride:5")
        rf = run_plan(compile_plan(full))
        rt = run_plan(compile_plan(thin))
        for a, b in zip(rf.members, rt.members):
            assert b.has_trajectory
            assert len(b.ts) < len(a.ts)
            # endpoints survive thinning
            assert b.ts[0] == a.ts[0] and b.ts[-1] == a.ts[-1]
            np.testing.assert_array_equal(b.thetas[-1], a.thetas[-1])
            # retained rows are rows of the full solve (fixed step)
            idx = np.searchsorted(a.ts, b.ts)
            np.testing.assert_array_equal(a.ts[idx], b.ts)
            np.testing.assert_array_equal(a.thetas[idx], b.thetas)
            # metrics observe every accepted step regardless of capture
            np.testing.assert_array_equal(a.metrics_ts, b.metrics_ts)
            for name in full.metrics:
                np.testing.assert_array_equal(a.metrics[name],
                                              b.metrics[name])

    def test_dopri_stride_runs_and_streams_full_metrics(self):
        full = metric_spec(method="dopri", name="stride-d")
        thin = with_overrides(full, trajectories="stride:4")
        rf = run_plan(compile_plan(full))
        rt = run_plan(compile_plan(thin))
        for a, b in zip(rf.members, rt.members):
            assert len(b.ts) < len(a.ts)
            assert b.ts[-1] == a.ts[-1]
            for name in full.metrics:
                np.testing.assert_array_equal(a.metrics[name],
                                              b.metrics[name])


class TestObserverUnit:
    def test_observer_shapes_and_finalize(self):
        from repro.runs.spec import model_from_spec

        model = model_from_spec({
            "topology": {"kind": "ring", "n": 6},
            "potential": {"kind": "tanh"},
            "t_comp": 0.9, "t_comm": 0.1})
        obs = StreamingObserver([model, model], ALL_METRICS)
        rng = np.random.default_rng(0)
        y = rng.normal(size=(2, 6))
        for k in range(4):
            obs(0.1 * k, y + 0.01 * k)
        assert obs.n_observed == 4
        out = obs.finalize()
        assert out["metrics_ts"].shape == (4,)
        for name in SERIES_METRICS:
            assert out[f"metric_{name}"].shape == (2, 4)
        assert out["metric_wavefront"].shape == (2, 6)
        assert out["metric_phase_histogram"].shape == (2, 32)
        assert out["metric_phase_histogram"].dtype == np.int64
        # every observed sample lands in exactly one bin
        assert out["metric_phase_histogram"].sum() == 2 * 6 * 4

    def test_no_metrics_finalizes_empty(self):
        obs = StreamingObserver([], ())
        assert obs.finalize() == {}

    def test_posthoc_validates_shape(self):
        with pytest.raises(ValueError):
            metrics_from_trajectories(np.arange(3.0), np.zeros((3, 4)),
                                      [None], ["order_parameter"])


class TestFoldKernel:
    """The order-parameter fold: one formula, a fallback, provenance."""

    @staticmethod
    def _model(n=24):
        from repro.runs.spec import model_from_spec

        return model_from_spec({
            "topology": {"kind": "ring", "n": n},
            "potential": {"kind": "bottleneck", "sigma": 1.0},
            "t_comp": 0.9, "t_comm": 0.1})

    def test_numpy_fallback_agrees(self, monkeypatch):
        from repro.kernels import cc
        from repro.metrics.streaming import fold_kernel, sample_order_parameter

        ys = np.random.default_rng(3).normal(0.0, 2.0, (5, 3, 97)) + 40.0
        fast = sample_order_parameter(ys)
        monkeypatch.setattr(cc, "cc_available", lambda: False)
        assert fold_kernel() == "numpy"
        slow = sample_order_parameter(ys)
        np.testing.assert_allclose(fast, slow, rtol=0, atol=1e-14)
        np.testing.assert_array_equal(
            slow, np.abs(np.exp(1j * ys).mean(axis=-1)))
        assert StreamingObserver([self._model()],
                                 ["order_parameter"]).kernel == "numpy"

    def test_analysis_helpers_use_the_streamed_formula(self):
        from repro.metrics import order_parameter, order_parameter_series
        from repro.metrics.streaming import sample_order_parameter

        thetas = np.random.default_rng(4).normal(0.0, 1.0, (6, 33))
        series = order_parameter_series(thetas)
        np.testing.assert_array_equal(series, sample_order_parameter(thetas))
        assert order_parameter(thetas[2]) == series[2]

    def test_solution_reports_the_fold(self, monkeypatch):
        from repro.core import simulate_grid
        from repro.kernels import cc
        from repro.metrics.streaming import fold_kernel

        models = [self._model()] * 2

        def ran(metrics):
            obs = StreamingObserver(models, metrics) if metrics else None
            sol = simulate_grid(models, 1.0, method="rk4", observer=obs)
            report = sol[0].solution.backend
            assert report["fold"] == (obs.kernel if obs else None)
            return report["fold"]

        expected = "cc" if cc.cc_available() else "numpy"
        assert fold_kernel() == expected
        assert ran(["order_parameter", "phase_spread"]) == expected
        assert ran(["phase_spread"]) == "numpy"
        assert ran(None) is None
        monkeypatch.setattr(cc, "cc_available", lambda: False)
        assert ran(["order_parameter"]) == "numpy"


class TestFingerprint:
    def test_numerics_version_is_source_hash(self):
        assert len(NUMERICS_VERSION) == 64
        int(NUMERICS_VERSION, 16)  # hex digest, not a date-style bump

    def test_fingerprint_tracks_content(self, tmp_path):
        a = tmp_path / "kern.py"
        b = tmp_path / "sub" / "impl.c"
        b.parent.mkdir()
        a.write_text("def f(): return 1\n")
        b.write_text("int g() { return 2; }\n")
        fp1 = fingerprint_files([a, b], tmp_path)
        assert fp1 == fingerprint_files([b, a], tmp_path)  # order-free
        a.write_text("def f(): return 3\n")
        fp2 = fingerprint_files([a, b], tmp_path)
        assert fp2 != fp1                                   # content
        assert fingerprint_files([b], tmp_path) != fp2      # file set
        moved = tmp_path / "kern2.py"
        a.rename(moved)
        assert fingerprint_files([moved, b], tmp_path) != fp2  # rename

    def test_source_change_invalidates_shard_keys(self, monkeypatch):
        """The acceptance-criteria test: a numerics-source change (a new
        fingerprint) changes every shard key, so old cache entries
        become misses."""
        from repro.runs import cache as cache_mod

        payload = compile_plan(metric_spec(name="fp")).shards[0].payload
        before = shard_key(payload)
        monkeypatch.setattr(cache_mod, "NUMERICS_VERSION",
                            "0" * 64)
        assert shard_key(payload) != before

    def test_metric_set_is_part_of_the_key(self):
        plan_a = compile_plan(metric_spec(metrics=["energy"], name="k"))
        plan_b = compile_plan(metric_spec(metrics=["wavefront"], name="k"))
        plan_c = compile_plan(metric_spec(metrics=["energy"], name="k",
                                          trajectories="none"))
        keys = {plan_a.shards[0].key, plan_b.shards[0].key,
                plan_c.shards[0].key}
        assert len(keys) == 3


class TestFootprintWarning:
    def big_spec(self, trajectories="full"):
        return metric_spec(n=64, t_end=50.0, trajectories=trajectories,
                           name="big",
                           axes=[("seed", list(range(8)))])

    def test_full_capture_warns_once(self, monkeypatch):
        from repro.runs import plan as plan_mod

        monkeypatch.setenv(plan_mod.TRAJ_WARN_ENV_VAR, "1000")
        monkeypatch.setattr(plan_mod, "_footprint_warned", set())
        with pytest.warns(RuntimeWarning, match="metrics="):
            compile_plan(self.big_spec())
        import warnings as w
        with w.catch_warnings():
            w.simplefilter("error")
            compile_plan(self.big_spec())  # second compile stays silent

    def test_metric_only_never_warns(self, monkeypatch):
        from repro.runs import plan as plan_mod

        monkeypatch.setenv(plan_mod.TRAJ_WARN_ENV_VAR, "1000")
        monkeypatch.setattr(plan_mod, "_footprint_warned", set())
        import warnings as w
        with w.catch_warnings():
            w.simplefilter("error")
            compile_plan(self.big_spec(trajectories="none"))

    def test_disabled_by_nonpositive_threshold(self, monkeypatch):
        from repro.runs import plan as plan_mod

        monkeypatch.setenv(plan_mod.TRAJ_WARN_ENV_VAR, "0")
        monkeypatch.setattr(plan_mod, "_footprint_warned", set())
        import warnings as w
        with w.catch_warnings():
            w.simplefilter("error")
            compile_plan(self.big_spec())


class TestService:
    def test_metric_only_campaign_through_service(self, tmp_path):
        """Satellite bugfix: the result endpoint must assemble a
        metric-only campaign (no KeyError on missing trajectory arrays)
        and the status payload must surface the metric set."""
        from repro.service import CampaignServer, ServiceClient

        spec = metric_spec(trajectories="none", name="svc-metrics")
        with CampaignServer(tmp_path / "q.db", workers=2,
                            worker_opts={"lease_ttl": 10.0},
                            poll=0.05) as srv:
            client = ServiceClient(srv.url)
            out = client.submit(spec, shard_members=2)
            assert out["metrics"] == list(ALL_METRICS)
            assert out["trajectories"] == "none"
            status = client.wait(out["id"], timeout=120)
            assert status["metrics"] == list(ALL_METRICS)

            blob = client.result_bytes(out["id"])        # npz: no KeyError
            direct = run_spec(spec, shard_members=2)
            with np.load(io.BytesIO(blob)) as npz:
                assert not any(k.startswith("thetas_") for k in npz.files)
                for m in direct.members:
                    np.testing.assert_array_equal(
                        npz[f"metric_order_parameter_{m.index}"],
                        m.metrics["order_parameter"])

            from repro.viz.export import read_csv
            csv_path = tmp_path / "result.csv"
            csv_path.write_bytes(client.result_bytes(out["id"], fmt="csv"))
            table = read_csv(csv_path)
            ref = direct.summary_table()
            assert list(table["order_parameter_final"]) == \
                pytest.approx(ref["order_parameter_final"])
