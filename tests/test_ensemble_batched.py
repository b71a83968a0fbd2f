"""Regression tests: ``run_ensemble(batched=True)`` vs. the sequential path.

With a fixed-step method the batched super-state performs exactly the
same arithmetic per member as the one-seed-at-a-time loop, so per-seed
metrics must agree to machine precision.  With the adaptive method the
members share a mesh chosen by the worst member's error norm, so metrics
agree within integrator tolerance.
"""

import numpy as np
import pytest

from repro.core import (
    BottleneckPotential,
    ConstantInteractionNoise,
    GaussianJitter,
    PhysicalOscillatorModel,
    TanhPotential,
    all_to_all,
    random_phases,
    ring,
    run_ensemble,
    simulate,
    simulate_batched,
)

METRICS = {
    "final_spread": lambda tr: float(np.ptp(tr.final_phases)),
    "mean_gap": lambda tr: float(np.abs(tr.asymptotic_gaps()).mean()),
    "mean_freq": lambda tr: float(tr.mean_frequency().mean()),
}


def noisy_model(n=16, **kw):
    defaults = dict(
        topology=ring(n, (1, -1)),
        potential=BottleneckPotential(sigma=1.0),
        t_comp=0.9, t_comm=0.1,
        local_noise=GaussianJitter(std=0.02, refresh=0.5),
    )
    defaults.update(kw)
    return PhysicalOscillatorModel(**defaults)


class TestBatchedEnsembleRegression:
    def test_rk4_batched_reproduces_sequential_exactly(self):
        model = noisy_model()
        seeds = tuple(range(6))
        seq = run_ensemble(model, 8.0, METRICS, seeds=seeds,
                           method="rk4", dt=0.02)
        bat = run_ensemble(model, 8.0, METRICS, seeds=seeds,
                           method="rk4", dt=0.02, batched=True)
        assert seq.seeds == bat.seeds
        for name in METRICS:
            np.testing.assert_allclose(bat.values[name], seq.values[name],
                                       rtol=1e-12, atol=1e-12)

    def test_dopri_batched_within_tolerance(self):
        model = noisy_model()
        seeds = tuple(range(4))
        # The adaptive meshes differ between the two paths, and
        # sample-window metrics (asymptotic_gaps) are mesh-sensitive —
        # resample both onto the same uniform mesh before comparing.
        seq = run_ensemble(model, 8.0, METRICS, seeds=seeds, rtol=1e-8,
                           atol=1e-10, n_samples=400)
        bat = run_ensemble(model, 8.0, METRICS, seeds=seeds, rtol=1e-8,
                           atol=1e-10, n_samples=400, batched=True)
        for name in METRICS:
            np.testing.assert_allclose(bat.values[name], seq.values[name],
                                       rtol=1e-4, atol=1e-5)

    def test_theta0_factory_is_per_seed(self):
        model = noisy_model(potential=TanhPotential())
        seeds = (0, 1, 2)

        def factory(seed):
            return random_phases(model.n, spread=0.5,
                                 rng=np.random.default_rng(seed))

        trajs = simulate_batched(model, 4.0, seeds=seeds,
                                 theta0_factory=factory, method="rk4",
                                 dt=0.02)
        for seed, traj in zip(seeds, trajs):
            ref = simulate(model, 4.0, theta0=factory(seed), seed=seed,
                           method="rk4", dt=0.02)
            np.testing.assert_allclose(traj.final_phases, ref.final_phases,
                                       rtol=1e-12, atol=1e-12)

    def test_batched_dde_reproduces_sequential(self):
        model = noisy_model(
            n=10,
            local_noise=GaussianJitter(std=0.01, refresh=0.5),
            interaction_noise=ConstantInteractionNoise(tau=0.05),
        )
        seeds = (0, 1, 2)
        seq = run_ensemble(model, 4.0, METRICS, seeds=seeds, dt=0.02)
        bat = run_ensemble(model, 4.0, METRICS, seeds=seeds, dt=0.02,
                           batched=True)
        for name in METRICS:
            np.testing.assert_allclose(bat.values[name], seq.values[name],
                                       rtol=1e-10, atol=1e-10)

    def test_trajectories_are_per_seed_objects(self):
        model = noisy_model()
        seeds = (3, 5, 8)
        trajs = simulate_batched(model, 3.0, seeds=seeds)
        assert [tr.seed for tr in trajs] == list(seeds)
        assert all(tr.thetas.shape[1] == model.n for tr in trajs)
        # Shared mesh across members.
        for tr in trajs[1:]:
            np.testing.assert_array_equal(tr.ts, trajs[0].ts)
        # Different noise realisations actually differ.
        assert not np.allclose(trajs[0].thetas, trajs[1].thetas)

    def test_n_samples_resamples_members(self):
        model = noisy_model()
        trajs = simulate_batched(model, 3.0, seeds=(0, 1), n_samples=50)
        assert all(tr.n_samples == 50 for tr in trajs)

    def test_em_batched_matches_sequential_seed_for_seed(self):
        # The batched Euler-Maruyama draws each member's (N,) Wiener
        # increments from its own seeded generator in the same order as
        # the sequential per-seed solve, so at equal dt the phases must
        # agree to machine precision.
        model = noisy_model()
        seeds = (0, 1, 5)
        trajs = simulate_batched(model, 4.0, seeds=seeds, method="em",
                                 dt=0.01)
        for seed, traj in zip(seeds, trajs):
            ref = simulate(model, 4.0, seed=seed, method="em", dt=0.01)
            np.testing.assert_allclose(traj.thetas, ref.thetas,
                                       rtol=1e-12, atol=1e-12)

    def test_em_ensemble_metrics_match(self):
        model = noisy_model()
        seeds = tuple(range(4))
        seq = run_ensemble(model, 4.0, METRICS, seeds=seeds, method="em",
                           dt=0.01)
        bat = run_ensemble(model, 4.0, METRICS, seeds=seeds, method="em",
                           dt=0.01, batched=True)
        for name in METRICS:
            np.testing.assert_allclose(bat.values[name], seq.values[name],
                                       rtol=1e-12, atol=1e-12)

    def test_em_with_interaction_delays_rejected(self):
        # Delays switch to the deterministic DDE path, which has no
        # diffusion term — that must fail loudly, not silently drop the
        # white noise.
        model = noisy_model(
            interaction_noise=ConstantInteractionNoise(tau=0.05))
        with pytest.raises(ValueError, match="interaction delays"):
            simulate_batched(model, 2.0, seeds=(0, 1), method="em", dt=0.01)

    def test_em_requires_gaussian_noise(self):
        model = PhysicalOscillatorModel(
            topology=ring(16, (1, -1)),
            potential=BottleneckPotential(sigma=1.0),
            t_comp=0.9, t_comm=0.1,
        )
        with pytest.raises(ValueError, match="GaussianJitter"):
            simulate_batched(model, 2.0, seeds=(0, 1), method="em", dt=0.01)

    @pytest.mark.parametrize("backend", ["dense", None])
    def test_backend_request_honoured(self, backend):
        # An explicit "dense" request, and "auto" on a dense topology,
        # must reach the stacked solve exactly as they reach simulate —
        # the edge-list kernel differs from the matrix one in the last
        # bits, so a silently swapped backend shows here.
        model = PhysicalOscillatorModel(
            topology=all_to_all(16), potential=TanhPotential(),
            t_comp=0.9, t_comm=0.1, v_p_override=2.0)
        theta0 = random_phases(16, spread=1.0, rng=3)
        single = simulate(model, 4.0, theta0=theta0, seed=5, method="rk4",
                          backend=backend)
        batched = simulate_batched(model, 4.0, seeds=[5], method="rk4",
                                   theta0_factory=lambda s: theta0,
                                   backend=backend)[0]
        np.testing.assert_array_equal(batched.thetas, single.thetas)
        seq = run_ensemble(model, 4.0, METRICS, seeds=(5, 6), method="rk4",
                           theta0_factory=lambda s: theta0, backend=backend)
        bat = run_ensemble(model, 4.0, METRICS, seeds=(5, 6), method="rk4",
                           theta0_factory=lambda s: theta0, backend=backend,
                           batched=True)
        for name in METRICS:
            np.testing.assert_array_equal(bat.values[name], seq.values[name])

    def test_empty_seed_list_rejected(self):
        model = noisy_model()
        with pytest.raises(ValueError, match="seed"):
            simulate_batched(model, 2.0, seeds=())
