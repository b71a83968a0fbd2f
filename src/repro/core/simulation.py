"""Simulation driver: integrate a model into an `OscillatorTrajectory`.

One solve path
--------------
Every entry point realises its members, compiles them into one stacked
backend (:func:`repro.backends.make_batched_backend`) and integrates the
``(R, N)`` super-state in a single solver pass (:func:`_solve_stacked`),
then fans the per-member trajectories back out (:func:`_fan_out`).
:func:`simulate` is the ``R = 1`` case, :func:`simulate_batched` a seed
ensemble, :func:`simulate_grid` a parameter grid.

Solver selection
----------------
* ``"dopri"`` (default) — the adaptive Dormand-Prince 5(4) pair, the
  method the paper's MATLAB artifact uses (``ode45``).  When noise or
  one-off delays make the RHS piecewise-smooth, the maximum step is
  capped at half the shortest feature length so the controller resolves
  the kinks instead of stepping over them.
* ``"rk4"`` / ``"euler"`` — fixed-step references.
* Interaction delays (``tau_ij > 0``) switch to a fixed-step RK4 with a
  cubic-Hermite :class:`~repro.integrate.history.HistoryBuffer`
  (method-of-steps; sub-step lookups past the last accepted point are
  linearly extrapolated from the recorded derivative, keeping the
  scheme second-order accurate for delays smaller than the step).
* ``"em"`` — Euler-Maruyama treating a Gaussian local-noise channel as
  true white noise instead of a frozen piecewise-constant sample.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..backends import HeteroBatchedBackend, make_batched_backend
from ..integrate import (
    HistoryBuffer,
    solve_dopri45,
    solve_euler,
    solve_euler_maruyama,
    solve_rk4,
)
from .initial import synchronized
from .model import KuramotoModel, PhysicalOscillatorModel
from .noise import GaussianJitter, NoNoise
from .trajectory import OscillatorTrajectory

__all__ = ["simulate", "simulate_batched", "simulate_grid",
           "simulate_kuramoto", "default_dt"]


def default_dt(model: PhysicalOscillatorModel, safety: float = 50.0) -> float:
    """A fixed step that resolves both the cycle and the coupling.

    The two time scales are the oscillation period ``T`` and the
    coupling relaxation time ``~1/v_p``; the step is the smaller of the
    two divided by ``safety``.
    """
    t_cycle = model.period
    v = abs(model.v_p)
    t_coupling = 1.0 / v if v > 0 else np.inf
    return min(t_cycle, t_coupling) / safety


def _noise_feature_dt(model: PhysicalOscillatorModel) -> float:
    """Shortest piecewise-constant feature the solver must resolve."""
    feature = np.inf
    noise = model.local_noise
    refresh = getattr(noise, "refresh", None)
    if refresh is not None and not isinstance(noise, NoNoise):
        feature = min(feature, float(refresh))
    for d in model.delays:
        feature = min(feature, max(d.effective_window, 1e-9))
    return feature


def simulate(
    model: PhysicalOscillatorModel,
    t_end: float,
    *,
    theta0: Sequence[float] | np.ndarray | None = None,
    method: str = "dopri",
    dt: float | None = None,
    rtol: float = 1e-6,
    atol: float = 1e-9,
    seed: int | None = None,
    n_samples: int | None = None,
    backend: str | None = None,
    kernel: str | None = None,
    threads: int | None = None,
) -> OscillatorTrajectory:
    """Integrate the POM from 0 to ``t_end``.

    Parameters
    ----------
    model:
        Declarative model description.
    t_end:
        Integration horizon in seconds.
    theta0:
        Initial phases; default all-zero (synchronised).
    method:
        ``"dopri"`` | ``"rk4"`` | ``"euler"`` | ``"em"``.
    dt:
        Fixed step for the non-adaptive methods (default:
        :func:`default_dt`).
    rtol, atol:
        Tolerances for ``"dopri"``.
    seed:
        Seed for the noise realisation — fixed seed = reproducible run.
    n_samples:
        If set, the returned trajectory is resampled onto a uniform mesh
        of this many points (adaptive meshes are irregular).
    backend:
        RHS compute backend override (``"auto"`` | ``"dense"`` |
        ``"sparse"``); default: the model's own ``backend`` knob.
    kernel:
        Coupling-loop kernel override (``"auto"`` | ``"numpy"`` |
        ``"tiled"`` | ``"cc"``, see :mod:`repro.kernels`);
        default: the model's own ``kernel`` knob.
    threads:
        In-kernel thread count for the compiled kernels (bit-identical
        for any value); default: ``POM_NUM_THREADS``, else 1.

    Returns
    -------
    OscillatorTrajectory
    """
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    theta0 = (synchronized(model.n) if theta0 is None
              else np.asarray(theta0, dtype=float).copy())
    if theta0.shape != (model.n,):
        raise ValueError(f"theta0 has shape {theta0.shape}, expected ({model.n},)")
    return _simulate_stack(
        [model], [seed], t_end, theta0[None], method=method, dt=dt,
        rtol=rtol, atol=atol, n_samples=n_samples,
        backend=model.backend if backend is None else backend,
        kernel=model.kernel if kernel is None else kernel,
        threads=threads)[0]


def _simulate_stack(models: Sequence[PhysicalOscillatorModel],
                    seeds: Sequence[int | None], t_end: float,
                    theta0s: np.ndarray, *, method: str, dt: float | None,
                    rtol: float, atol: float, n_samples: int | None,
                    backend: str, kernel: str | None, threads: int | None,
                    per_member_adaptive: bool = True, observer=None,
                    record: str | int = "full") -> list[OscillatorTrajectory]:
    """The one solve path: realise, stack, integrate, fan out."""
    members = [m.realize(t_end, rng=s, backend=backend, kernel=kernel,
                         threads=threads) for m, s in zip(models, seeds)]
    stacked = make_batched_backend(members, backend, kernel=kernel,
                                   threads=threads)
    if dt is None:
        dt = min(default_dt(m) for m in models)
    stepper = stacked.make_stepper(method)
    sol = _solve_stacked(stacked, models, t_end, theta0s, method, dt,
                         rtol, atol, seeds, per_member_adaptive,
                         observer=observer, record=record, stepper=stepper)
    if not sol.success:
        raise RuntimeError(f"integration failed: {sol.message}")
    sol.backend = {**stacked.describe(), "stepper": stepper is not None,
                   "fold": getattr(observer, "kernel", None)}
    return _fan_out(sol, models, seeds, n_samples)


def _subset_rhs_factory(stacked: HeteroBatchedBackend):
    """Member-subset RHS factory for the per-member adaptive control.

    Builds (and caches) a small backend over just the requested member
    rows so the solver can re-step a few stiff members without paying
    for the whole batch.  Member rows are independent, which is what
    makes the row-subset evaluation exact.
    """
    cache: dict[tuple[int, ...], object] = {}

    def factory(idx: tuple[int, ...]):
        fn = cache.get(idx)
        if fn is None:
            fn = stacked.subset(idx).make_ode_rhs()
            if len(cache) < 64:     # bound memory for pathological grids
                cache[idx] = fn
        return fn

    return factory


def _solve_em_stacked(stacked: HeteroBatchedBackend, amps: np.ndarray,
                      t_end: float, theta0s: np.ndarray, dt: float,
                      seeds: Sequence[int], observer=None,
                      record: str | int = "full"):
    """Batched Euler-Maruyama: (R, N) Wiener increments inside the solver.

    ``amps`` is the per-member diffusion amplitude column ``(R, 1)``;
    each member's increments come from its own seeded generator, so a
    member's path does not depend on the rest of the stack: a batched
    ensemble reproduces the one-seed-at-a-time runs bit for bit.
    """
    drift = stacked.make_em_drift()

    def diffusion(t: float, theta: np.ndarray) -> np.ndarray:
        return np.broadcast_to(amps, theta.shape)

    rngs = [np.random.default_rng(None if s is None else int(s))
            for s in seeds]
    return solve_euler_maruyama(drift, diffusion, (0.0, t_end), theta0s,
                                dt=dt, rng=rngs, observer=observer,
                                record=record)


def _em_amplitude(model: PhysicalOscillatorModel) -> float:
    """Diffusion amplitude of the EM noise mapping.

    The drift uses the *noise-free* intrinsic frequency plus the one-off
    delay schedule; the Gaussian channel's std maps to the diffusion
    amplitude ``omega^2/(2*pi) * std`` (first-order expansion of
    ``2*pi/(T + zeta)`` around ``zeta = 0``).
    """
    noise = model.local_noise
    if not isinstance(noise, GaussianJitter):
        raise ValueError('method "em" requires a GaussianJitter local noise')
    return model.omega ** 2 / (2.0 * np.pi) * noise.std


def _solve_stacked(stacked, models: Sequence[PhysicalOscillatorModel],
                   t_end: float, theta0s: np.ndarray, method: str,
                   dt: float, rtol: float, atol: float,
                   seeds: Sequence[int], per_member_adaptive: bool,
                   observer=None, record: str | int = "full", stepper=None):
    """The solver dispatch shared by every entry point.

    ``observer``/``record`` are the streaming-metrics hooks of
    :mod:`repro.metrics.streaming`: the observer sees the stacked
    ``(R, N)`` state at ``t0`` and after every accepted step (on every
    method, including the DDE path whose ``step_callback`` is occupied
    by the history buffer), while ``record`` controls which states the
    returned mesh retains.  ``stepper`` is the backend's compiled
    rk4/euler stepper (:meth:`HeteroBatchedBackend.make_stepper`), or
    ``None`` for the per-RHS loop.
    """
    if method == "em" and stacked.has_delays:
        # Interaction delays switch to the deterministic DDE integrator,
        # which has no diffusion term — silently dropping the white
        # noise would simulate the wrong stochastic model.
        raise ValueError(
            'method "em" is not supported for models with interaction '
            "delays (the DDE path has no diffusion term)"
        )
    if stacked.has_delays:
        history = HistoryBuffer(0.0, theta0s)
        rhs = stacked.make_dde_rhs(history)
        history._fs[0] = rhs(0.0, theta0s)

        def cb(t: float, y: np.ndarray) -> None:
            history.append(t, y, rhs(t, y))

        return solve_rk4(rhs, (0.0, t_end), theta0s, dt=dt, step_callback=cb,
                         observer=observer, record=record)
    if method == "dopri":
        max_step = min(_noise_feature_dt(m) for m in models) / 2.0
        return solve_dopri45(
            stacked.make_ode_rhs(), (0.0, t_end), theta0s,
            rtol=rtol, atol=atol,
            max_step=max_step if np.isfinite(max_step) else np.inf,
            subset_rhs=(_subset_rhs_factory(stacked)
                        if per_member_adaptive else None),
            observer=observer, record=record)
    if method == "rk4":
        return solve_rk4(stacked.make_ode_rhs(), (0.0, t_end), theta0s, dt=dt,
                         observer=observer, record=record, stepper=stepper)
    if method == "euler":
        return solve_euler(stacked.make_ode_rhs(), (0.0, t_end), theta0s,
                           dt=dt, observer=observer, record=record,
                           stepper=stepper)
    if method == "em":
        amps = np.array([_em_amplitude(m) for m in models])[:, None]
        return _solve_em_stacked(stacked, amps, t_end, theta0s, dt, seeds,
                                 observer=observer, record=record)
    raise ValueError(f"unknown method {method!r}")


class _MemberDense:
    """One member's slice of a stacked ``(R, N)`` dense output."""

    def __init__(self, dense, member: int) -> None:
        self._dense = dense
        self._member = member

    def __call__(self, t: np.ndarray) -> np.ndarray:
        return self._dense(t)[:, self._member, :]


def _fan_out(sol, models: Sequence[PhysicalOscillatorModel],
             seeds: Sequence[int],
             n_samples: int | None) -> list[OscillatorTrajectory]:
    """Slice a stacked solution back into per-member trajectories.

    Each member gets its own :class:`~repro.integrate.Solution` view —
    the shared mesh, its row of the states, a member-sliced dense output
    (when the solver built one), and the shared solver stats (including
    ``member_rejections`` from the per-member step control).
    """
    from ..integrate import Solution

    # Resample the whole stack in one pass — evaluating the stacked
    # dense output once and slicing rows, instead of one full-batch
    # evaluation per member.
    sampled = sol.resample(n_samples) if n_samples is not None else sol

    trajs = []
    for r, (model, seed) in enumerate(zip(models, seeds)):
        member_sol = Solution(
            ts=sol.ts, ys=sol.ys[:, r, :], stats=sol.stats,
            dense=(_MemberDense(sol.dense, r) if sol.dense is not None
                   else None),
            success=sol.success, message=sol.message, backend=sol.backend)
        trajs.append(OscillatorTrajectory(
            ts=sampled.ts, thetas=sampled.ys[:, r, :],
            model=model, solution=member_sol,
            seed=None if seed is None else int(seed)))
    return trajs


def simulate_batched(
    model: PhysicalOscillatorModel,
    t_end: float,
    *,
    seeds: Sequence[int],
    theta0_factory=None,
    method: str = "dopri",
    dt: float | None = None,
    rtol: float = 1e-6,
    atol: float = 1e-9,
    n_samples: int | None = None,
    backend: str | None = None,
    kernel: str | None = None,
    threads: int | None = None,
    per_member_adaptive: bool = True,
) -> list[OscillatorTrajectory]:
    """Integrate a whole seed ensemble as one ``(R, N)`` super-state.

    Realises the model once per seed, stacks the members, evaluates all
    RHSs through one stacked backend (chosen like :func:`simulate`'s),
    and runs a *single* solver pass.  This amortises the per-step Python
    overhead over all members and replaces R small coupling kernels with
    one large one.  The members share one (adaptive) time mesh; every
    member individually satisfies the tolerances (per-member error norm,
    see :func:`repro.integrate.controller.error_norm`), and with
    ``per_member_adaptive`` a member that rejects a step the rest
    accepted is re-stepped on its own instead of shrinking the shared
    step.

    Parameters mirror :func:`simulate`, except:

    seeds:
        One noise-realisation seed per ensemble member.
    theta0_factory:
        Optional per-seed initial condition, ``f(seed) -> (n,)``.
    method:
        ``"dopri"`` | ``"rk4"`` | ``"euler"`` | ``"em"``.  The batched
        Euler-Maruyama draws the ``(R, N)`` Wiener increments inside the
        solver from per-seed generators, reproducing the sequential
        per-seed runs bit for bit (at equal ``dt``).
    kernel:
        Coupling-loop kernel for the batched backend (``"auto"`` |
        ``"numpy"`` | ``"tiled"`` | ``"cc"``).
    threads:
        In-kernel thread count for the compiled kernels (bit-identical
        for any value); default: ``POM_NUM_THREADS``, else 1.
    per_member_adaptive:
        Enable the per-member step-rejection control for ``"dopri"``
        (default on; turn off to force the worst-member-drags-all
        behaviour, e.g. for benchmarking).

    Returns
    -------
    list[OscillatorTrajectory]
        One trajectory per seed, in seed order, all on the shared mesh.
    """
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    if len(seeds) == 0:
        raise ValueError("need at least one seed")
    theta0s = np.stack([
        (synchronized(model.n) if theta0_factory is None
         else np.asarray(theta0_factory(seed), dtype=float))
        for seed in seeds
    ])
    if theta0s.shape != (len(seeds), model.n):
        raise ValueError(
            f"stacked theta0 has shape {theta0s.shape}, "
            f"expected ({len(seeds)}, {model.n})"
        )
    return _simulate_stack(
        [model] * len(seeds), list(seeds), t_end, theta0s, method=method,
        dt=dt, rtol=rtol, atol=atol, n_samples=n_samples,
        backend=model.backend if backend is None else backend,
        kernel=model.kernel if kernel is None else kernel,
        threads=threads, per_member_adaptive=per_member_adaptive)


def simulate_grid(
    models: Sequence[PhysicalOscillatorModel],
    t_end: float,
    *,
    seeds: int | Sequence[int] = 0,
    theta0: Sequence[float] | np.ndarray | None = None,
    theta0s: Sequence | np.ndarray | None = None,
    method: str = "dopri",
    dt: float | None = None,
    rtol: float = 1e-6,
    atol: float = 1e-9,
    n_samples: int | None = None,
    kernel: str | None = None,
    threads: int | None = None,
    per_member_adaptive: bool = True,
    observer=None,
    record: str | int = "full",
) -> list[OscillatorTrajectory]:
    """Integrate a parameter grid of models as one ``(R, N)`` super-state.

    The heterogeneous counterpart of :func:`simulate_batched`: the
    models may differ in coupling strength, period, potential, noise
    and one-off delay schedule — only the oscillator count N and the
    topology must be shared (a mixed-topology grid raises
    ``ValueError``; run a machine-design sweep over candidate networks
    through :func:`repro.runs.run_spec`, which plans one stacked shard
    per topology value).  All grid
    points are compiled into a single
    :class:`~repro.backends.HeteroBatchedBackend` and integrated in one
    solver pass; per-point trajectories are fanned back out, each
    carrying its own model metadata.

    Parameters
    ----------
    models:
        One declarative model per grid point.
    t_end:
        Shared integration horizon.
    seeds:
        A single seed applied to every grid point (the usual sweep
        convention: identical noise stream per point), or one seed per
        model.
    theta0:
        Shared initial phases for all points (default: synchronised).
    theta0s:
        Per-point initial phases ``(R, N)``; overrides ``theta0``.
    method, dt, rtol, atol, n_samples, kernel, threads, per_member_adaptive:
        As in :func:`simulate_batched` (``"em"`` batches too — each
        point draws its Wiener increments from its own seeded stream).
    observer:
        Streaming-metrics hook (e.g. a
        :class:`repro.metrics.streaming.StreamingObserver`), called with
        the stacked ``(R, N)`` state at ``t0`` and after every accepted
        step.  Never changes the integration itself.
    record:
        Trajectory retention: ``"full"`` (default) | ``"none"`` |
        stride ``K``.  Thinned retention is incompatible with
        ``n_samples`` (resampling needs the full mesh).

    Returns
    -------
    list[OscillatorTrajectory]
        One trajectory per model, in input order, all on the shared mesh.
    """
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    if n_samples is not None and record != "full":
        raise ValueError('n_samples requires record="full"')
    models = list(models)
    if len(models) == 0:
        raise ValueError("need at least one model")
    n = models[0].n
    for m in models[1:]:
        if m.n != n:
            raise ValueError("grid models disagree on N")

    if np.ndim(seeds) == 0:
        seed_list = [int(seeds)] * len(models)
    else:
        seed_list = [int(s) for s in seeds]
        if len(seed_list) != len(models):
            raise ValueError(
                f"got {len(seed_list)} seeds for {len(models)} models")

    if kernel is None:
        # Honour the models' declarative kernel field when they agree
        # (mirrors simulate/simulate_batched); disagreeing grids fall
        # back to auto resolution for the stacked backend.
        model_kernels = {m.kernel for m in models}
        kernel = model_kernels.pop() if len(model_kernels) == 1 else "auto"
    if theta0s is not None:
        theta0s = np.asarray(theta0s, dtype=float).copy()
    else:
        base = (synchronized(n) if theta0 is None
                else np.asarray(theta0, dtype=float))
        theta0s = np.tile(base, (len(models), 1))
    if theta0s.shape != (len(models), n):
        raise ValueError(
            f"stacked theta0 has shape {theta0s.shape}, "
            f"expected ({len(models)}, {n})"
        )
    return _simulate_stack(
        models, seed_list, t_end, theta0s, method=method, dt=dt, rtol=rtol,
        atol=atol, n_samples=n_samples, backend="sparse", kernel=kernel,
        threads=threads, per_member_adaptive=per_member_adaptive,
        observer=observer, record=record)


def simulate_kuramoto(
    model: KuramotoModel,
    t_end: float,
    *,
    theta0: Sequence[float] | np.ndarray | None = None,
    method: str = "dopri",
    dt: float | None = None,
    rtol: float = 1e-6,
    atol: float = 1e-9,
):
    """Integrate the plain Kuramoto baseline; returns the raw Solution.

    (The Kuramoto model has no notion of topology/potential metadata, so
    no :class:`OscillatorTrajectory` wrapper — metrics operate on the
    arrays directly.)
    """
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    theta0 = (np.zeros(model.n) if theta0 is None
              else np.asarray(theta0, dtype=float).copy())
    if theta0.shape != (model.n,):
        raise ValueError(f"theta0 has shape {theta0.shape}, expected ({model.n},)")
    if method == "dopri":
        return solve_dopri45(model.rhs, (0.0, t_end), theta0, rtol=rtol, atol=atol)
    if method == "rk4":
        if dt is None:
            dt = 0.02 / max(abs(model.coupling_k), float(np.max(np.abs(model.omega_vec))), 1.0)
        return solve_rk4(model.rhs, (0.0, t_end), theta0, dt=dt)
    raise ValueError(f"unknown method {method!r}")
