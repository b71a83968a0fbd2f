"""Ensemble and parameter-grid utilities.

Noise realisations make single trajectories anecdotal; the paper's
qualitative claims ("the system resynchronises", "the gaps settle at
2*sigma/3") are statements about typical behaviour.  This module runs
seed ensembles and parameter grids and aggregates arbitrary metrics.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .model import PhysicalOscillatorModel
from .simulation import default_dt, simulate, simulate_batched, simulate_grid
from .trajectory import OscillatorTrajectory

__all__ = ["EnsembleResult", "run_ensemble", "GridResult", "grid_sweep"]


@dataclass
class EnsembleResult:
    """Aggregated metrics over a seed ensemble.

    Attributes
    ----------
    seeds:
        The seeds used.
    values:
        ``{metric_name: array over seeds}``.
    """

    seeds: tuple[int, ...]
    values: dict[str, np.ndarray] = field(default_factory=dict)

    def mean(self, name: str) -> float:
        """Ensemble mean of one metric (NaN-aware)."""
        return float(np.nanmean(self.values[name]))

    def std(self, name: str) -> float:
        """Ensemble standard deviation (NaN-aware)."""
        return float(np.nanstd(self.values[name]))

    def quantile(self, name: str, q: float) -> float:
        """Ensemble quantile (NaN-aware)."""
        return float(np.nanquantile(self.values[name], q))

    def summary(self) -> dict:
        """``{metric: {"mean": ..., "std": ...}}`` for reports."""
        return {
            name: {"mean": self.mean(name), "std": self.std(name)}
            for name in self.values
        }


def run_ensemble(
    model: PhysicalOscillatorModel,
    t_end: float,
    metrics: Mapping[str, Callable[[OscillatorTrajectory], float]],
    *,
    seeds: Sequence[int] = tuple(range(8)),
    theta0_factory: Callable[[int], np.ndarray] | None = None,
    batched: bool = False,
    **simulate_kwargs,
) -> EnsembleResult:
    """Simulate the model once per seed and evaluate the metrics.

    Parameters
    ----------
    model:
        The declarative model (noise channels re-realised per seed).
    t_end:
        Horizon per run.
    metrics:
        Named callables ``f(trajectory) -> float``.
    seeds:
        Ensemble seeds (also fed to ``theta0_factory``).
    theta0_factory:
        Optional per-seed initial condition, ``f(seed) -> (n,)``.
    batched:
        If True, stack all seeds into one ``(R, N)`` super-state and
        integrate the whole ensemble in a single solver pass
        (:func:`repro.core.simulation.simulate_batched`) — typically
        several times faster than the sequential loop.  The members
        then share one (adaptive) time mesh.  Works for ``method="em"``
        too: the stacked solve draws each member's Wiener increments
        from its own seeded stream, reproducing the sequential per-seed
        runs bit for bit (at equal ``dt``).
    simulate_kwargs:
        Forwarded to :func:`repro.core.simulate` (or its batched
        counterpart).
    """
    if not metrics:
        raise ValueError("need at least one metric")
    out: dict[str, list[float]] = {name: [] for name in metrics}
    if batched:
        trajs = simulate_batched(model, t_end, seeds=seeds,
                                 theta0_factory=theta0_factory,
                                 **simulate_kwargs)
        for traj in trajs:
            for name, fn in metrics.items():
                out[name].append(float(fn(traj)))
    else:
        for seed in seeds:
            theta0 = theta0_factory(seed) if theta0_factory is not None else None
            traj = simulate(model, t_end, theta0=theta0, seed=seed,
                            **simulate_kwargs)
            for name, fn in metrics.items():
                out[name].append(float(fn(traj)))
    return EnsembleResult(
        seeds=tuple(int(s) for s in seeds),
        values={name: np.asarray(vals) for name, vals in out.items()},
    )


@dataclass
class GridResult:
    """Outcome of a parameter-grid sweep.

    Attributes
    ----------
    param_names:
        Order of the swept parameters.
    points:
        List of parameter dicts, one per grid point.
    results:
        The runner's return value per point.
    """

    param_names: tuple[str, ...]
    points: list[dict]
    results: list

    def column(self, extractor: Callable) -> np.ndarray:
        """Apply an extractor to every result; returns an array."""
        return np.asarray([extractor(r) for r in self.results])

    def as_table(self, extractors: Mapping[str, Callable]) -> dict:
        """Columns dict (parameters + extracted metrics) for CSV export."""
        table: dict[str, list] = {name: [] for name in self.param_names}
        for point in self.points:
            for name in self.param_names:
                table[name].append(point[name])
        for name, fn in extractors.items():
            table[name] = [fn(r) for r in self.results]
        return table

    def write_csv(self, path, extractors: Mapping[str, Callable],
                  *, meta: Mapping | None = None) -> Path:
        """Write the :meth:`as_table` columns as a CSV artefact.

        Round-trips through :func:`repro.viz.export.read_csv`.
        """
        from ..viz.export import write_csv as _write_csv
        return _write_csv(path, self.as_table(extractors), meta=meta)


def grid_sweep(param_grid: Mapping[str, Sequence],
               runner: Callable[..., object] | None = None,
               *,
               model_factory: Callable[..., PhysicalOscillatorModel] | None = None,
               batched: bool = False,
               t_end: float | None = None,
               seed: int | None = None,
               theta0: Sequence[float] | np.ndarray | None = None,
               **simulate_kwargs) -> GridResult:
    """Evaluate every point of the Cartesian grid ``param_grid``.

    Two modes:

    * **runner mode** (the original API): call ``runner(**point)`` per
      grid point and collect whatever it returns.
    * **model mode**: ``model_factory(**point)`` builds one declarative
      model per grid point; the results are
      :class:`~repro.core.trajectory.OscillatorTrajectory` objects.
      With ``batched=True`` all grid points are stacked into a single
      ``(R, N)`` super-state and integrated in *one* solver pass
      (:func:`repro.core.simulation.simulate_grid`, so the points must
      share N and the topology) — typically several
      times faster than the point-by-point loop; with ``batched=False``
      each point runs through :func:`simulate` individually (same seeds
      and fixed-step methods give machine-identical phases, so the two
      paths are interchangeable).

    Parameters
    ----------
    param_grid:
        Maps parameter names to value lists (Cartesian product).
    runner:
        Runner-mode callable; mutually exclusive with ``model_factory``.
    model_factory:
        Model-mode callable ``f(**point) -> PhysicalOscillatorModel``.
    batched:
        Model mode only: integrate the whole grid in one stacked solve.
    t_end:
        Model mode only: shared integration horizon (required).
    seed:
        Model mode only: noise-realisation seed applied to every point
        (default 0).
    theta0:
        Model mode only: shared initial phases (default synchronised).
    simulate_kwargs:
        Model mode only: forwarded to :func:`simulate` /
        :func:`simulate_grid` (``method``, ``dt``, ``rtol``, ...).
        When ``dt`` is not given, one shared fixed step — the smallest
        :func:`~repro.core.simulation.default_dt` over the grid — is
        used for *both* paths, so looped and batched fixed-step results
        stay machine-identical even when the points' own default steps
        would differ.
    """
    if not param_grid:
        raise ValueError("parameter grid must not be empty")
    if (runner is None) == (model_factory is None):
        raise ValueError("need exactly one of runner= or model_factory=")
    if runner is not None:
        extra = {"batched": batched or None, "t_end": t_end, "seed": seed,
                 "theta0": theta0, **simulate_kwargs}
        offending = sorted(k for k, v in extra.items() if v is not None)
        if offending:
            raise ValueError(
                f"{', '.join(offending)} only apply to model_factory= "
                "mode, not runner= mode"
            )
    if model_factory is not None and t_end is None:
        raise ValueError("model_factory= requires t_end=")

    names = tuple(param_grid.keys())
    points = [dict(zip(names, combo))
              for combo in itertools.product(*(param_grid[n] for n in names))]

    if runner is not None:
        results: list = [runner(**point) for point in points]
    else:
        models = [model_factory(**point) for point in points]
        if "dt" not in simulate_kwargs:
            simulate_kwargs = {**simulate_kwargs,
                               "dt": min(default_dt(m) for m in models)}
        seed = 0 if seed is None else seed
        if batched:
            results = simulate_grid(models, t_end, seeds=seed, theta0=theta0,
                                    **simulate_kwargs)
        else:
            results = [simulate(m, t_end, theta0=theta0, seed=seed,
                                **simulate_kwargs) for m in models]
    return GridResult(param_names=names, points=points, results=results)
