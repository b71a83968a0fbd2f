"""Streaming in-solve reductions over the batched ``(R, N)`` super-state.

The paper's Sec. 5 claims only ever consume kilobyte-scale reductions
(order parameter, desync wavefront, energy) — never the ``(R, n_t, N)``
trajectory stack itself.  This module makes those reductions
first-class: a :class:`StreamingObserver` folds named metric
accumulators per accepted solver step, so shards can cache metric
arrays instead of trajectories (``ScenarioSpec(metrics=[...],
trajectories="none")``).

Bit-identity is by construction, not by luck: the *same* per-sample
kernels run in both paths.  Streaming calls them on the live solver
state after each accepted step; :func:`metrics_from_trajectories`
re-drives the same observer over the stored trajectory rows.  Because
each row is copied to the same contiguous ``(R, N)`` layout the solver
produced, every reduction sees identical bytes in identical order —
streamed and post-hoc results are equal to the last bit for every
integrator (asserted by the test suite and CI).

The order parameter is the costly reduction at large N.  With a C
compiler it runs compiled (:func:`repro.kernels.cc.order_parameter`):
one SIMD cos/sin pass per block of phases, summed in a fixed order, so
a row's ``r`` depends on that row's phases only, under the same
determinism contract as the coupling kernels' ``potential_block``.
Without one it falls back to ``abs(mean(exp(1j * y)))``; the two agree
to about 1e-16, and ``StreamingObserver.kernel`` (reported as
``Solution.backend["fold"]``) says which produced a run's bits.

Registry
--------
``order_parameter``
    Kuramoto ``r(t)`` per member, shape ``(R, n_t)`` — the formula of
    :func:`repro.metrics.order_parameter.order_parameter_series`.
``phase_spread``
    ``max(theta) - min(theta)`` per member, shape ``(R, n_t)``.
``energy``
    Interaction energy ``(v_p / 2N) * sum_edges U(theta_i - theta_j)``
    per member, shape ``(R, n_t)``, evaluated on the cached edge list
    (the uniform rotation cancels in the differences, so raw phases
    equal the co-moving frame here).
``wavefront``
    Per-rank first arrival time of the idle wave, shape ``(R, N)``:
    the first accepted step where the co-moving phase deficit relative
    to the initial state exceeds the threshold
    (:func:`repro.metrics.wave.arrival_times` semantics with
    ``t_injection = 0``); ``inf`` for ranks never reached.
``phase_histogram``
    Occupancy counts of the wrapped phases over ``HISTOGRAM_BINS``
    uniform bins on ``[0, 2*pi)``, accumulated over all accepted steps,
    shape ``(R, HISTOGRAM_BINS)``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..integrate.fixed import CHUNK_BYTES
from ..kernels import cc

__all__ = [
    "HISTOGRAM_BINS",
    "METRIC_NAMES",
    "SERIES_METRICS",
    "WAVEFRONT_THRESHOLD",
    "StreamingObserver",
    "metrics_from_trajectories",
    "parse_trajectories",
    "validate_metrics",
]

#: the named reductions a ScenarioSpec may declare
METRIC_NAMES = ("order_parameter", "phase_spread", "energy", "wavefront",
                "phase_histogram")

#: reductions producing one value per member per accepted step
SERIES_METRICS = ("order_parameter", "phase_spread", "energy")

#: phase-deficit threshold of the streaming wavefront detector (matches
#: the default of :func:`repro.metrics.wave.arrival_times`)
WAVEFRONT_THRESHOLD = 0.1

#: uniform bins over [0, 2*pi) of the streaming phase histogram
HISTOGRAM_BINS = 32

_TWO_PI = 2.0 * np.pi


def validate_metrics(metrics) -> tuple[str, ...]:
    """Normalise a spec's ``metrics`` field to a tuple of known names.

    Order is preserved (it fixes artefact column order); duplicates and
    unknown names raise.
    """
    if metrics is None:
        return ()
    if isinstance(metrics, str):
        raise ValueError(
            f"metrics must be a sequence of names, got the string "
            f"{metrics!r} (did you mean [{metrics!r}]?)")
    out = tuple(str(m) for m in metrics)
    seen = set()
    for name in out:
        if name not in METRIC_NAMES:
            raise ValueError(f"unknown metric {name!r}; available: "
                             f"{', '.join(METRIC_NAMES)}")
        if name in seen:
            raise ValueError(f"duplicate metric {name!r}")
        seen.add(name)
    return out


def parse_trajectories(mode: str):
    """Parse a ``trajectories`` mode into a solver ``record`` value.

    ``"full"`` and ``"none"`` pass through; ``"stride:K"`` returns the
    positive integer ``K`` (keep every K-th accepted step, plus the
    initial and final states).
    """
    if mode in ("full", "none"):
        return mode
    if isinstance(mode, str) and mode.startswith("stride:"):
        try:
            k = int(mode.split(":", 1)[1])
        except ValueError:
            k = 0
        if k >= 1:
            return k
    raise ValueError(
        f"unknown trajectories mode {mode!r}; expected \"full\", "
        "\"none\", or \"stride:K\" with integer K >= 1")


# ----------------------------------------------------------------------
# per-sample kernels — the single source of truth for both the
# streaming and the post-hoc path (this sharing is what makes them
# bit-identical)
# ----------------------------------------------------------------------
def fold_kernel() -> str:
    """Which path :func:`sample_order_parameter` runs: ``"cc"`` or ``"numpy"``."""
    return "cc" if cc.cc_available() else "numpy"


def sample_order_parameter(y: np.ndarray) -> np.ndarray:
    """Kuramoto ``r`` of each row of a ``(..., N)`` phase stack.

    The compiled fold (:func:`repro.kernels.cc.order_parameter`) when a
    C compiler is available, else ``abs(mean(exp(1j * y)))``; the two
    agree to about 1e-16.
    """
    if fold_kernel() == "cc":
        return cc.order_parameter(y)
    return np.abs(np.exp(1j * y).mean(axis=-1))


def sample_phase_spread(y: np.ndarray) -> np.ndarray:
    """``max - min`` phase spread of each member row."""
    return y.max(axis=-1) - y.min(axis=-1)


def sample_energy(y: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                  potentials: Sequence, vp_over_2n: np.ndarray) -> np.ndarray:
    """Interaction energy of each member row, on the shared edge list.

    ``y`` is ``(..., R, N)``; the result is ``(..., R)``.
    """
    out = np.empty(y.shape[:-1], dtype=float)
    for r, pot in enumerate(potentials):
        # C-ordered (..., E) rows, so each sum is the pairwise sum of
        # one contiguous row whatever the leading shape
        yr = y[..., r, :]
        d = yr[..., rows] - yr[..., cols]
        u = np.ascontiguousarray(pot.antiderivative(d), dtype=float)
        out[..., r] = vp_over_2n[r] * u.sum(axis=-1)
    return out


def sample_histogram_indices(y: np.ndarray, n_bins: int) -> np.ndarray:
    """Bin index of each wrapped phase over ``[0, 2*pi)``."""
    idx = np.floor(np.mod(y, _TWO_PI) * (n_bins / _TWO_PI)).astype(np.intp)
    return np.clip(idx, 0, n_bins - 1)


class StreamingObserver:
    """Fold metric accumulators over accepted solver steps.

    Built once per shard from the fused member models; the integrators
    call it as ``observer(t, y)`` with the stacked ``(R, N)`` state at
    ``t0`` and after every accepted step.  :meth:`finalize` returns the
    kilobyte-scale arrays the cache stores::

        {"metrics_ts": (n_t,),
         "metric_<series>": (R, n_t),       # order_parameter, ...
         "metric_wavefront": (R, N),        # arrival times, inf unreached
         "metric_phase_histogram": (R, B)}  # int64 occupancy counts

    The observer is single-use: observing after :meth:`finalize` or
    finalizing twice is not supported.  ``kernel`` names the path that
    produces the metric bits: ``"cc"`` when the order parameter is
    folded by the compiled kernel, else ``"numpy"``.
    """

    def __init__(self, models: Sequence, metrics: Sequence[str], *,
                 n_bins: int = HISTOGRAM_BINS,
                 wavefront_threshold: float = WAVEFRONT_THRESHOLD) -> None:
        self.metrics = validate_metrics(metrics)
        self.kernel = (fold_kernel() if "order_parameter" in self.metrics
                       else "numpy")
        self._ts: list[float] = []
        self._series: dict[str, list[np.ndarray]] = {
            name: [] for name in self.metrics if name in SERIES_METRICS}
        self._n_bins = int(n_bins)
        self._threshold = float(wavefront_threshold)

        if "energy" in self.metrics:
            rows, cols = models[0].topology.edge_list()
            self._rows = np.asarray(rows, dtype=np.intp)
            self._cols = np.asarray(cols, dtype=np.intp)
            self._potentials = [m.potential for m in models]
            self._vp_over_2n = np.array(
                [m.v_p / (2.0 * m.n) for m in models], dtype=float)
        if "wavefront" in self.metrics:
            self._omegas = np.array([m.omega for m in models],
                                    dtype=float)[:, None]
            self._baseline: np.ndarray | None = None
            self._arrivals: np.ndarray | None = None
        if "phase_histogram" in self.metrics:
            self._counts: np.ndarray | None = None

    def __call__(self, t: float, y: np.ndarray) -> None:
        """Observe the state at one accepted step (or ``t0``)."""
        self.fold(np.array([t], dtype=float), y[None])

    def fold(self, ts: np.ndarray, ys: np.ndarray) -> None:
        """Observe ``K`` consecutive accepted steps at once.

        ``ys`` is the ``(K, R, N)`` block of states at times ``ts``
        ``(K,)``.  Every reduction runs per state row in the order of
        ``K`` single calls, so a fold equals them bit for bit.
        """
        ts = np.asarray(ts, dtype=float)
        self._ts.extend(ts.tolist())
        for name in self.metrics:
            if name == "order_parameter":
                self._series[name].append(sample_order_parameter(ys))
            elif name == "phase_spread":
                self._series[name].append(sample_phase_spread(ys))
            elif name == "energy":
                self._series[name].append(sample_energy(
                    ys, self._rows, self._cols, self._potentials,
                    self._vp_over_2n))
            elif name == "wavefront":
                x = ys - self._omegas * ts[:, None, None]
                if self._baseline is None:
                    self._baseline = np.array(x[0])
                    self._arrivals = np.full(x.shape[1:], np.inf)
                hit = self._baseline - x >= self._threshold
                newly = hit.any(axis=0) & np.isinf(self._arrivals)
                self._arrivals[newly] = ts[hit.argmax(axis=0)[newly]]
            elif name == "phase_histogram":
                idx = sample_histogram_indices(ys, self._n_bins)
                if self._counts is None:
                    self._counts = np.zeros((ys.shape[1], self._n_bins),
                                            dtype=np.int64)
                for r in range(ys.shape[1]):
                    self._counts[r] += np.bincount(
                        idx[:, r].ravel(), minlength=self._n_bins)

    @property
    def n_observed(self) -> int:
        """Accepted steps observed so far (including ``t0``)."""
        return len(self._ts)

    def finalize(self) -> dict[str, np.ndarray]:
        """The cacheable metric arrays (empty dict for no metrics)."""
        if not self.metrics:
            return {}
        out: dict[str, np.ndarray] = {
            "metrics_ts": np.asarray(self._ts, dtype=float)}
        for name in self.metrics:
            if name in SERIES_METRICS:
                out[f"metric_{name}"] = np.ascontiguousarray(
                    np.concatenate(self._series[name]).T)
            elif name == "wavefront":
                out["metric_wavefront"] = self._arrivals
            elif name == "phase_histogram":
                out["metric_phase_histogram"] = self._counts
        return out


def metrics_from_trajectories(ts: np.ndarray, thetas: np.ndarray,
                              models: Sequence, metrics: Sequence[str], *,
                              n_bins: int = HISTOGRAM_BINS) -> dict:
    """Post-hoc metrics from a stored ``(R, n_t, N)`` trajectory stack.

    Re-drives a :class:`StreamingObserver` over the trajectory rows —
    the same kernels, on the same contiguous ``(R, N)`` layout the
    solver streamed — so the result is bit-identical to the in-solve
    metrics of the same run.
    """
    ts = np.asarray(ts, dtype=float)
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 3:
        raise ValueError(
            f"thetas must be a (R, n_t, N) stack, got shape {thetas.shape}")
    if thetas.shape[1] != ts.shape[0]:
        raise ValueError("shape mismatch between ts and thetas")
    obs = StreamingObserver(models, metrics, n_bins=n_bins)
    step = max(1, CHUNK_BYTES // max(thetas[:, 0].nbytes, 1))
    for k in range(0, ts.shape[0], step):
        block = thetas[:, k:k + step].transpose(1, 0, 2)
        obs.fold(ts[k:k + step], np.ascontiguousarray(block))
    return obs.finalize()
