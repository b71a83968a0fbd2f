"""Solution containers for the integrators in :mod:`repro.integrate`.

A :class:`Solution` stores the discrete mesh produced by a solver together
with (optionally) a dense-output interpolant so that the trajectory can be
evaluated at arbitrary times inside the integration interval.  This mirrors
what MATLAB's ``ode45`` (used by the paper's artifact) returns and what the
delay-term handling of the physical oscillator model needs: evaluating
``theta_j(t - tau_ij)`` requires interpolating past states between mesh
points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = ["SolverStats", "Solution", "record_stride"]


def record_stride(record) -> int | None:
    """Normalise a solver ``record`` mode to a retention stride.

    ``"full"`` returns ``None`` (keep every accepted step — the historic
    behaviour), ``"none"`` returns ``0`` (keep only the initial and
    final states), and an integer ``K >= 1`` keeps every K-th accepted
    step plus the endpoints.  Thinning only affects which states are
    *retained* in the returned mesh; the step sequence — and therefore
    every propagated value and every streaming-observer call — is
    bit-identical across record modes.
    """
    if record == "full":
        return None
    if record == "none":
        return 0
    k = int(record)
    if k < 1:
        raise ValueError(f"record stride must be >= 1, got {record!r}")
    return k


@dataclass
class SolverStats:
    """Bookkeeping counters accumulated during a solve.

    Attributes
    ----------
    n_rhs:
        Number of right-hand-side evaluations.
    n_steps:
        Number of *accepted* steps.
    n_rejected:
        Number of rejected (re-tried) *whole-state* steps for adaptive
        methods (a step some members passed and others re-stepped is not
        counted here — see ``member_rejections``).
    member_rejections:
        For batched ``(R, N)`` solves with per-member step control: how
        often each member's error estimate exceeded the tolerances on an
        attempted step, shape ``(R,)``.  ``None`` for single-state
        solves and for batched solves without member tracking.
    """

    n_rhs: int = 0
    n_steps: int = 0
    n_rejected: int = 0
    member_rejections: np.ndarray | None = None

    def merge(self, other: "SolverStats") -> "SolverStats":
        """Return the component-wise sum of two stats records."""
        if self.member_rejections is None:
            member = other.member_rejections
        elif other.member_rejections is None:
            member = self.member_rejections
        else:
            member = self.member_rejections + other.member_rejections
        return SolverStats(
            n_rhs=self.n_rhs + other.n_rhs,
            n_steps=self.n_steps + other.n_steps,
            n_rejected=self.n_rejected + other.n_rejected,
            member_rejections=member,
        )


@dataclass
class Solution:
    """Result of an ODE solve.

    Attributes
    ----------
    ts:
        Accepted time points, shape ``(n_points,)``, strictly increasing.
    ys:
        States at ``ts``, shape ``(n_points, n_dim)``.
    stats:
        Solver counters.
    dense:
        Optional callable ``dense(t) -> y`` valid for
        ``ts[0] <= t <= ts[-1]``; vectorised over 1-D arrays of times.
    success:
        ``False`` if the solver aborted (e.g. step size underflow).
    message:
        Human-readable status.
    backend:
        What ran, set by the simulation driver: the stacked backend's
        ``describe()`` (backend, kernel, threads, ...) plus
        ``"stepper"`` — whether the compiled fixed-step stepper
        advanced the state — and ``"fold"``, the observer's ``kernel``
        (``"cc"`` or ``"numpy"``; ``None`` without an observer).
        ``None`` for a bare solver call.
    """

    ts: np.ndarray
    ys: np.ndarray
    stats: SolverStats = field(default_factory=SolverStats)
    dense: Callable[[np.ndarray], np.ndarray] | None = None
    success: bool = True
    message: str = "completed"
    backend: dict | None = None

    def __post_init__(self) -> None:
        self.ts = np.asarray(self.ts, dtype=float)
        self.ys = np.asarray(self.ys, dtype=float)
        if self.ys.ndim == 1:
            self.ys = self.ys[:, None]
        if self.ts.shape[0] != self.ys.shape[0]:
            raise ValueError(
                f"ts has {self.ts.shape[0]} points but ys has {self.ys.shape[0]} rows"
            )

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    @property
    def t0(self) -> float:
        """First mesh time."""
        return float(self.ts[0])

    @property
    def t_end(self) -> float:
        """Last mesh time."""
        return float(self.ts[-1])

    @property
    def y_end(self) -> np.ndarray:
        """Final state vector."""
        return self.ys[-1]

    @property
    def n_dim(self) -> int:
        """State dimension."""
        return int(self.ys.shape[1])

    def __len__(self) -> int:
        return int(self.ts.shape[0])

    # ------------------------------------------------------------------
    # Interpolation
    # ------------------------------------------------------------------
    def __call__(self, t: float | Sequence[float] | np.ndarray) -> np.ndarray:
        """Evaluate the solution at time(s) ``t``.

        Uses the dense interpolant when available, else piecewise-linear
        interpolation on the mesh.  Scalars return shape ``(n_dim,)``;
        arrays return shape ``(len(t), n_dim)``.
        """
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        lo, hi = self.ts[0], self.ts[-1]
        eps = 1e-9 * max(1.0, abs(hi))
        if np.any(t_arr < lo - eps) or np.any(t_arr > hi + eps):
            raise ValueError(
                f"evaluation time outside solution interval [{lo}, {hi}]"
            )
        t_arr = np.clip(t_arr, lo, hi)
        if self.dense is not None:
            out = self.dense(t_arr)
        else:
            out = _interp_rows(t_arr, self.ts, self.ys)
        if np.isscalar(t) or (isinstance(t, np.ndarray) and t.ndim == 0):
            return out[0]
        return out

    def resample(self, n_points: int) -> "Solution":
        """Return a new solution re-sampled on a uniform mesh."""
        if n_points < 2:
            raise ValueError("need at least two points to resample")
        ts = np.linspace(self.t0, self.t_end, n_points)
        ys = self(ts)
        return Solution(ts=ts, ys=ys, stats=self.stats, dense=self.dense,
                        success=self.success, message=self.message,
                        backend=self.backend)


def _interp_rows(t: np.ndarray, ts: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Piecewise-linear interpolation of each state component.

    Works for states of any rank: trailing axes are flattened, each
    component is interpolated independently, and the state shape is
    restored (covers the ``(R, N)`` super-states of batched ensembles).
    """
    state_shape = ys.shape[1:]
    flat = ys.reshape(ys.shape[0], -1)
    out = np.empty((t.shape[0], flat.shape[1]), dtype=float)
    for k in range(flat.shape[1]):
        out[:, k] = np.interp(t, ts, flat[:, k])
    return out.reshape((t.shape[0],) + state_shape)
