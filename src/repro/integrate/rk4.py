"""Classic fixed-step fourth-order Runge-Kutta integrator.

Used for cheap, predictable-cost integration of the oscillator model when
noise is injected as a piecewise-constant process (the mesh then aligns
with the noise refresh interval) and as a reference method in the
convergence tests of the adaptive solver.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .fixed import fixed_step_solve
from .solution import Solution

__all__ = ["solve_rk4"]


def solve_rk4(
    f: Callable[[float, np.ndarray], np.ndarray],
    t_span: Sequence[float],
    y0: Sequence[float] | np.ndarray,
    *,
    dt: float,
    step_callback: Callable[[float, np.ndarray], None] | None = None,
    observer: Callable[[float, np.ndarray], None] | None = None,
    record: str | int = "full",
    stepper=None,
) -> Solution:
    """Integrate ``dy/dt = f(t, y)`` with the classic RK4 scheme.

    Parameters
    ----------
    f:
        Right-hand side.
    t_span:
        ``(t0, t_end)``, forward only.
    y0:
        Initial state.
    dt:
        Fixed step; the final step is shortened to land exactly on
        ``t_end``.
    step_callback:
        Called after each step with ``(t, y)``.
    observer:
        Streaming-metrics hook, called with ``(t, y)`` at ``t0`` and
        after *every* step regardless of ``record``.
    record:
        Which states the returned mesh retains: ``"full"`` | ``"none"``
        | stride ``K`` (see
        :func:`repro.integrate.solution.record_stride`).
    stepper:
        A compiled rk4 stepper over the same right-hand side
        (:meth:`repro.backends.HeteroBatchedBackend.make_stepper`); it
        runs the steps in chunks, bit-identical to the loop over ``f``
        (see :func:`repro.integrate.fixed.fixed_step_solve`).
    """

    def step(t: float, h: float, y: np.ndarray) -> np.ndarray:
        k1 = np.asarray(f(t, y), dtype=float)
        k2 = np.asarray(f(t + 0.5 * h, y + 0.5 * h * k1), dtype=float)
        k3 = np.asarray(f(t + 0.5 * h, y + 0.5 * h * k2), dtype=float)
        k4 = np.asarray(f(t + h, y + h * k3), dtype=float)
        return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    return fixed_step_solve(step, t_span, y0, dt=dt, rhs_per_step=4,
                            step_callback=step_callback, observer=observer,
                            record=record, stepper=stepper)
