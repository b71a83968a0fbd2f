"""Explicit Euler and Euler-Maruyama integrators.

The Euler-Maruyama scheme treats the process-local noise ``zeta_i(t)`` of
the physical oscillator model as a genuine stochastic (white-noise)
forcing rather than a frozen piecewise-constant sample.  For an SDE

    dy = f(t, y) dt + g(t, y) dW

the scheme is ``y_{n+1} = y_n + f dt + g sqrt(dt) xi`` with
``xi ~ N(0, I)``.  Strong order 1/2, weak order 1 — adequate for the
qualitative noise studies of the paper (Sec. 6 lists the systematic
study of noise as future work; we expose the machinery).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .fixed import fixed_step_solve
from .solution import Solution

__all__ = ["solve_euler", "solve_euler_maruyama"]


def solve_euler(
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
    """Integrate with the explicit (forward) Euler scheme, fixed step.

    ``observer`` is called with ``(t, y)`` at ``t0`` and after every
    step — the streaming-metrics hook, independent of which states
    ``record`` retains (``"full"`` | ``"none"`` | stride ``K``, see
    :func:`repro.integrate.solution.record_stride`).  ``stepper`` is a
    compiled euler stepper over the same right-hand side, run in chunks
    (see :func:`repro.integrate.fixed.fixed_step_solve`).
    """

    def step(t: float, h: float, y: np.ndarray) -> np.ndarray:
        return y + h * np.asarray(f(t, y), dtype=float)

    return fixed_step_solve(step, t_span, y0, dt=dt, rhs_per_step=1,
                            step_callback=step_callback, observer=observer,
                            record=record, stepper=stepper)


def solve_euler_maruyama(
    f: Callable[[float, np.ndarray], np.ndarray],
    g: Callable[[float, np.ndarray], np.ndarray],
    t_span: Sequence[float],
    y0: Sequence[float] | np.ndarray,
    *,
    dt: float,
    rng: np.random.Generator | Sequence | None = None,
    step_callback: Callable[[float, np.ndarray], None] | None = None,
    observer: Callable[[float, np.ndarray], None] | None = None,
    record: str | int = "full",
) -> Solution:
    """Integrate the Itô SDE ``dy = f dt + g dW`` (diagonal noise).

    Parameters
    ----------
    f:
        Drift term ``f(t, y) -> (n,)``.
    g:
        Diffusion term ``g(t, y) -> (n,)`` — per-component noise
        amplitude (diagonal diffusion; off-diagonal correlations are not
        needed for the paper's process-local jitter).
    dt:
        Fixed time step.
    rng:
        NumPy generator (or seed); a fresh default generator is used if
        omitted (pass one for reproducibility).  For batched ``(R, N)``
        states a *sequence* of R generators/seeds draws each member's
        Wiener increments from its own stream, in the exact order the
        sequential one-member-at-a-time solve would — a batched ensemble
        therefore reproduces the per-seed runs bit for bit.
    """
    shape = np.shape(y0)
    if isinstance(rng, (list, tuple)):
        gens = [r if isinstance(r, np.random.Generator)
                else np.random.default_rng(r) for r in rng]
        if len(shape) < 2 or len(gens) != shape[0]:
            raise ValueError(
                f"got {len(gens)} generators for a state of shape "
                f"{shape}; a generator sequence needs one entry per "
                "member row"
            )

        def draw() -> np.ndarray:
            return np.stack([gen.standard_normal(shape[1:])
                             for gen in gens])
    else:
        gen = rng if isinstance(rng, np.random.Generator) \
            else np.random.default_rng(rng)

        def draw() -> np.ndarray:
            return gen.standard_normal(shape)

    def step(t: float, h: float, y: np.ndarray) -> np.ndarray:
        drift = np.asarray(f(t, y), dtype=float)
        diff = np.asarray(g(t, y), dtype=float)
        dw = draw() * np.sqrt(h)
        return y + h * drift + diff * dw

    return fixed_step_solve(step, t_span, y0, dt=dt, rhs_per_step=1,
                            step_callback=step_callback, observer=observer,
                            record=record)
