"""The shared driver of the fixed-step schemes (Euler, EM, RK4).

:func:`fixed_step_solve` owns everything the schemes have in common:
the mesh (``dt`` steps, the last one shortened to land on ``t_end``),
``record`` retention, the observer and step callbacks, and the solver
counters.  A scheme contributes one step, ``step(t, h, y) -> y_next``.

A compiled *stepper* (:class:`repro.kernels.cc.FixedStepper`) replaces
the per-step Python loop: it advances a whole chunk of steps per call,
writing every state into a ``(K, *shape)`` buffer that the observer
then folds in one pass.  ``K`` is capped by :data:`CHUNK_BYTES`, so the
buffer stays small at any N, and the shortened final step runs as its
own chunk.  Mesh, retention, callbacks and counters are identical on
both paths.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .solution import Solution, SolverStats, record_stride

__all__ = ["CHUNK_BYTES", "fixed_step_solve"]

#: byte budget of one chunk of states on the compiled-stepper path: 64
#: steps of a paper-scale (16, 32) stack, one step of a (2, 65536) one.
#: Larger chunks buy no speed and raise peak RSS, since the observer
#: fold's temporaries scale with the chunk (the wavefront's co-moving
#: copy, the histogram's bin indices; the NumPy order-parameter
#: fallback's complex ones are 4x the chunk, the compiled fold needs
#: none).  Measured with the NumPy fold: 1 MiB cost the 2-worker service
#: workload ~3 MB, 4 MiB the N=65536 workload ~2 MB.
CHUNK_BYTES = 1 << 18


def fixed_step_solve(
    step: Callable[[float, float, np.ndarray], np.ndarray],
    t_span: Sequence[float],
    y0: Sequence[float] | np.ndarray,
    *,
    dt: float,
    rhs_per_step: int,
    step_callback: Callable[[float, np.ndarray], None] | None = None,
    observer: Callable[[float, np.ndarray], None] | None = None,
    record: str | int = "full",
    stepper=None,
) -> Solution:
    """Integrate from ``t_span[0]`` to ``t_span[1]`` with fixed steps.

    ``step(t, h, y)`` returns the state after one step of size ``h``;
    with a ``stepper`` it is not called.  ``observer`` sees ``(t, y)``
    at ``t0`` and after every step (an observer with a ``fold(ts, ys)``
    method gets each chunk of the stepper path at once); ``record``
    selects the retained states (see :func:`record_stride`).
    """
    t0, t_end = float(t_span[0]), float(t_span[1])
    if not t_end > t0:
        raise ValueError(f"need t_end > t0, got {t_span!r}")
    if dt <= 0:
        raise ValueError("dt must be positive")
    stride = record_stride(record)

    y = np.asarray(y0, dtype=float).copy()
    stats = SolverStats()
    n_full = int(np.floor((t_end - t0) / dt + 1e-12))
    remainder = (t_end - t0) - n_full * dt
    n_steps = n_full + (1 if remainder > 1e-15 else 0)

    ts = [t0]
    ys = [y.copy()]
    if observer is not None:
        observer(t0, y)
    if stepper is not None:
        _run_chunks(stepper, t0, y, dt, n_full, remainder, n_steps, stride,
                    observer, step_callback, ts, ys)
        stats.n_steps = n_steps
        stats.n_rhs = rhs_per_step * n_steps
        return Solution(ts=np.asarray(ts), ys=np.asarray(ys), stats=stats)

    t = t0
    for i in range(n_steps):
        h = dt if i < n_full else remainder
        y = step(t, h, y)
        t = t + h
        stats.n_rhs += rhs_per_step
        stats.n_steps += 1
        if stride is None or (stride and (i + 1) % stride == 0) \
                or i == n_steps - 1:
            ts.append(t)
            ys.append(y.copy())
        if observer is not None:
            observer(t, y)
        if step_callback is not None:
            step_callback(t, y)

    return Solution(ts=np.asarray(ts), ys=np.asarray(ys), stats=stats)


def _run_chunks(stepper, t: float, y: np.ndarray, dt: float, n_full: int,
                remainder: float, n_steps: int, stride: int | None,
                observer, step_callback, ts: list, ys: list) -> None:
    """The stepper path of :func:`fixed_step_solve`; advances ``y`` in place."""
    cap = max(1, min(n_full, CHUNK_BYTES // max(y.nbytes, 1)))
    buf_t = np.empty(cap)
    buf_y = np.empty((cap,) + y.shape)
    fold = getattr(observer, "fold", None)
    done = 0
    while done < n_steps:
        if done < n_full:
            k, h = min(cap, n_full - done), dt
        else:
            k, h = 1, remainder
        chunk_t, chunk_y = buf_t[:k], buf_y[:k]
        stepper(t, h, y, chunk_t, chunk_y)
        index = np.arange(done + 1, done + k + 1)
        if stride is None:
            keep = slice(None)
        else:
            keep = index == n_steps
            if stride:
                keep |= index % stride == 0
        ts.extend(chunk_t[keep].tolist())
        ys.extend(chunk_y[keep].copy())
        if fold is not None:
            fold(chunk_t, chunk_y)
        elif observer is not None:
            for tk, yk in zip(chunk_t.tolist(), chunk_y):
                observer(tk, yk)
        if step_callback is not None:
            for tk, yk in zip(chunk_t.tolist(), chunk_y):
                step_callback(tk, yk)
        y[...] = chunk_y[-1]
        t = float(chunk_t[-1])
        done += k
