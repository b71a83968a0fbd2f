"""Compiled and tiled coupling kernels for large-N topologies.

The stacked RHS backend (:mod:`repro.backends`) delegates the hot
coupling loop — gather partner phases over the edge list, evaluate the
interaction potential, scatter-accumulate per row — to one of three
interchangeable *kernels*, selected by the ``kernel=`` knob threaded
through ``make_batched_backend``, ``simulate*``, and the CLI:

``"numpy"``
    The vectorised edge-list path (one ``(R, E)`` round-trip per
    evaluation).  Always available; the reference implementation.
``"tiled"``
    CSR-tiled NumPy (:mod:`repro.kernels.tiled`): the same arithmetic
    blocked over row-aligned edge ranges so the scratch stays
    cache-resident.  Works for *any* potential, including
    ``CustomPotential``.
``"cc"``
    Fused kernel compiled on first use with the system C compiler and
    loaded via ctypes (:mod:`repro.kernels.cc`).  Needs a working ``cc``
    and a potential family with kernel coefficients.

``"auto"`` resolves to ``cc`` when a compiler is available and every
potential in the batch exposes
:meth:`~repro.core.potentials.Potential.kernel_coefficients`, else to
``tiled`` for problems with at least ``TILED_AUTO_MIN_EDGES`` edges,
else to ``numpy``.  Delayed (DDE) evaluations always use the NumPy
edge-patching path regardless of the knob; the kernels cover the
non-delayed fast path that dominates every paper workload.

Orthogonal to the kernel choice, :func:`resolve_threads` resolves the
in-kernel thread count (the ``threads=`` knob on the backends /
``simulate*`` / CLI, defaulting to the ``POM_NUM_THREADS`` environment
variable): the compiled kernel splits its work over disjoint output
rows, bit-identical to the serial pass for any count.
"""

from __future__ import annotations

import os
import warnings

from .cc import cc_available, openmp_available
from .coeffs import (
    KIND_BOTTLENECK,
    KIND_KURAMOTO,
    KIND_LINEAR,
    KIND_NAMES,
    KIND_TANH,
    eval_coefficients,
    family_coefficients,
)
from .tiled import (
    TiledBatchedCoupling,
    TiledSingleCoupling,
    TilePlan,
)

__all__ = [
    "KERNELS",
    "TILED_AUTO_MIN_EDGES",
    "THREADS_ENV_VAR",
    "available_kernels",
    "normalize_kernel_name",
    "resolve_kernel",
    "resolve_threads",
    "compiled_kernel_name",
    "cc_available",
    "openmp_available",
    "numba_available",
    "family_coefficients",
    "eval_coefficients",
    "KIND_TANH",
    "KIND_BOTTLENECK",
    "KIND_KURAMOTO",
    "KIND_LINEAR",
    "KIND_NAMES",
    "TilePlan",
    "TiledSingleCoupling",
    "TiledBatchedCoupling",
]

#: names accepted by the ``kernel=`` knobs
KERNELS = ("auto", "numpy", "tiled", "cc")

#: edge count from which "auto" prefers the tiled over the plain NumPy
#: path when no compiled kernel is available (below it the single
#: un-tiled round-trip is already cache-resident)
TILED_AUTO_MIN_EDGES = 8192

#: environment default for the in-kernel thread count; an explicit
#: ``threads=`` knob always wins.  The sharded executor pins this to 1
#: inside worker processes so jobs x threads never oversubscribes.
THREADS_ENV_VAR = "POM_NUM_THREADS"


def resolve_threads(threads: int | None = None) -> int:
    """Effective in-kernel thread count.

    Resolution order: the explicit ``threads=`` knob, then the
    ``POM_NUM_THREADS`` environment variable, then 1 (serial).  Read at
    *call* time, never cached at import, so the executor's worker
    initializer can pin it after fork.  The count only steers wall
    clock: the compiled kernels are bit-identical for any value, and
    silently run serial when the binary lacks OpenMP.
    """
    if threads is not None:
        t = int(threads)
        if t < 1:
            raise ValueError("threads must be positive")
        return t
    env = os.environ.get(THREADS_ENV_VAR)
    if env:
        try:
            t = int(env)
        except ValueError:
            raise ValueError(
                f"invalid {THREADS_ENV_VAR}={env!r}: expected a positive "
                "integer"
            ) from None
        if t < 1:
            raise ValueError(
                f"invalid {THREADS_ENV_VAR}={env!r}: expected a positive "
                "integer"
            )
        return t
    return 1


def available_kernels() -> tuple[str, ...]:
    """Names accepted by the ``kernel=`` knobs (availability not implied)."""
    return KERNELS


def normalize_kernel_name(name: str | None) -> str:
    """Validate a ``kernel=`` knob value; returns the canonical key.

    The single source of the "unknown kernel" error, shared by the
    declarative model field, the realisation-time override, the backend
    constructors, and the CLI.
    """
    key = (name or "auto").strip().lower()
    if key not in KERNELS:
        raise ValueError(f"unknown kernel {name!r}; available: {', '.join(KERNELS)}")
    return key


def compiled_kernel_name() -> str | None:
    """The available compiled kernel, or ``None``."""
    return "cc" if cc_available() else None


def numba_available() -> bool:
    """Always ``False``: no JIT kernel ships; kept for host reports."""
    return False


_warned_coefficient_fallback = False


def _warn_coefficient_fallback(fallback: str) -> None:
    """One-time note that a compiled kernel was skipped for a potential
    without kernel coefficients (``CustomPotential``)."""
    global _warned_coefficient_fallback
    if _warned_coefficient_fallback:
        return
    _warned_coefficient_fallback = True
    warnings.warn(
        "a potential without kernel coefficients (e.g. CustomPotential) "
        f'forced kernel "auto" onto the Python-potential "{fallback}" path '
        f'although a compiled kernel ("{compiled_kernel_name()}") is '
        "available; expect a serial slowdown — use a shipped potential "
        "family (tanh/bottleneck/kuramoto/linear) for the fused kernels",
        RuntimeWarning,
        stacklevel=3,
    )


def resolve_kernel(name: str | None, *, has_coefficients: bool, n_edges: int) -> str:
    """Resolve a ``kernel=`` request to a concrete, runnable kernel.

    Parameters
    ----------
    name:
        The knob value (``None`` means ``"auto"``).
    has_coefficients:
        Whether every potential involved exposes kernel coefficients
        (compiled kernels evaluate the potential inline and cannot call
        back into Python).
    n_edges:
        Edge count of the topology — drives the tiled-vs-numpy choice.

    ``"auto"`` falls back; explicit requests fail loudly when the kernel
    cannot run, so a benchmark or test never quietly measures the wrong
    code path.  The coefficient-less fallback (``CustomPotential``)
    warns once per process: a campaign silently running the Python-loop
    potential instead of a compiled kernel is a large, otherwise
    invisible slowdown.
    """
    key = normalize_kernel_name(name)
    if key == "auto":
        if has_coefficients:
            compiled = compiled_kernel_name()
            if compiled is not None:
                return compiled
        fallback = "tiled" if n_edges >= TILED_AUTO_MIN_EDGES else "numpy"
        if not has_coefficients and compiled_kernel_name() is not None:
            _warn_coefficient_fallback(fallback)
        return fallback
    if key == "cc":
        if not cc_available():
            raise RuntimeError(
                'kernel "cc" requested but no working C compiler was '
                'found; use kernel="tiled"/"numpy"/"auto"'
            )
        if not has_coefficients:
            raise ValueError(
                'kernel "cc" requires potentials with kernel '
                "coefficients (the shipped tanh/bottleneck/kuramoto/"
                "linear families); custom potentials need "
                'kernel="tiled" or "numpy"'
            )
    return key
