"""RHS compute backends for the oscillator model.

A backend compiles a stack of frozen
:class:`~repro.core.model.RealizedModel` members into an evaluator of
the Eq. 2 right-hand side over an ``(R, N)`` super-state.  Every solve
goes through one: a single run is a stack of ``R = 1``, a seed ensemble
or a parameter grid a stack of ``R > 1``.  Two implementations:

* :class:`HeteroBatchedBackend` (``"sparse"``) — the O(E) edge-list
  backend; evaluates the potential only on actual edges and accumulates
  with a segment sum.  Members may differ in everything but ``N``.  The
  inner loop is a selectable *kernel* (``kernel=`` knob: ``"auto"`` |
  ``"numpy"`` | ``"tiled"`` | ``"cc"``, see :mod:`repro.kernels`).
* :class:`DenseBackend` (``"dense"``) — the O(N^2) dense-matrix
  reference (the behaviour of the paper's MATLAB artifact); optimal for
  genuinely dense topologies.  It only replaces the coupling term.

Selection
---------
``make_batched_backend(members, "auto")`` picks by topology density: the
edge-list backend wins whenever fewer than ``SPARSE_DENSITY_THRESHOLD``
of the matrix entries are edges, and whenever an explicit kernel or
thread count asks for it.  ``"dense"`` / ``"sparse"`` force a choice
(the declarative knob is ``PhysicalOscillatorModel.backend``, and
``simulate(..., backend=...)`` / ``pom model --backend`` override it per
run).  Grid solves (``simulate_grid`` and every campaign) always use the
edge-list backend.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from ..kernels import available_kernels, normalize_kernel_name
from .dense import DenseBackend
from .hetero import HeteroBatchedBackend, frequency_from_period

if TYPE_CHECKING:  # pragma: no cover
    from ..core.model import RealizedModel

__all__ = [
    "DenseBackend",
    "HeteroBatchedBackend",
    "frequency_from_period",
    "BACKENDS",
    "SPARSE_DENSITY_THRESHOLD",
    "available_backends",
    "available_kernels",
    "auto_backend_name",
    "normalize_backend_name",
    "normalize_kernel_name",
    "make_batched_backend",
]

#: registry of backends selectable by name
BACKENDS: dict[str, type[HeteroBatchedBackend]] = {
    DenseBackend.name: DenseBackend,
    HeteroBatchedBackend.name: HeteroBatchedBackend,
}

#: edge fraction below which "auto" prefers the edge-list kernel
SPARSE_DENSITY_THRESHOLD = 0.25


def available_backends() -> tuple[str, ...]:
    """Names accepted by the ``backend=`` knobs (plus ``"auto"``)."""
    return ("auto",) + tuple(sorted(BACKENDS))


def normalize_backend_name(name: str | None) -> str:
    """Validate a ``backend=`` knob value; returns the canonical key.

    The single source of the "unknown backend" error — used by the
    declarative model field, the realisation-time override, and the
    compile step, so they can never drift apart.
    """
    key = (name or "auto").strip().lower()
    if key != "auto" and key not in BACKENDS:
        raise ValueError(
            f"unknown backend {name!r}; available: "
            f"{', '.join(available_backends())}"
        )
    return key


def auto_backend_name(topology) -> str:
    """Density-based choice: sparse topologies get the edge-list kernel."""
    return (HeteroBatchedBackend.name
            if topology.density <= SPARSE_DENSITY_THRESHOLD
            else DenseBackend.name)


def make_batched_backend(members: Sequence["RealizedModel"],
                         name: str | None = "auto",
                         kernel: str | None = "auto",
                         threads: int | None = None) -> HeteroBatchedBackend:
    """Compile a stack of realisations with the named (or auto) backend.

    ``"auto"`` picks the dense backend only when every member's topology
    is dense.  ``kernel`` selects the coupling-loop implementation of
    the edge-list backend (see :mod:`repro.kernels`) and ``threads`` its
    in-kernel thread count (default: the ``POM_NUM_THREADS`` environment
    variable, else 1).  An explicit non-auto kernel or an explicit
    thread count is itself a request for the edge-list path, so
    ``"auto"`` then resolves to sparse regardless of density; only an
    explicit ``"dense"`` combined with either knob is an error.
    """
    if len(members) == 0:
        raise ValueError("need at least one batch member")
    key = normalize_backend_name(name)
    explicit_kernel = normalize_kernel_name(kernel) != "auto"
    if key == "auto":
        dense = all(auto_backend_name(m.model.topology) == DenseBackend.name
                    for m in members)
        key = (DenseBackend.name
               if dense and not explicit_kernel and threads is None
               else HeteroBatchedBackend.name)
    if key == DenseBackend.name:
        if explicit_kernel:
            raise ValueError(
                f"backend {key!r} does not support the kernel= knob "
                f"(got kernel={kernel!r}); use the sparse backend"
            )
        if threads is not None:
            raise ValueError(
                f"backend {key!r} does not support the threads= knob "
                f"(got threads={threads!r}); use the sparse backend"
            )
    return BACKENDS[key](members, kernel=kernel, threads=threads)
