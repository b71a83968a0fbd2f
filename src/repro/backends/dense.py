"""Dense-matrix RHS backend — the reference implementation.

Materialises the full ``(N, N)`` phase-difference matrix of every member
on every call, exactly like the paper's MATLAB artifact: O(N^2) time and
memory per evaluation regardless of how sparse the topology is.  Kept as
the ground truth the edge-list kernels are verified against, and as the
fastest option for genuinely dense topologies (all-to-all), where the
matrix formulation has no wasted work and BLAS-friendly layout.

Everything except the coupling term (member stacking, intrinsic
frequencies, subsets, the solver closures) is the stacked edge-list
backend's; only the interaction sum is replaced.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .hetero import HeteroBatchedBackend

if TYPE_CHECKING:  # pragma: no cover
    from ..integrate.history import HistoryBuffer

__all__ = ["DenseBackend"]


class DenseBackend(HeteroBatchedBackend):
    """Reference O(N^2) coupling over each member's full topology matrix."""

    name = "dense"

    def _setup_kernel(self, kernel: str | None, threads: int | None) -> None:
        # The matrix arithmetic has no kernel or thread knob.
        self.kernel = None
        self.threads = 1

    def coupling(self, t: float, theta: np.ndarray,
                 history: "HistoryBuffer | None" = None) -> np.ndarray:
        out = np.zeros((self._r, self._n))
        for r, m in enumerate(self.members):
            vp = self._vps[r, 0]
            if vp == 0.0:
                continue
            T = m.model.topology.matrix                    # (n, n)
            th = theta[r]
            dmat = th[None, :] - th[:, None]               # d[i, j] = th_j - th_i
            if m.has_delays and history is not None:
                # Delayed partner phases: evaluate the history once per
                # distinct delay value (tau fields are piecewise
                # constant with few levels).
                tau_now = m.tau(t)
                coupled = T != 0.0
                uniq = np.unique(tau_now[coupled]) if coupled.any() else []
                for v in uniq:
                    if v == 0.0:
                        continue
                    delayed = history(t - float(v))[r]     # member r at t - v
                    mask = coupled & (tau_now == v)
                    rows, cols = np.nonzero(mask)
                    dmat[mask] = delayed[cols] - th[rows]
            vmat = np.asarray(m.model.potential(dmat), dtype=float)
            out[r] = vp * (T * vmat).sum(axis=1)
        return out
