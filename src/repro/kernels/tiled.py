"""CSR-tiled pure-NumPy coupling kernels — the compiled-kernel fallback.

Same fused gather-potential-scatter structure as the compiled kernels,
expressed as NumPy passes over *row-aligned edge blocks* instead of one
monolithic ``(R, E)`` round-trip: each block's gather, potential values,
and segment sum stay cache-resident before the next block is touched.
Because every block boundary coincides with a row boundary (cut on the
cached ``Topology.csr()`` ``indptr``), each row is accumulated entirely
inside one block, in the same row-major edge order as the un-tiled
``np.bincount`` — the results are bit-identical to the plain NumPy path
for any potential, including :class:`~repro.core.potentials.CustomPotential`
(the potential is still an arbitrary Python callable here, which is what
makes this the universal fallback when no C compiler is available).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = [
    "TilePlan",
    "TiledSingleCoupling",
    "TiledBatchedCoupling",
    "TiledStackedCoupling",
]

#: default edge-block length for the single-state kernel (doubles)
BLOCK_EDGES = 32768

#: total per-block element budget for the batched kernel — divided by
#: the member count R, so the (R, block) scratch stays L2-resident
BATCH_BLOCK_BUDGET = 16384


class TilePlan:
    """Row-aligned edge blocks over a topology's CSR view.

    Each block is a tuple ``(e0, e1, r0, r1, local_rows)``: the edge
    range, the row range it covers, and the block-local row indices
    (``rows[e0:e1] - r0``) for the per-block segment sum.  Rows with
    more edges than ``block_edges`` get a (single) oversized block —
    correctness never depends on the block size.
    """

    def __init__(
        self,
        indptr: np.ndarray,
        rows: np.ndarray,
        n: int,
        block_edges: int = BLOCK_EDGES,
    ) -> None:
        if block_edges < 1:
            raise ValueError("block_edges must be positive")
        self.n = int(n)
        self.n_edges = int(rows.size)
        self.block_edges = int(block_edges)
        blocks = []
        r0 = 0
        while r0 < n and indptr[r0] < self.n_edges:
            target = indptr[r0] + block_edges
            r1 = int(np.searchsorted(indptr, target, side="left"))
            r1 = max(r0 + 1, min(r1, n))
            e0, e1 = int(indptr[r0]), int(indptr[r1])
            local = (rows[e0:e1] - r0).astype(np.intp)
            blocks.append((e0, e1, r0, r1, local))
            r0 = r1
        self.blocks = blocks

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)


class TiledBatchedCoupling:
    """Blocked coupling evaluator for a stacked ``(R, N)`` super-state.

    ``edge_potential`` maps an ``(R, m)`` block of phase differences to
    ``(R, m)`` potential values with row ``r`` evaluated under member
    ``r``'s potential — the heterogeneous backend passes its grouped /
    family-stacked evaluator, so parameter grids and ``CustomPotential``
    members work unchanged.
    """

    def __init__(
        self,
        topology,
        edge_potential: Callable,
        vps_column: np.ndarray,
        r_count: int,
        block_edges: int | None = None,
    ) -> None:
        indptr, _ = topology.csr()
        self._rows, self._cols = topology.edge_list()
        if block_edges is None:
            block_edges = max(512, BATCH_BLOCK_BUDGET // max(int(r_count), 1))
        self.plan = TilePlan(indptr, self._rows, topology.n, block_edges)
        self._edge_potential = edge_potential
        self._vps = vps_column  # (R, 1)
        self._r = int(r_count)
        # Per-block flattened segment indices (member r, local row i at
        # r*(r1-r0) + i) and preallocated gather scratch.
        self._flat = []
        width = 0
        for e0, e1, r0, r1, local in self.plan.blocks:
            offs = np.arange(self._r, dtype=np.intp)[:, None] * (r1 - r0)
            self._flat.append((offs + local[None, :]).ravel())
            width = max(width, e1 - e0)
        self._gather = np.empty((self._r, width))
        self._scratch = np.empty((self._r, width))

    def __call__(self, theta: np.ndarray) -> np.ndarray:
        acc = np.zeros((self._r, self.plan.n))
        rows, cols = self._rows, self._cols
        for (e0, e1, r0, r1, _), flat in zip(self.plan.blocks, self._flat):
            m = e1 - e0
            d = self._gather[:, :m]
            np.take(theta, cols[e0:e1], axis=1, out=d)
            np.take(theta, rows[e0:e1], axis=1, out=self._scratch[:, :m])
            np.subtract(d, self._scratch[:, :m], out=d)
            v = np.asarray(self._edge_potential(d), dtype=float)
            seg = np.bincount(flat, weights=v.ravel(), minlength=self._r * (r1 - r0))
            acc[:, r0:r1] += seg.reshape(self._r, r1 - r0)
        acc *= self._vps
        return acc


class TiledSingleCoupling(TiledBatchedCoupling):
    """Blocked coupling evaluator for one ``(N,)`` state (R=1)."""

    def __init__(
        self,
        topology,
        potential: Callable,
        vp_over_n: float,
        block_edges: int = BLOCK_EDGES,
    ) -> None:
        vps = np.array([[float(vp_over_n)]])
        super().__init__(topology, potential, vps, 1, block_edges)

    def __call__(self, theta: np.ndarray) -> np.ndarray:
        return super().__call__(theta[None])[0]


class TiledStackedCoupling:
    """Blocked coupling for a stack of members with *different* edge lists.

    Topology-axis batches have no shared ``(rows, cols)``, so the
    whole batch is treated as one block-diagonal graph on ``R * N``
    nodes: member ``r``'s edge ``(i, j)`` becomes the global edge
    ``(r*N + i, r*N + j)``.  Concatenating the per-member row-major
    edge lists in member order keeps the global list row-major, so the
    standard :class:`TilePlan` applies unchanged and every global row
    still accumulates inside one block in row-major edge order — the
    result is bit-identical to solving each member (or each
    same-topology group) separately.

    ``potentials`` is one callable per member; blocks spanning several
    members evaluate each member's contiguous edge segment with its own
    potential (elementwise, hence bit-equal to any grouped evaluation).
    """

    def __init__(
        self,
        n: int,
        rows_list: list[np.ndarray],
        cols_list: list[np.ndarray],
        potentials: list[Callable],
        vps_column: np.ndarray,
        block_edges: int = BLOCK_EDGES,
    ) -> None:
        n = int(n)
        r_count = len(rows_list)
        sizes = np.array([r.size for r in rows_list], dtype=np.intp)
        self._edge_offs = np.concatenate(([0], np.cumsum(sizes)))
        node_offs = np.arange(r_count, dtype=np.intp) * n
        self._grows = np.concatenate(
            [o + np.asarray(r, dtype=np.intp)
             for o, r in zip(node_offs, rows_list)])
        self._gcols = np.concatenate(
            [o + np.asarray(c, dtype=np.intp)
             for o, c in zip(node_offs, cols_list)])
        counts = np.bincount(self._grows, minlength=r_count * n)
        indptr = np.concatenate(([0], np.cumsum(counts)))
        self.plan = TilePlan(indptr, self._grows, r_count * n, block_edges)
        self._pots = list(potentials)
        self._vps = vps_column  # (R, 1)
        self._r = r_count
        self._n = n

    def __call__(self, theta: np.ndarray) -> np.ndarray:
        flat = np.ascontiguousarray(theta).reshape(-1)
        acc = np.zeros(self._r * self._n)
        grows, gcols, offs = self._grows, self._gcols, self._edge_offs
        for e0, e1, r0, r1, local in self.plan.blocks:
            d = flat[gcols[e0:e1]] - flat[grows[e0:e1]]
            v = np.empty(e1 - e0)
            m = int(np.searchsorted(offs, e0, side="right")) - 1
            s = e0
            while s < e1:
                stop = min(e1, int(offs[m + 1]))
                if stop > s:
                    v[s - e0 : stop - e0] = np.asarray(
                        self._pots[m](d[s - e0 : stop - e0]), dtype=float
                    )
                s = stop
                m += 1
            acc[r0:r1] += np.bincount(local, weights=v, minlength=r1 - r0)
        out = acc.reshape(self._r, self._n)
        out *= self._vps
        return out
