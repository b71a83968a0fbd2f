"""The stacked RHS backend: R realisations of Eq. 2 in one call.

Every solve integrates a stack of ``R`` frozen realisations as one
``(R, N)`` super-state: a single run is ``R = 1``, a seed ensemble or a
parameter grid is ``R > 1``.  Members may disagree on

* the coupling strength ``v_p`` (broadcast as an ``(R, 1)`` column),
* the cycle period ``T = t_comp + t_comm`` (idem),
* the interaction potential (members are grouped by potential value and
  each group is evaluated in one vectorised ``(k, E)`` pass),
* the one-off delay schedule (evaluated per member, or broadcast when
  all members share one),
* the noise realisation (stacked when the refresh grids agree).

Only the oscillator count ``N`` must be shared.  Members may even
disagree on the **topology** (a machine-design sweep over same-N
candidate networks): mixed batches run through a padded stacked
edge-list path — per-member edge lists concatenated with per-member
offsets, padded to the widest member, pads scattered into a discarded
overflow bin — whose per-row accumulation order is identical to
solving each topology group separately, so topology-axis fusion is
bit-for-bit identical to per-group shards.  Member rows never interact,
so each row of a stacked evaluation equals the ``R = 1`` evaluation of
that member bit for bit; this is what lets
:func:`repro.core.simulation.simulate_grid` integrate all grid points as
one super-state and fan exact per-point trajectories back out.

The inner coupling loop is delegated to a selectable *kernel*
(:mod:`repro.kernels`, ``kernel=`` knob):

* ``"numpy"`` — one flat gather over the super-state, one
  family-vectorised potential call, one flattened ``np.bincount``.
  Memory-bound at N ≳ a few thousand (every evaluation streams several
  ``(R, E)`` arrays).
* ``"tiled"`` — the same arithmetic blocked over row-aligned edge
  ranges so the scratch stays cache-resident; works for any potential,
  including ``CustomPotential`` groups.
* ``"cc"`` — the fused compiled kernel that evaluates the potential
  family inline per edge block (per-member ``(kind, p0, p1)``
  coefficients, so members may even mix families), eliminating the
  ``(R, E)`` round-trips entirely.

``"auto"`` prefers the compiled kernel whenever every member's potential
exposes kernel coefficients; ``CustomPotential`` members fall back to
the NumPy/tiled per-group paths.

For mixed-topology batches the ``"numpy"`` kernel uses the padded
stacked path and ``"tiled"`` a block-diagonal
:class:`~repro.kernels.tiled.TiledStackedCoupling`; the compiled kernel
has no mixed edge-list entry point and falls back to one compiled
sub-backend per topology group (one-time :class:`RuntimeWarning`) —
still bit-identical, one compiled call per group instead of one per
batch.

Delayed (DDE) evaluations patch each member's edge subset per distinct
delay level with the NumPy kernel, reading the ``(R, N)`` history.
"""

from __future__ import annotations

import warnings
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .. import kernels
from ..kernels import cc as cc_kernels

if TYPE_CHECKING:  # pragma: no cover
    from ..core.model import RealizedModel
    from ..integrate.history import HistoryBuffer

__all__ = ["HeteroBatchedBackend", "frequency_from_period", "same_topology"]


def frequency_from_period(denom: np.ndarray) -> np.ndarray:
    """``2*pi / denom`` with stalled processes mapped to frequency 0.

    A non-positive or infinite effective period means the process does
    not advance (the exact semantics of a full-stall injection).
    """
    freq = np.zeros_like(denom, dtype=float)
    good = np.isfinite(denom) & (denom > 0.0)
    freq[good] = 2.0 * np.pi / denom[good]
    return freq


#: one-time flag for the mixed-topology compiled-kernel fallback warning
_warned_mixed_compiled = False


def _warn_mixed_compiled(kernel: str) -> None:
    global _warned_mixed_compiled
    if _warned_mixed_compiled:
        return
    _warned_mixed_compiled = True
    warnings.warn(
        f"compiled kernel {kernel!r} has no mixed-topology entry point; "
        "evaluating this topology-axis batch as one compiled sub-backend "
        "per topology group (bit-identical, one kernel call per group). "
        'Use kernel="tiled" or kernel="numpy" for a single stacked pass.',
        RuntimeWarning, stacklevel=3)


def same_topology(a, b) -> bool:
    """Whether two topologies carry the identical directed edge set.

    Compared on the cached edge lists, never on the dense matrices —
    edge-backed large-N topologies (``ring_edges(1e5)``) must validate
    without densifying, and O(E) beats O(N^2) for every sparse case.
    """
    if a is b:
        return True
    if a.n != b.n:
        return False
    ra, ca = a.edge_list()
    rb, cb = b.edge_list()
    return np.array_equal(ra, rb) and np.array_equal(ca, cb)

#: potential classes whose behaviour is fully determined by describe()
_VALUE_KEYED_POTENTIALS = frozenset(
    {"TanhPotential", "BottleneckPotential", "KuramotoPotential",
     "LinearPotential"})


def _potential_key(potential) -> tuple:
    """Grouping key: members with equal keys share one vectorised call.

    The shipped potential classes are value types (their ``describe()``
    dict pins the behaviour), so separately-constructed-but-equal
    potentials merge into one group.  Unknown or custom potentials fall
    back to object identity — never merged unless literally shared.
    """
    cls = type(potential)
    if cls.__name__ in _VALUE_KEYED_POTENTIALS and \
            cls.__module__.endswith("core.potentials"):
        return (cls.__name__, tuple(sorted(potential.describe().items())))
    return ("id", id(potential))


class HeteroBatchedBackend:
    """Edge-list RHS over a stack of frozen realisations.

    Parameters
    ----------
    members:
        Frozen realisations sharing the oscillator count; everything
        else (topology, coupling strength, period, potential, noise,
        delay schedule) may vary per member.  States are ``(R, N)``
        arrays with one row per member.
    kernel:
        Coupling-loop kernel (see :mod:`repro.kernels`).
    threads:
        In-kernel thread count of the compiled kernel (bit-identical for
        any value); default: ``POM_NUM_THREADS``, else 1.
    """

    #: identifier used by the ``backend=`` knobs and reports
    name = "sparse"

    def __init__(self, members: Sequence["RealizedModel"],
                 kernel: str | None = "auto",
                 threads: int | None = None) -> None:
        if len(members) == 0:
            raise ValueError("need at least one batch member")
        first = members[0].model
        mixed = False
        for m in members[1:]:
            mm = m.model
            if mm.n != first.n:
                raise ValueError("batch members disagree on N")
            if not same_topology(mm.topology, first.topology):
                mixed = True
        self.members = tuple(members)
        self.model = first
        self._n = first.n
        self._r = len(members)
        self._mixed = mixed
        # Per-member parameter columns, broadcast against (R, N) states.
        self._periods = np.array(
            [m.model.period for m in members], dtype=float)[:, None]
        self._vps = np.array(
            [m.model.v_p / self._n for m in members], dtype=float)[:, None]
        # Per-member edge lists: identical (shared) arrays for a
        # homogeneous batch, one list per member for a topology-axis
        # batch.  The delayed path always iterates these.
        if mixed:
            per = [m.model.topology.edge_list() for m in self.members]
            self._rows = self._cols = None
        else:
            per = [first.topology.edge_list()] * self._r
            self._rows, self._cols = first.topology.edge_list()
        self._per_rows = [rc[0] for rc in per]
        self._per_cols = [rc[1] for rc in per]
        self._edge_sizes = [int(r.size) for r in self._per_rows]
        self._total_edges = int(sum(self._edge_sizes))
        self._zeta_stack = self._stack_zeta()
        self._has_delays = any(m.has_delays for m in self.members)
        # Delay schedules: broadcast one evaluation when all members
        # share the same schedule, else evaluate per member.
        scheds = [m.delay_schedule for m in self.members]
        self._scheds = scheds
        self._sched_empty = all(len(s.delays) == 0 for s in scheds)
        self._sched_shared = all(
            s.delays == scheds[0].delays and s.period == scheds[0].period
            for s in scheds[1:])
        # Potential groups: (row-index array, potential) pairs.
        groups: dict[tuple, list[int]] = {}
        for i, m in enumerate(self.members):
            groups.setdefault(_potential_key(m.model.potential), []).append(i)
        self._pot_groups = [
            (np.asarray(ix, dtype=np.intp), self.members[ix[0]].model.potential)
            for ix in groups.values()
        ]
        self._pots = [m.model.potential for m in self.members]
        # Family vectorisation: a parameterised potential family (e.g. a
        # sigma grid of BottleneckPotentials) broadcasts its parameters
        # as an (R, 1) column — one vectorised call instead of R groups.
        self._pot_stacked = None
        if len(self._pot_groups) > 1:
            self._pot_stacked = type(self._pots[0]).stack(self._pots) \
                if hasattr(type(self._pots[0]), "stack") else None
        # Constant across calls: no edges or no coupling in any member
        # means a zero interaction term.
        self._coupled = self._total_edges > 0 and bool(np.any(self._vps))
        self._kernel_request = kernels.normalize_kernel_name(kernel)
        self._threads_request = threads
        self._setup_kernel(kernel, threads)

    def _setup_kernel(self, kernel: str | None, threads: int | None) -> None:
        """Resolve the coupling kernel and build its dispatch state.

        Fused compiled kernels need per-member potential coefficients;
        tiled/numpy go through the Python potential callables.
        """
        self._coeffs = kernels.family_coefficients(self._pots)
        self.kernel = kernels.resolve_kernel(
            kernel, has_coefficients=self._coeffs is not None,
            n_edges=max(self._edge_sizes))
        self.threads = kernels.resolve_threads(threads)
        self._tiled = None
        self._stacked = None
        self._subs = None
        self._rows32 = self._cols32 = None
        if self._mixed:
            self._setup_mixed()
        elif self.kernel == "tiled":
            self._tiled = kernels.TiledBatchedCoupling(
                self.model.topology, self._edge_potential, self._vps, self._r)
        elif self.kernel == "cc":
            self._rows32 = np.ascontiguousarray(self._rows, dtype=np.int32)
            self._cols32 = np.ascontiguousarray(self._cols, dtype=np.int32)
            self._vps_flat = np.ascontiguousarray(self._vps.ravel())
            # Distance rings (the paper's halo exchanges) additionally
            # drop the gathers/scatters for contiguous shifted passes;
            # 2-D tori get the column-ring + per-row halo decomposition.
            self._ring_offsets = cc_kernels.ring_offsets(
                self._rows, self._cols, self._n)
            self._torus_halo = None
            if self._ring_offsets is None:
                self._torus_halo = cc_kernels.torus_halo(
                    self._rows, self._cols, self._n)
        elif self.kernel == "numpy":
            self._setup_gather()

    def _setup_mixed(self) -> None:
        """Dispatch setup for a topology-axis (mixed edge-list) batch.

        ``tiled`` gets the block-diagonal stacked kernel, the compiled
        kernel falls back to one sub-backend per topology group, and
        ``numpy`` the padded stacked gather/scatter of
        :meth:`_setup_gather`.
        """
        if self.kernel == "tiled":
            self._stacked = kernels.TiledStackedCoupling(
                self._n, self._per_rows, self._per_cols, self._pots,
                self._vps)
            return
        if self.kernel == "cc":
            _warn_mixed_compiled(self.kernel)
            groups: list[tuple[list[int], "RealizedModel"]] = []
            for i, m in enumerate(self.members):
                for idx, rep in groups:
                    if same_topology(m.model.topology, rep.model.topology):
                        idx.append(i)
                        break
                else:
                    groups.append(([i], m))
            self._subs = []
            for idx, _ in groups:
                # Topology-axis members arrive grouped (the planner
                # sorts by global index with topology as the outer
                # axis), so each group is usually a contiguous row
                # range — a slice keeps theta[sel] a view instead of a
                # fancy-index copy per RK4 stage.
                sel = (slice(idx[0], idx[-1] + 1)
                       if idx == list(range(idx[0], idx[-1] + 1))
                       else np.asarray(idx, dtype=np.intp))
                self._subs.append(
                    (sel,
                     HeteroBatchedBackend([self.members[i] for i in idx],
                                          kernel=self.kernel,
                                          threads=self._threads_request)))
            return
        self._setup_gather()

    def _setup_gather(self) -> None:
        """Flat gather/scatter indices for the numpy kernel.

        Member ``r``'s edge ``(i, j)`` reads the flattened ``(R*N,)``
        super-state at ``r*N + j`` and ``r*N + i`` and accumulates at
        ``r*N + i``, so one gather, one potential pass over ``(R, E)``
        and one bincount serve the whole stack.  For a topology-axis
        batch the per-member edge lists are padded to the widest member
        ``Emax``; pad slots gather the member's own element 0 twice (a
        guaranteed-finite ``d = 0``) and scatter into the discarded
        overflow bin ``R*N``, so padding never touches a real
        accumulator.
        """
        emax = max(self._edge_sizes)
        offsets = np.arange(self._r, dtype=np.intp) * self._n
        grows = np.empty((self._r, emax), dtype=np.intp)
        gcols = np.empty((self._r, emax), dtype=np.intp)
        scat = np.full((self._r, emax), self._r * self._n, dtype=np.intp)
        for r in range(self._r):
            e = self._edge_sizes[r]
            grows[r, :e] = offsets[r] + self._per_rows[r]
            gcols[r, :e] = offsets[r] + self._per_cols[r]
            grows[r, e:] = offsets[r]
            gcols[r, e:] = offsets[r]
            scat[r, :e] = offsets[r] + self._per_rows[r]
        self._grows, self._gcols = grows, gcols
        self._scatter = scat.ravel()
        self._bins = self._r * self._n + (1 if self._mixed else 0)

    def _stack_zeta(self) -> np.ndarray | None:
        """Stack member zeta realisations when they share a refresh grid."""
        procs = [m.zeta for m in self.members]
        z0 = procs[0]
        if all(z.dt == z0.dt and z.t0 == z0.t0
               and z.values.shape == z0.values.shape for z in procs):
            return np.stack([z.values for z in procs], axis=1)  # (m, R, N)
        return None

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of oscillators per member."""
        return self._n

    @property
    def n_members(self) -> int:
        """Batch size R."""
        return self._r

    @property
    def has_delays(self) -> bool:
        """True if any member carries interaction delays (cached)."""
        return self._has_delays

    def max_delay(self) -> float:
        """History horizon needed by the DDE integrator."""
        return max(m.max_delay() for m in self.members)

    def subset(self, idx: Sequence[int]) -> "HeteroBatchedBackend":
        """A backend over the member rows ``idx`` (for per-member re-steps).

        Used by the adaptive per-member step control: when a few stiff
        members reject a step the whole batch accepted, only those rows
        are re-integrated through a small subset backend.
        """
        return type(self)([self.members[int(i)] for i in idx],
                          kernel=self._kernel_request,
                          threads=self._threads_request)

    # ------------------------------------------------------------------
    def _delay_zeta(self, t: float) -> np.ndarray:
        """One-off-delay zeta contribution, shape ``(R, N)`` or ``(1, N)``."""
        if self._sched_shared:
            return self._scheds[0](t, self._n)[None, :]
        return np.stack([s(t, self._n) for s in self._scheds])

    def intrinsic_frequency(self, t: float) -> np.ndarray:
        """Stacked per-process frequencies, shape ``(R, N)``."""
        if self._zeta_stack is not None:
            k = int(np.floor((t - self.members[0].zeta.t0)
                             / self.members[0].zeta.dt))
            k = min(max(k, 0), self._zeta_stack.shape[0] - 1)
            zeta = self._zeta_stack[k]                       # (R, N)
        else:
            zeta = np.stack([m.zeta(t) for m in self.members])
        denom = self._periods + zeta
        if not self._sched_empty:
            denom = denom + self._delay_zeta(t)
        return frequency_from_period(denom)

    def _edge_potential(self, d_edge: np.ndarray) -> np.ndarray:
        """Evaluate each member's potential on its ``(E,)`` edge row.

        Members sharing a potential value are evaluated in one ``(k, E)``
        block; the elementwise arithmetic is identical to the per-row
        evaluation, so grouping never changes the result bits.
        """
        if len(self._pot_groups) == 1:
            return np.asarray(self._pot_groups[0][1](d_edge), dtype=float)
        if self._pot_stacked is not None:
            return np.asarray(self._pot_stacked(d_edge), dtype=float)
        out = np.empty_like(d_edge)
        for ix, pot in self._pot_groups:
            out[ix] = pot(d_edge[ix])
        return out

    def coupling(self, t: float, theta: np.ndarray,
                 history: "HistoryBuffer | None" = None) -> np.ndarray:
        """Stacked interaction terms for the super-state ``theta (R, N)``."""
        if not self._coupled:
            return np.zeros((self._r, self._n))

        if not self.has_delays or history is None:
            if self._subs is not None:
                # Mixed topologies under a compiled kernel: one compiled
                # sub-backend per topology group, rows scattered back.
                out = np.empty((self._r, self._n))
                for sel, sub in self._subs:
                    out[sel] = sub.coupling(t, theta[sel], None)
                return out
            if self._stacked is not None:
                return self._stacked(theta)
            if self._tiled is not None:
                return self._tiled(theta)
            if self._rows32 is not None:
                kinds, p0, p1 = self._coeffs
                theta = np.ascontiguousarray(theta, dtype=float)
                if self._ring_offsets is not None:
                    return cc_kernels.ring_batched(
                        self._ring_offsets, theta,
                        np.empty((self._r, self._n)), kinds, p0, p1,
                        self._vps_flat, threads=self.threads)
                if self._torus_halo is not None:
                    return cc_kernels.torus_batched(
                        self._torus_halo, theta,
                        np.empty((self._r, self._n)), kinds, p0, p1,
                        self._vps_flat, threads=self.threads)
                return cc_kernels.fused_batched(
                    self._rows32, self._cols32, theta,
                    np.empty((self._r, self._n)), kinds, p0, p1,
                    self._vps_flat, threads=self.threads)
            # One flat gather over the (R*N,) super-state, one
            # family-vectorised potential pass over (R, E), one bincount
            # (whose overflow bin swallows the pad slots of a mixed
            # batch).  Per-row accumulation order equals the per-member
            # edge order, whatever the stack.
            flat = theta.reshape(-1)
            d_edge = flat[self._gcols] - flat[self._grows]
            v_edge = self._edge_potential(d_edge)
            acc = np.bincount(self._scatter, weights=v_edge.ravel(),
                              minlength=self._bins)
            out = acc[:self._r * self._n].reshape(self._r, self._n)
            out *= self._vps
            return out

        # Delayed path: the history holds (R, N) super-states; each
        # member patches its own edge subset per distinct delay level
        # (per-member edge lists, so mixed topologies work unchanged).
        out = np.empty((self._r, self._n))
        for r, m in enumerate(self.members):
            rows, cols = self._per_rows[r], self._per_cols[r]
            th = theta[r]
            d_edge = th[cols] - th[rows]
            if m.has_delays:
                tau_edge = m.tau(t)[rows, cols]
                for v in np.unique(tau_edge):
                    if v == 0.0:
                        continue
                    delayed = history(t - float(v))[r]
                    sel = tau_edge == v
                    d_edge[sel] = delayed[cols[sel]] - th[rows[sel]]
            v_edge = np.asarray(self._pots[r](d_edge), dtype=float)
            out[r] = np.bincount(rows, weights=v_edge, minlength=self._n)
        out *= self._vps
        return out

    def rhs(self, t: float, theta: np.ndarray,
            history: "HistoryBuffer | None" = None) -> np.ndarray:
        """Full stacked right-hand side, shape ``(R, N)``."""
        return self.intrinsic_frequency(t) + self.coupling(t, theta, history)

    def make_ode_rhs(self):
        """Closure ``f(t, theta)`` for ODE solvers (requires no delays)."""
        if self.has_delays:
            raise ValueError(
                "batch has interaction delays; use make_dde_rhs with a history"
            )
        return lambda t, y: self.rhs(t, y, None)

    def make_dde_rhs(self, history: "HistoryBuffer"):
        """Closure ``f(t, theta)`` that reads delayed states from ``history``."""
        return lambda t, y: self.rhs(t, y, history)

    def make_em_drift(self):
        """Euler-Maruyama drift closure: noise-free intrinsic + coupling.

        The frozen zeta realisation is *excluded* from the drift (the
        Gaussian channel enters as true white noise through the
        diffusion term instead); one-off delay schedules stay in, per
        member.
        """
        if self.has_delays:
            raise ValueError("batch has interaction delays; EM is ODE-only")

        def drift(t: float, theta: np.ndarray) -> np.ndarray:
            if self._sched_empty:
                denom = self._periods
            else:
                denom = self._periods + self._delay_zeta(t)
            return frequency_from_period(denom) + self.coupling(t, theta, None)

        return drift

    def describe(self) -> dict:
        """Metadata dictionary used by exporters."""
        return {"backend": self.name, "n": self._n, "members": self._r,
                "potential_groups": len(self._pot_groups),
                "mixed_topologies": self._mixed,
                "kernel": self.kernel, "threads": self.threads}
