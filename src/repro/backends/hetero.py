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

The oscillator count ``N`` and the **topology** (one directed edge
set) must be shared; a batch that disagrees on either raises.  A
machine-design sweep over candidate networks is planned as one stack
per topology value (:func:`repro.runs.compile_plan`).  Member rows
never interact, so each row of a stacked evaluation equals the
``R = 1`` evaluation of that member bit for bit; this is what lets
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

Delayed (DDE) evaluations patch each member's edge subset per distinct
delay level with the NumPy kernel, reading the ``(R, N)`` history.
"""

from __future__ import annotations

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
        Frozen realisations sharing the oscillator count and the
        topology; everything else (coupling strength, period,
        potential, noise, delay schedule) may vary per member.  States
        are ``(R, N)`` arrays with one row per member.
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
        for m in members[1:]:
            mm = m.model
            if mm.n != first.n:
                raise ValueError("batch members disagree on N")
            if not same_topology(mm.topology, first.topology):
                raise ValueError(
                    "batch members disagree on topology "
                    f"({first.topology.name!r} vs {mm.topology.name!r}); "
                    "run a topology axis through repro.runs.run_spec, "
                    "which plans one shard per topology")
        self.members = tuple(members)
        self.model = first
        self._n = first.n
        self._r = len(members)
        # Per-member parameter columns, broadcast against (R, N) states.
        self._periods = np.array(
            [m.model.period for m in members], dtype=float)[:, None]
        self._vps = np.array(
            [m.model.v_p / self._n for m in members], dtype=float)[:, None]
        self._rows, self._cols = first.topology.edge_list()
        self._zeta_stack = self._stack_zeta()
        self._zeta_t0 = members[0].zeta.t0
        self._zeta_dt = members[0].zeta.dt
        self._freq_cache: tuple[int, np.ndarray] | None = None
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
        self._coupled = self._rows.size > 0 and bool(np.any(self._vps))
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
            n_edges=self._rows.size)
        self.threads = kernels.resolve_threads(threads)
        self._tiled = None
        self._rows32 = self._cols32 = None
        if self.kernel == "tiled":
            self._tiled = kernels.TiledBatchedCoupling(
                self.model.topology, self._edge_potential, self._vps, self._r)
        elif self.kernel == "cc":
            self._cc_threads = cc_kernels.clamp_threads(self.threads)
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

    def _setup_gather(self) -> None:
        """Flat gather/scatter indices for the numpy kernel.

        Member ``r``'s edge ``(i, j)`` reads the flattened ``(R*N,)``
        super-state at ``r*N + j`` and ``r*N + i`` and accumulates at
        ``r*N + i``, so one gather, one potential pass over ``(R, E)``
        and one bincount serve the whole stack.
        """
        offsets = np.arange(self._r, dtype=np.intp)[:, None] * self._n
        self._grows = offsets + self._rows
        self._gcols = offsets + self._cols
        self._scatter = self._grows.ravel()

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
        """Stacked per-process frequencies, shape ``(R, N)``.

        Without one-off delays the frequency is piecewise constant over
        the noise windows, so the last window's array is cached and
        returned (read-only) until ``t`` leaves that window.
        """
        if self._zeta_stack is not None:
            k = int(np.floor((t - self._zeta_t0) / self._zeta_dt))
            k = min(max(k, 0), self._zeta_stack.shape[0] - 1)
            if self._sched_empty:
                cached = self._freq_cache
                if cached is not None and cached[0] == k:
                    return cached[1]
                freq = frequency_from_period(
                    self._periods + self._zeta_stack[k])
                freq.flags.writeable = False
                self._freq_cache = (k, freq)
                return freq
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
            if self._tiled is not None:
                return self._tiled(theta)
            if self._rows32 is not None:
                kinds, p0, p1 = self._coeffs
                theta = np.ascontiguousarray(theta, dtype=float)
                if self._ring_offsets is not None:
                    return cc_kernels.ring_batched(
                        self._ring_offsets, theta,
                        np.empty((self._r, self._n)), kinds, p0, p1,
                        self._vps_flat, threads=self._cc_threads)
                if self._torus_halo is not None:
                    return cc_kernels.torus_batched(
                        self._torus_halo, theta,
                        np.empty((self._r, self._n)), kinds, p0, p1,
                        self._vps_flat, threads=self._cc_threads)
                return cc_kernels.fused_batched(
                    self._rows32, self._cols32, theta,
                    np.empty((self._r, self._n)), kinds, p0, p1,
                    self._vps_flat, threads=self._cc_threads)
            # One flat gather over the (R*N,) super-state, one
            # family-vectorised potential pass over (R, E), one bincount.
            # Per-row accumulation order equals the member's edge order,
            # whatever the stack.
            flat = theta.reshape(-1)
            d_edge = flat[self._gcols] - flat[self._grows]
            v_edge = self._edge_potential(d_edge)
            acc = np.bincount(self._scatter, weights=v_edge.ravel(),
                              minlength=self._r * self._n)
            out = acc.reshape(self._r, self._n)
            out *= self._vps
            return out

        # Delayed path: the history holds (R, N) super-states; each
        # member patches its own edge subset per distinct delay level.
        rows, cols = self._rows, self._cols
        out = np.empty((self._r, self._n))
        for r, m in enumerate(self.members):
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

    def make_stepper(self, method: str) -> "cc_kernels.FixedStepper | None":
        """The compiled fixed-step stepper for this stack, or ``None``.

        Binds every array address once and returns a
        :class:`~repro.kernels.cc.FixedStepper` that advances ``K``
        ``method`` steps per C call, bit-identical to
        :func:`~repro.integrate.solve_rk4` / ``solve_euler`` over
        :meth:`make_ode_rhs`.  ``None`` when it cannot apply: a method
        other than rk4/euler, a kernel other than ``cc`` (including the
        dense reference backend), interaction delays, members on
        different noise grids, or a one-off delay schedule.
        """
        if (method not in cc_kernels.STEPPER_METHODS or self.kernel != "cc"
                or self._has_delays or self._zeta_stack is None
                or not self._sched_empty):
            return None
        kinds, p0, p1 = self._coeffs
        return cc_kernels.FixedStepper(
            method, kinds=kinds, p0=p0, p1=p1, vp_over_n=self._vps_flat,
            periods=self._periods, zeta=self._zeta_stack,
            zeta_t0=self._zeta_t0, zeta_dt=self._zeta_dt,
            coupled=self._coupled, threads=self._cc_threads,
            ring=self._ring_offsets, torus=self._torus_halo,
            edges=(self._rows32, self._cols32))

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
                "kernel": self.kernel, "threads": self.threads}
