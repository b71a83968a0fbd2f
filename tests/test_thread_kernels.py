"""Thread-parallel kernel suite: bit-equality with serial, knob plumbing.

The contract: the in-kernel thread count (``threads=`` /
``POM_NUM_THREADS``) steers wall-clock only — the compiled kernel
(single states as R=1 stacks and batches, generic edge-list / ring /
torus paths) must produce *bit-identical* results for any thread count,
because each thread accumulates disjoint output rows in the serial
per-row order.  Also covers the 2-D torus halo detection feeding the
specialised compiled path and the one-time ``CustomPotential``
compiled-kernel fallback warning.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import kernels
from repro.backends import make_batched_backend
from repro.core import (
    BottleneckPotential,
    CustomPotential,
    KuramotoPotential,
    LinearPotential,
    PhysicalOscillatorModel,
    TanhPotential,
    random_topology,
    ring,
    simulate,
    torus2d,
)
from repro.kernels import cc as cc_kernels
from repro.kernels.coeffs import family_coefficients

needs_cc = pytest.mark.skipif(not kernels.cc_available(),
                              reason="no working C compiler")
COMPILED = [pytest.param("cc", marks=needs_cc)]

TOPOLOGIES = [
    pytest.param(lambda: ring(96, (1, -1)), id="ring"),
    pytest.param(lambda: ring(97, (1, -1, -2)), id="ring-asym"),
    pytest.param(lambda: torus2d(8, 7), id="torus"),
    pytest.param(lambda: random_topology(
        60, 0.08, rng=np.random.default_rng(5)), id="edges"),
]

POTENTIALS = [
    pytest.param(lambda: TanhPotential(1.3), id="tanh"),
    pytest.param(lambda: BottleneckPotential(0.8), id="bottleneck"),
    pytest.param(lambda: KuramotoPotential(), id="kuramoto"),
    pytest.param(lambda: LinearPotential(0.6), id="linear"),
]


def _model(topo, pot, **kw):
    return PhysicalOscillatorModel(topology=topo, potential=pot,
                                   t_comp=0.9, t_comm=0.1, **kw)


def _realize(topo, pot, seed=0, **kw):
    return _model(topo, pot).realize(10.0, rng=seed, **kw)


def _single(realized, **kw):
    """The edge-list backend over one member (an R=1 stack)."""
    return make_batched_backend([realized], "sparse", **kw)


# ----------------------------------------------------------------------
# knob resolution
# ----------------------------------------------------------------------
class TestResolveThreads:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(kernels.THREADS_ENV_VAR, raising=False)
        assert kernels.resolve_threads() == 1

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(kernels.THREADS_ENV_VAR, "8")
        assert kernels.resolve_threads(3) == 3

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv(kernels.THREADS_ENV_VAR, "5")
        assert kernels.resolve_threads() == 5

    @pytest.mark.parametrize("bad", ["0", "-2", "four", "2.5"])
    def test_invalid_env_raises(self, monkeypatch, bad):
        monkeypatch.setenv(kernels.THREADS_ENV_VAR, bad)
        with pytest.raises(ValueError, match=kernels.THREADS_ENV_VAR):
            kernels.resolve_threads()

    def test_invalid_explicit_raises(self):
        with pytest.raises(ValueError):
            kernels.resolve_threads(0)

    def test_read_at_call_time(self, monkeypatch):
        # The worker-initializer pinning contract: no import-time cache.
        monkeypatch.setenv(kernels.THREADS_ENV_VAR, "2")
        assert kernels.resolve_threads() == 2
        monkeypatch.setenv(kernels.THREADS_ENV_VAR, "6")
        assert kernels.resolve_threads() == 6


# ----------------------------------------------------------------------
# torus halo detection
# ----------------------------------------------------------------------
class TestTorusHalo:
    @pytest.mark.parametrize("rows,cols", [(8, 7), (5, 5), (2, 6), (6, 2),
                                           (16, 3), (3, 16)])
    def test_detects_torus(self, rows, cols):
        topo = torus2d(rows, cols)
        r, c = topo.edge_list()
        assert cc_kernels.ring_offsets(r, c, topo.n) is None
        halo = cc_kernels.torus_halo(r, c, topo.n)
        assert halo is not None
        w, col_offsets, row_dxs = halo
        # The detected lattice row width is torus2d's first extent.
        assert w == rows
        # Column passes are whole-lattice modular shifts; row passes
        # wrap within a row: together they cover 4 neighbours (2 for
        # width/height 2, where +1 and -1 coincide).
        assert len(col_offsets) + len(row_dxs) >= 2

    def test_ring_is_not_a_torus(self):
        topo = ring(24, (1, -1))
        r, c = topo.edge_list()
        # The ring specialisation owns this case.
        assert cc_kernels.ring_offsets(r, c, topo.n) is not None
        assert cc_kernels.torus_halo(r, c, topo.n) is None

    def test_random_topology_is_not_a_torus(self):
        topo = random_topology(40, 0.1, rng=np.random.default_rng(3))
        r, c = topo.edge_list()
        assert cc_kernels.torus_halo(r, c, topo.n) is None

    def test_more_offsets_than_block_is_left_to_edge_kernel(self):
        # torus2d(5, 7) has two lattice offsets and two row dxs: a block
        # of three could not hold one element's differences.
        topo = torus2d(5, 7)
        r, c = topo.edge_list()
        assert cc_kernels.torus_halo(r, c, topo.n, block=4) is not None
        assert cc_kernels.torus_halo(r, c, topo.n, block=3) is None


# ----------------------------------------------------------------------
# bit-equality: threads=K vs serial
# ----------------------------------------------------------------------
class TestThreadInvariance:
    @pytest.mark.parametrize("kernel", COMPILED)
    @pytest.mark.parametrize("topo_f", TOPOLOGIES)
    @pytest.mark.parametrize("pot_f", POTENTIALS)
    def test_single_state_bits(self, kernel, topo_f, pot_f):
        topo, pot = topo_f(), pot_f()
        rng = np.random.default_rng(11)
        serial = _single(_realize(topo, pot), kernel=kernel, threads=1)
        parallel = _single(_realize(topo, pot), kernel=kernel, threads=4)
        for _ in range(5):
            theta = rng.uniform(-2 * np.pi, 2 * np.pi, (1, topo.n))
            np.testing.assert_array_equal(
                serial.coupling(0.0, theta), parallel.coupling(0.0, theta))

    @pytest.mark.parametrize("kernel", COMPILED)
    @pytest.mark.parametrize("topo_f", TOPOLOGIES)
    def test_batched_bits(self, kernel, topo_f):
        topo = topo_f()
        # Mixed potential families: per-member coefficient dispatch.
        members = [_realize(topo, TanhPotential(1.0 + 0.1 * i), seed=i)
                   for i in range(3)]
        members += [_realize(topo, BottleneckPotential(0.9), seed=7)]
        serial = make_batched_backend(members, kernel=kernel, threads=1)
        parallel = make_batched_backend(members, kernel=kernel, threads=4)
        rng = np.random.default_rng(13)
        for _ in range(5):
            theta = rng.uniform(-2 * np.pi, 2 * np.pi, (4, topo.n))
            np.testing.assert_array_equal(
                serial.coupling(0.0, theta), parallel.coupling(0.0, theta))

    @pytest.mark.parametrize("kernel", COMPILED)
    def test_odd_thread_counts(self, kernel):
        topo = ring(101, (1, -1, 2))
        be = {t: _single(_realize(topo, TanhPotential()), kernel=kernel,
                         threads=t)
              for t in (1, 3, 7, 16)}
        theta = np.random.default_rng(17).uniform(-np.pi, np.pi, (1, topo.n))
        ref = be[1].coupling(0.0, theta)
        for t in (3, 7, 16):
            np.testing.assert_array_equal(ref, be[t].coupling(0.0, theta))

    @pytest.mark.parametrize("kernel", COMPILED)
    def test_torus_matches_numpy(self, kernel):
        # The specialised torus path against the reference segment sum.
        topo = torus2d(9, 6)
        pot = BottleneckPotential(0.7)
        compiled = _single(_realize(topo, pot), kernel=kernel, threads=2)
        reference = _single(_realize(topo, pot), kernel="numpy")
        theta = np.random.default_rng(19).uniform(-np.pi, np.pi, (1, topo.n))
        np.testing.assert_allclose(compiled.coupling(0.0, theta),
                                   reference.coupling(0.0, theta),
                                   rtol=1e-12, atol=1e-13)

    @needs_cc
    def test_simulate_end_to_end_bits(self):
        model = _model(ring(64, (1, -1)), TanhPotential())
        t1 = simulate(model, 5.0, seed=3, kernel="cc", threads=1)
        t4 = simulate(model, 5.0, seed=3, kernel="cc", threads=4)
        np.testing.assert_array_equal(t1.thetas, t4.thetas)

    @needs_cc
    def test_env_knob_reaches_backend(self, monkeypatch):
        monkeypatch.setenv(kernels.THREADS_ENV_VAR, "3")
        be = _single(_realize(ring(32, (1, -1)), TanhPotential()),
                     kernel="cc")
        assert be.threads == 3
        assert be.describe()["threads"] == 3


# ----------------------------------------------------------------------
# tile invariance: the ring/torus tile length is a pure wall-clock knob
# ----------------------------------------------------------------------
HALO_TOPOLOGIES = [
    *(pytest.param(lambda n=n, d=d: ring(n, d), id=f"ring{n}-{len(d)}dist")
      for n in (5, 24, 32, 100) for d in ((1, -1), (1, -1, 2, -2, 7))),
    *(pytest.param(lambda a=a, b=b: torus2d(a, b), id=f"torus{a}x{b}")
      for a, b in ((4, 4), (5, 7), (16, 16), (3, 64))),
]


def _halo_direct(topo, thetas, coeffs, block, threads):
    """``pom_fused_{ring,torus}_batched`` with an explicit block and team.

    The scratch holds ``threads`` blocks, as the Python wrappers
    allocate it for ``BLOCK_EDGES``.
    """
    rows, cols = topo.edge_list()
    offs = cc_kernels.ring_offsets(rows, cols, topo.n)
    lib = cc_kernels.load_library()
    out = np.full_like(thetas, np.nan)
    sd = cc_kernels._aligned_empty(threads * block)
    sv = cc_kernels._aligned_empty(threads * block)
    r, n = thetas.shape
    tail = (thetas.ctypes.data, out.ctypes.data, r, n,
            *(a.ctypes.data for a in coeffs), sd.ctypes.data,
            sv.ctypes.data, block, threads)
    if offs is not None:
        lib.pom_fused_ring_batched(offs.ctypes.data, offs.size, *tail)
    else:
        w, col_offs, row_dxs = cc_kernels.torus_halo(rows, cols, topo.n)
        lib.pom_fused_torus_batched(col_offs.ctypes.data, col_offs.size,
                                    row_dxs.ctypes.data, row_dxs.size, w,
                                    *tail)
    return out


def _halo_default(topo, thetas, coeffs):
    """The public wrapper: ``BLOCK_EDGES``, serial."""
    rows, cols = topo.edge_list()
    offs = cc_kernels.ring_offsets(rows, cols, topo.n)
    out = np.empty_like(thetas)
    if offs is not None:
        return cc_kernels.ring_batched(offs, thetas, out, *coeffs)
    halo = cc_kernels.torus_halo(rows, cols, topo.n)
    return cc_kernels.torus_batched(halo, thetas, out, *coeffs)


@needs_cc
class TestTileInvariance:
    BLOCKS = (64, 192, cc_kernels.BLOCK_EDGES)

    def _check(self, topo, pots, seed):
        members = [_realize(topo, pot, seed=i) for i, pot in enumerate(pots)]
        kinds, p0, p1 = family_coefficients(pots)
        vp = np.array([m.model.v_p / topo.n for m in members])
        coeffs = (kinds, p0, p1, vp)
        thetas = np.random.default_rng(seed).uniform(
            -2 * np.pi, 2 * np.pi, (len(pots), topo.n))
        ref = _halo_default(topo, thetas, coeffs)
        for block in self.BLOCKS:
            for threads in (1, 2):
                np.testing.assert_array_equal(
                    _halo_direct(topo, thetas, coeffs, block, threads), ref,
                    err_msg=f"block={block} threads={threads}")
        numpy = make_batched_backend(members, "sparse", kernel="numpy")
        np.testing.assert_allclose(ref, numpy.coupling(0.0, thetas),
                                   rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("topo_f", HALO_TOPOLOGIES)
    @pytest.mark.parametrize("pot_f", POTENTIALS)
    def test_single_member(self, topo_f, pot_f):
        # R=1: threads=2 splits the member's rows between two chunks.
        self._check(topo_f(), [pot_f()], seed=23)

    @pytest.mark.parametrize("topo_f", HALO_TOPOLOGIES)
    def test_mixed_kinds_stack(self, topo_f):
        pots = [TanhPotential(1.3), BottleneckPotential(0.8),
                KuramotoPotential(), LinearPotential(0.6)]
        self._check(topo_f(), pots, seed=29)


# ----------------------------------------------------------------------
# CustomPotential compiled-kernel fallback warning
# ----------------------------------------------------------------------
class TestCoefficientFallbackWarning:
    @pytest.fixture(autouse=True)
    def _reset_once_flag(self, monkeypatch):
        monkeypatch.setattr(kernels, "_warned_coefficient_fallback", False)

    @pytest.mark.skipif(kernels.compiled_kernel_name() is None,
                        reason="no compiled kernel available")
    def test_warns_once_per_process(self):
        pot = CustomPotential(np.sin, name="sin")
        with pytest.warns(RuntimeWarning, match="CustomPotential"):
            _single(_realize(ring(16, (1, -1)), pot))
        # Second resolution stays silent (flag already tripped).
        import warnings as _warnings
        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            _single(_realize(ring(16, (1, -1)), pot))

    def test_no_warning_with_coefficients(self):
        import warnings as _warnings
        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            _single(_realize(ring(16, (1, -1)), TanhPotential()))
