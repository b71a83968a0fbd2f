"""Kernel-equivalence suite: numpy vs tiled vs compiled coupling kernels.

Every selectable kernel must produce the same coupling term (to ~1e-12)
as the reference NumPy edge-list path, on ring/torus/random topologies,
for single states (R=1 stacks), seed ensembles and heterogeneous grids —
including the ``CustomPotential`` per-group fallback that the
coefficient-based compiled kernel cannot express.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import kernels
from repro.backends import HeteroBatchedBackend, make_batched_backend
from repro.core import (
    BottleneckPotential,
    CustomPotential,
    KuramotoPotential,
    LinearPotential,
    PhysicalOscillatorModel,
    TanhPotential,
    chain,
    random_topology,
    ring,
    ring_edges,
    simulate,
    torus2d,
    torus2d_edges,
)
from repro.kernels import cc as cc_kernels
from repro.kernels.coeffs import eval_coefficients, family_coefficients

needs_cc = pytest.mark.skipif(not kernels.cc_available(),
                              reason="no working C compiler")

def _kernel_params():
    params = [pytest.param("numpy", id="numpy"), pytest.param("tiled", id="tiled")]
    params.append(pytest.param("cc", id="cc", marks=needs_cc))
    return params


TOPOLOGIES = [
    pytest.param(lambda: ring(96, (1, -1)), id="ring"),
    pytest.param(lambda: ring(97, (1, -1, -2)), id="ring-asym"),
    pytest.param(lambda: torus2d(8, 7), id="torus"),
    pytest.param(lambda: random_topology(
        60, 0.08, rng=np.random.default_rng(5)), id="random"),
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


def _coupling_r1(model, kernel, theta):
    """Coupling term of one state through the edge-list backend at R=1."""
    realized = model.realize(5.0, rng=0, backend="sparse", kernel=kernel)
    return realized.coupling_term(0.0, theta)


# ----------------------------------------------------------------------
# registry / resolution
# ----------------------------------------------------------------------
class TestResolution:
    def test_available_names(self):
        assert kernels.available_kernels() == ("auto", "numpy", "tiled", "cc")

    def test_unknown_kernel_rejected_everywhere(self):
        for name in ("fortran", "numba"):
            with pytest.raises(ValueError, match="unknown kernel"):
                kernels.normalize_kernel_name(name)
            with pytest.raises(ValueError, match="unknown kernel"):
                _model(ring(8), TanhPotential(), kernel=name)
            with pytest.raises(ValueError, match="unknown kernel"):
                simulate(_model(ring(8), TanhPotential()), 1.0, kernel=name)

    def test_auto_prefers_compiled_with_coefficients(self):
        resolved = kernels.resolve_kernel(
            "auto", has_coefficients=True, n_edges=16)
        if kernels.cc_available():
            assert resolved == "cc"
        else:
            assert resolved == "numpy"

    def test_auto_custom_potential_falls_back(self):
        small = kernels.resolve_kernel(
            "auto", has_coefficients=False, n_edges=16)
        large = kernels.resolve_kernel(
            "auto", has_coefficients=False,
            n_edges=kernels.TILED_AUTO_MIN_EDGES)
        assert small == "numpy"
        assert large == "tiled"

    def test_explicit_compiled_without_coefficients_raises(self):
        with pytest.raises((ValueError, RuntimeError)):
            kernels.resolve_kernel("cc", has_coefficients=False, n_edges=16)

    def test_dense_backend_rejects_explicit_kernel(self):
        realized = _model(ring(16), TanhPotential()).realize(1.0, rng=0)
        with pytest.raises(ValueError, match="does not support"):
            make_batched_backend([realized], "dense", kernel="tiled")
        # "auto" composes with every backend
        make_batched_backend([realized], "dense", kernel="auto")

    def test_explicit_kernel_steers_auto_backend_to_sparse(self):
        # ring(6) is dense by the density rule; an explicit kernel is a
        # request for the edge-list path and must not crash on it.
        model = _model(ring(6), TanhPotential())
        realized = model.realize(1.0, rng=0, kernel="tiled")
        assert realized.backend.name == "sparse"
        assert realized.backend.kernel == "tiled"
        # without a kernel request, density still picks dense
        assert model.realize(1.0, rng=0).backend.name == "dense"

    def test_model_field_and_describe(self):
        model = _model(ring(16), TanhPotential(), kernel="tiled")
        assert model.describe()["kernel"] == "tiled"
        backend = model.realize(1.0, rng=0, backend="sparse").backend
        assert backend.kernel == "tiled"
        assert backend.describe()["kernel"] == "tiled"


# ----------------------------------------------------------------------
# coefficients
# ----------------------------------------------------------------------
class TestCoefficients:
    @pytest.mark.parametrize("make_pot", POTENTIALS)
    def test_eval_matches_potential(self, make_pot):
        pot = make_pot()
        kind, p0, p1 = pot.kernel_coefficients()
        d = np.linspace(-4.0, 4.0, 513)
        np.testing.assert_array_equal(
            eval_coefficients(kind, p0, p1, d.copy()),
            np.asarray(pot(d), dtype=float))

    def test_custom_potential_has_no_coefficients(self):
        pot = CustomPotential(lambda d: np.tanh(d), "wrapped-tanh")
        assert pot.kernel_coefficients() is None
        assert family_coefficients([TanhPotential(), pot]) is None

    def test_family_coefficients_mixes_families(self):
        pots = [TanhPotential(2.0), BottleneckPotential(1.5),
                KuramotoPotential(), LinearPotential(0.3)]
        kinds, p0, p1 = family_coefficients(pots)
        assert kinds.tolist() == [0, 1, 2, 3]
        assert p0[0] == 2.0 and p0[1] == 1.5 and p0[3] == 0.3


# ----------------------------------------------------------------------
# single-state equivalence
# ----------------------------------------------------------------------
class TestSingleEquivalence:
    @pytest.mark.parametrize("kernel", _kernel_params())
    @pytest.mark.parametrize("make_topo", TOPOLOGIES)
    @pytest.mark.parametrize("make_pot", POTENTIALS)
    def test_coupling_matches_numpy(self, make_topo, make_pot, kernel):
        topo = make_topo()
        model = _model(topo, make_pot())
        theta = np.random.default_rng(1).normal(0.0, 1.0, topo.n)
        ref = _coupling_r1(model, "numpy", theta)
        out = _coupling_r1(model, kernel, theta)
        np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("kernel", _kernel_params())
    def test_custom_potential(self, kernel):
        pot = CustomPotential(lambda d: np.tanh(d) + 0.05 * d, "mix")
        model = _model(ring(64), pot)
        theta = np.random.default_rng(2).normal(0.0, 1.0, 64)
        ref = _coupling_r1(model, "numpy", theta)
        if kernel == "cc":
            with pytest.raises(ValueError, match="kernel coefficients"):
                _coupling_r1(model, kernel, theta)
            return
        out = _coupling_r1(model, kernel, theta)
        np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-13)


# ----------------------------------------------------------------------
# batched / hetero equivalence
# ----------------------------------------------------------------------
class TestBatchedEquivalence:
    @pytest.mark.parametrize("kernel", _kernel_params())
    @pytest.mark.parametrize("make_topo", TOPOLOGIES)
    def test_homogeneous_batch(self, make_topo, kernel):
        from repro.core import GaussianJitter

        topo = make_topo()
        model = _model(topo, TanhPotential(),
                       local_noise=GaussianJitter(std=0.02, refresh=0.5))
        members = [model.realize(5.0, rng=s, backend="sparse")
                   for s in range(5)]
        thetas = np.random.default_rng(3).normal(0.0, 1.0, (5, topo.n))
        ref = np.stack([m.coupling_term(0.0, thetas[i])
                        for i, m in enumerate(members)])
        out = HeteroBatchedBackend(members, kernel=kernel).coupling(0.0, thetas)
        np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("kernel", _kernel_params())
    def test_hetero_mixed_families(self, kernel):
        topo = ring(80, (1, -1))
        pots = [TanhPotential(0.5), BottleneckPotential(1.1),
                KuramotoPotential(), LinearPotential(0.8),
                BottleneckPotential(2.0)]
        models = [_model(topo, p, v_p_override=0.05 * (i + 1))
                  for i, p in enumerate(pots)]
        members = [m.realize(5.0, rng=7) for m in models]
        thetas = np.random.default_rng(4).normal(0.0, 1.0, (5, 80))
        ref = np.stack([m.coupling_term(0.0, thetas[i])
                        for i, m in enumerate(members)])
        backend = HeteroBatchedBackend(members, kernel=kernel)
        np.testing.assert_allclose(backend.coupling(0.0, thetas), ref,
                                   rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("kernel", ["auto", "numpy", "tiled"])
    def test_hetero_custom_potential_fallback(self, kernel):
        """CustomPotential groups (no Potential.stack, no coefficients)."""
        topo = ring(48, (1, -1))
        pots = [TanhPotential(),
                CustomPotential(lambda d: 0.5 * np.sin(d), "half-sin"),
                CustomPotential(lambda d: np.arctan(d), "atan")]
        models = [_model(topo, p) for p in pots]
        members = [m.realize(5.0, rng=2) for m in models]
        thetas = np.random.default_rng(5).normal(0.0, 1.0, (3, 48))
        ref = np.stack([m.coupling_term(0.0, thetas[i])
                        for i, m in enumerate(members)])
        backend = HeteroBatchedBackend(members, kernel=kernel)
        assert backend.kernel in ("numpy", "tiled")
        np.testing.assert_allclose(backend.coupling(0.0, thetas), ref,
                                   rtol=1e-12, atol=1e-13)

    def test_hetero_custom_potential_compiled_raises(self):
        topo = ring(48, (1, -1))
        members = [_model(topo, CustomPotential(np.sin, "sin")).realize(
            5.0, rng=0)]
        with pytest.raises((ValueError, RuntimeError)):
            HeteroBatchedBackend(members, kernel="cc")

    def test_subset_propagates_kernel(self):
        topo = ring(48, (1, -1))
        members = [_model(topo, TanhPotential()).realize(5.0, rng=s)
                   for s in range(4)]
        backend = HeteroBatchedBackend(members, kernel="tiled")
        sub = backend.subset([1, 3])
        assert sub.kernel == "tiled"

    def test_make_batched_backend_kernel_knob(self):
        topo = ring(48, (1, -1))
        members = [_model(topo, TanhPotential()).realize(5.0, rng=s)
                   for s in range(3)]
        backend = make_batched_backend(members, kernel="tiled")
        assert backend.kernel == "tiled"


# ----------------------------------------------------------------------
# tile plan
# ----------------------------------------------------------------------
class TestTilePlan:
    @pytest.mark.parametrize("block_edges", [1, 3, 7, 64, 10_000])
    def test_blocks_cover_all_edges_row_aligned(self, block_edges):
        topo = random_topology(40, 0.15, rng=np.random.default_rng(9))
        indptr, _ = topo.csr()
        rows, _ = topo.edge_list()
        plan = kernels.TilePlan(indptr, rows, topo.n, block_edges)
        covered_edges = 0
        prev_r1 = 0
        for e0, e1, r0, r1, local in plan.blocks:
            assert r0 == prev_r1          # contiguous row coverage
            assert (e0, e1) == (int(indptr[r0]), int(indptr[r1]))
            assert local.min() >= 0 and local.max() < r1 - r0
            covered_edges += e1 - e0
            prev_r1 = r1
        assert covered_edges == topo.n_edges

    def test_invalid_block_size(self):
        topo = ring(16)
        indptr, _ = topo.csr()
        with pytest.raises(ValueError):
            kernels.TilePlan(indptr, topo.edge_list()[0], topo.n, 0)


# ----------------------------------------------------------------------
# ring specialisation (cc kernel)
# ----------------------------------------------------------------------
class TestRingOffsets:
    def test_detects_rings(self):
        for dists in ((1, -1), (1, -1, -2), (3, 5)):
            topo = ring(37, dists)
            rows, cols = topo.edge_list()
            offs = cc_kernels.ring_offsets(rows, cols, topo.n)
            assert offs is not None
            assert sorted(offs.tolist()) == sorted(
                {d % 37 for d in set(dists) | {-d for d in dists}})

    def test_rejects_non_rings(self):
        for topo in (chain(24, (1, -1)),
                     random_topology(24, 0.2,
                                     rng=np.random.default_rng(1))):
            rows, cols = topo.edge_list()
            assert cc_kernels.ring_offsets(rows, cols, topo.n) is None

    def test_more_offsets_than_block_is_left_to_edge_kernel(self):
        # Four offsets need a tile of at least one element, i.e. a block
        # of at least four differences; with less the ring is served by
        # the edge-list kernel (the torus detection declines a pure ring).
        topo = ring(24, (1, -1, 2, -2))
        rows, cols = topo.edge_list()
        assert cc_kernels.ring_offsets(rows, cols, topo.n, block=4).size == 4
        assert cc_kernels.ring_offsets(rows, cols, topo.n, block=3) is None
        assert cc_kernels.torus_halo(rows, cols, topo.n, block=3) is None


# ----------------------------------------------------------------------
# edge-backed topologies at (moderately) large N
# ----------------------------------------------------------------------
class TestEdgeBackedTopology:
    def test_ring_edges_matches_ring(self):
        for dists in ((1, -1), (1, -1, -2)):
            dense, edged = ring(50, dists), ring_edges(50, dists)
            np.testing.assert_array_equal(dense.matrix, edged.matrix)
            assert dense.name == edged.name
            assert dense.distances == edged.distances
            assert edged.is_symmetric == dense.is_symmetric

    def test_torus_edges_matches_torus(self):
        dense, edged = torus2d(6, 5), torus2d_edges(6, 5)
        np.testing.assert_array_equal(dense.matrix, edged.matrix)
        assert dense.name == edged.name

    def test_large_n_never_densifies(self):
        topo = ring_edges(100_000, (1, -1))
        assert topo.n_edges == 200_000
        assert topo.degree()[0] == 2.0
        assert topo.is_symmetric
        with pytest.raises(MemoryError):
            _ = topo.matrix

    def test_batched_validation_never_densifies(self):
        """Equal edge-backed topologies (distinct objects) must batch."""
        models = [
            PhysicalOscillatorModel(
                topology=ring_edges(100_000, (1, -1)),
                potential=TanhPotential(),
                t_comp=0.9, t_comm=0.1, v_p_override=0.1 * (i + 1))
            for i in range(2)
        ]
        members = [m.realize(1.0, rng=0) for m in models]
        backend = HeteroBatchedBackend(members)   # must not raise MemoryError
        assert backend.n == 100_000
        small = ring_edges(50, (1, -1))
        other = ring_edges(50, (1, -1, -2))
        mixed = [
            PhysicalOscillatorModel(topology=t, potential=TanhPotential(),
                                    t_comp=0.9, t_comm=0.1).realize(1.0, rng=0)
            for t in (small, other)
        ]
        # Same-N mixed topologies are rejected by comparing edge lists,
        # never by densifying.
        with pytest.raises(ValueError, match="disagree on topology"):
            HeteroBatchedBackend(mixed, kernel="numpy")

    def test_large_n_rhs_evaluates(self):
        topo = ring_edges(50_000, (1, -1))
        model = _model(topo, TanhPotential())
        realized = model.realize(1.0, rng=0, backend="sparse")
        theta = np.random.default_rng(0).normal(0.0, 1.0, topo.n)
        out = realized.rhs(0.0, theta)
        assert out.shape == (50_000,)
        assert np.all(np.isfinite(out))


# ----------------------------------------------------------------------
# end-to-end
# ----------------------------------------------------------------------
class TestEndToEnd:
    @pytest.mark.parametrize("kernel", _kernel_params())
    def test_simulate_kernel_knob(self, kernel):
        from repro.core import GaussianJitter

        model = _model(ring(32), BottleneckPotential(1.0),
                       local_noise=GaussianJitter(std=0.01, refresh=0.5))
        ref = simulate(model, 20.0, seed=0, kernel="numpy")
        traj = simulate(model, 20.0, seed=0, kernel=kernel)
        np.testing.assert_allclose(traj.thetas, ref.thetas,
                                   rtol=1e-8, atol=1e-8)

    def test_simulate_grid_honours_model_kernel_field(self, monkeypatch):
        from repro.core import simulate_grid
        from repro.core import simulation as sim_mod

        captured = {}
        orig = sim_mod.make_batched_backend

        def spy(members, name="auto", kernel="auto", threads=None):
            captured["kernel"] = kernel
            return orig(members, name, kernel=kernel, threads=threads)

        monkeypatch.setattr(sim_mod, "make_batched_backend", spy)
        topo = ring(24)
        models = [_model(topo, TanhPotential(), kernel="tiled")
                  for _ in range(3)]
        simulate_grid(models, 5.0, method="rk4")
        assert captured["kernel"] == "tiled"
        # disagreeing fields fall back to auto
        models[1] = _model(topo, TanhPotential(), kernel="numpy")
        simulate_grid(models, 5.0, method="rk4")
        assert captured["kernel"] == "auto"

    def test_cli_kernel_flag(self, capsys):
        from repro.cli import main

        assert main(["model", "--n", "16", "--t-end", "5",
                     "--kernel", "tiled", "--view", "summary"]) == 0
        out = capsys.readouterr().out
        assert "kernel=tiled" in out

    def test_cli_kernel_auto_reports_resolved(self, capsys):
        from repro.cli import main

        assert main(["model", "--n", "16", "--t-end", "5",
                     "--view", "summary"]) == 0
        out = capsys.readouterr().out
        assert "kernel=" in out


# ----------------------------------------------------------------------
# one-state compiled forms (the batched entry points at R=1)
# ----------------------------------------------------------------------
@needs_cc
class TestCompiledSingleForms:
    @pytest.mark.parametrize("make_topo", TOPOLOGIES)
    def test_single_forms_match_batched_rows(self, make_topo):
        topo = make_topo()
        rows, cols = topo.edge_list()
        pots = [TanhPotential(0.7), BottleneckPotential(1.2),
                LinearPotential(0.4)]
        kinds, p0, p1 = family_coefficients(pots)
        vps = np.array([0.1, 0.2, 0.3])
        thetas = np.random.default_rng(7).normal(0.0, 1.0, (3, topo.n))
        rows32 = np.ascontiguousarray(rows, dtype=np.int32)
        cols32 = np.ascontiguousarray(cols, dtype=np.int32)
        offs = cc_kernels.ring_offsets(rows, cols, topo.n)
        halo = cc_kernels.torus_halo(rows, cols, topo.n)
        if offs is not None:
            batched = cc_kernels.ring_batched(
                offs, thetas, np.empty_like(thetas), kinds, p0, p1, vps)
        elif halo is not None:
            batched = cc_kernels.torus_batched(
                halo, thetas, np.empty_like(thetas), kinds, p0, p1, vps)
        else:
            batched = cc_kernels.fused_batched(
                rows32, cols32, thetas, np.empty_like(thetas), kinds, p0,
                p1, vps)
        for r in range(3):
            args = (int(kinds[r]), float(p0[r]), float(p1[r]), float(vps[r]))
            theta = np.ascontiguousarray(thetas[r])
            out = cc_kernels.fused_single(rows32, cols32, theta,
                                          np.empty(topo.n), *args)
            np.testing.assert_allclose(out, batched[r], rtol=1e-12,
                                       atol=1e-13)
            if offs is not None:
                np.testing.assert_array_equal(cc_kernels.ring_single(
                    offs, theta, np.empty(topo.n), *args), batched[r])
            if halo is not None:
                np.testing.assert_array_equal(cc_kernels.torus_single(
                    halo, theta, np.empty(topo.n), *args), batched[r])


class TestBuildCacheKey:
    """The library's cache path covers every input of the build."""

    @pytest.fixture(autouse=True)
    def _private_tmp(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cc_kernels.tempfile, "tempdir", str(tmp_path))

    def test_stable(self):
        assert cc_kernels._cache_path() == cc_kernels._cache_path()

    def test_flag_set_change_moves_the_path(self, monkeypatch):
        before = cc_kernels._cache_path()
        flags, link = cc_kernels._FLAG_SETS[0]
        monkeypatch.setattr(cc_kernels, "_FLAG_SETS",
                            ((flags + ["-funroll-loops"], link),)
                            + cc_kernels._FLAG_SETS[1:])
        assert cc_kernels._cache_path() != before

    def test_compiler_change_moves_the_path(self, monkeypatch):
        before = cc_kernels._cache_path()
        monkeypatch.setattr(cc_kernels, "_compiler",
                            lambda: "/opt/other-toolchain/bin/cc")
        assert cc_kernels._cache_path() != before

    def test_unit_source_change_moves_the_path(self, monkeypatch):
        before = cc_kernels._cache_path()
        (name, source, flags), rest = (cc_kernels._UNITS[-1],
                                       cc_kernels._UNITS[:-1])
        monkeypatch.setattr(cc_kernels, "_UNITS",
                            rest + ((name, source + "\n", flags),))
        assert cc_kernels._cache_path() != before

    def test_stepper_unit_is_ieee_exact(self):
        for flags, _ in cc_kernels._FLAG_SETS:
            exact = cc_kernels._exact_flags(flags)
            assert "-ffast-math" not in exact
            assert "-ffp-contract=off" in exact


def _numpy_r(y):
    return np.abs(np.exp(1j * y).mean(axis=-1))


@needs_cc
class TestOrderParameterFold:
    """``cc.order_parameter``: a row's ``r`` depends on its phases only."""

    SIZES = (1, 24, 32, 63, 64, 65, cc_kernels.FOLD_BLOCK - 1,
             cc_kernels.FOLD_BLOCK + 1, cc_kernels.BLOCK_EDGES - 1,
             cc_kernels.BLOCK_EDGES + 1, 65536)

    @staticmethod
    def _stack(n, k=3, r=2):
        rng = np.random.default_rng(n)
        # phases well past 2*pi, as a long solve produces
        return rng.normal(0.0, 1.0, (k, r, n)) + rng.uniform(0, 50, (k, r, 1))

    @pytest.mark.parametrize("n", SIZES)
    def test_rows_are_independent_of_stack_and_alignment(self, n):
        ys = self._stack(n)
        got = cc_kernels.order_parameter(ys)
        assert got.shape == ys.shape[:-1]
        raw = np.empty(ys.size + 1)
        shifted = raw[1:].reshape(ys.shape)   # 8 bytes off the allocation
        shifted[...] = ys
        assert shifted.ctypes.data % 64 != raw.ctypes.data % 64
        np.testing.assert_array_equal(cc_kernels.order_parameter(shifted), got)
        for k in range(ys.shape[0]):
            for r in range(ys.shape[1]):
                row = ys[k, r].copy()
                assert cc_kernels.order_parameter(row) == got[k, r]
                one = np.empty(n + 1)[1:]
                one[...] = row
                assert cc_kernels.order_parameter(one) == got[k, r]
        np.testing.assert_allclose(got, _numpy_r(ys), rtol=0, atol=1e-14)

    def test_threads_do_not_change_the_bits(self):
        from concurrent.futures import ThreadPoolExecutor

        stacks = [self._stack(n) for n in (32, 4097, 20000)] * 4
        serial = [cc_kernels.order_parameter(ys) for ys in stacks]
        with ThreadPoolExecutor(2) as pool:
            threaded = list(pool.map(cc_kernels.order_parameter, stacks))
        for a, b in zip(serial, threaded):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    @pytest.mark.parametrize("n", (1, 7, 64, 5000))
    def test_non_finite_phase_gives_nan(self, bad, n):
        ys = self._stack(n)
        clean = cc_kernels.order_parameter(ys)
        ys[1, 0, n // 2] = bad
        got = cc_kernels.order_parameter(ys)
        assert np.isnan(got[1, 0])
        with np.errstate(invalid="ignore"):
            assert np.isnan(_numpy_r(ys)[1, 0])
        mask = np.ones(got.shape, dtype=bool)
        mask[1, 0] = False
        np.testing.assert_array_equal(got[mask], clean[mask])

    def test_empty_rows_and_stacks(self):
        assert cc_kernels.order_parameter(np.zeros((0, 3, 8))).shape == (0, 3)
        assert np.isnan(cc_kernels.order_parameter(np.zeros((2, 0)))).all()
