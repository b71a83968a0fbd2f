"""The compiled fixed-step stepper equals the per-RHS NumPy loop, bitwise.

``HeteroBatchedBackend.make_stepper`` binds a stacked ``cc`` backend
into a :class:`~repro.kernels.cc.FixedStepper` that runs ``K`` rk4 or
euler steps per C call.  Its states, times, counters and streamed
metrics must equal ``solve_rk4`` / ``solve_euler`` over the same
backend's Python RHS to the last bit, across every coupling
specialisation, noise shape, thread count, retention mode and chunk
layout; and ``make_stepper`` must decline every stack it cannot serve.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import make_batched_backend
from repro.core import (
    BottleneckPotential,
    GaussianJitter,
    OneOffDelay,
    PhysicalOscillatorModel,
    TanhPotential,
    hypercube,
    ring,
    simulate,
    simulate_grid,
    torus2d,
)
from repro.core.noise import ZetaProcess
from repro.integrate import fixed, solve_euler, solve_rk4
from repro.kernels import cc_available
from repro.metrics import METRIC_NAMES, StreamingObserver

pytestmark = pytest.mark.skipif(not cc_available(),
                                reason="no working C compiler")

TOPOLOGIES = {"ring": ring(24, (1, -1, 2)), "torus": torus2d(6, 4),
              "edges": hypercube(4)}
#: FixedStepper topology code each case must bind (0 edges, 1 ring, 2 torus)
TOPO_CODE = {"ring": 1, "torus": 2, "edges": 0}
SOLVERS = {"rk4": solve_rk4, "euler": solve_euler}
DT = 0.02
#: not a multiple of DT: the run ends on a shortened step
T_END = 3.013
#: noise refresh: 15 steps per window, never a multiple of the chunk
REFRESH = 0.3


def _members(topo: str, noise: str, r: int = 3, **model_kw):
    """``r`` realisations on one topology; potentials and seeds vary."""
    if noise != "off":
        model_kw["local_noise"] = GaussianJitter(std=0.05, refresh=REFRESH)
    members = []
    for i in range(r):
        model = PhysicalOscillatorModel(
            topology=TOPOLOGIES[topo],
            potential=(BottleneckPotential(sigma=0.5 + 0.5 * i) if i % 2 == 0
                       else TanhPotential()),
            t_comp=0.9, t_comm=0.1, **model_kw)
        m = model.realize(T_END, rng=10 + i)
        if noise == "stall":
            # stalled and negative effective periods: frequency 0
            values = m.zeta.values.copy()
            values[1:3, i] = np.inf
            values[4, (i + 1) % model.n] = -5.0
            m.zeta = ZetaProcess(values, dt=m.zeta.dt, t0=m.zeta.t0)
        members.append(m)
    return members


def _theta0(n: int, r: int = 3) -> np.ndarray:
    return np.random.default_rng(1).normal(0.0, 0.4, (r, n))


def _solve_both(backend, method, theta0, record, observe=True):
    solve = SOLVERS[method]
    models = [m.model for m in backend.members]
    obs = [StreamingObserver(models, METRIC_NAMES) if observe else None
           for _ in range(2)]
    ref = solve(backend.make_ode_rhs(), (0.0, T_END), theta0, dt=DT,
                record=record, observer=obs[0])
    got = solve(backend.make_ode_rhs(), (0.0, T_END), theta0, dt=DT,
                record=record, observer=obs[1],
                stepper=backend.make_stepper(method))
    return ref, got, obs


def _assert_same(ref, got, obs) -> None:
    assert np.array_equal(ref.ts, got.ts)
    assert ref.ys.shape == got.ys.shape
    assert ref.ys.tobytes() == got.ys.tobytes()
    assert ref.stats == got.stats
    if obs[0] is not None:
        a, b = obs[0].finalize(), obs[1].finalize()
        assert sorted(a) == sorted(b)
        for name in a:
            assert a[name].tobytes() == b[name].tobytes(), name


@pytest.mark.parametrize("record", ["full", "none", 7])
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("noise", ["off", "jitter", "stall"])
@pytest.mark.parametrize("topo", list(TOPOLOGIES))
@pytest.mark.parametrize("method", list(SOLVERS))
def test_stepper_equals_python_loop(method, topo, noise, threads, record,
                                    monkeypatch):
    members = _members(topo, noise)
    backend = make_batched_backend(members, "sparse", kernel="cc",
                                   threads=threads)
    stepper = backend.make_stepper(method)
    assert stepper is not None and stepper._args.topo == TOPO_CODE[topo]
    # 4-step chunks: chunk boundaries land inside noise windows
    state_bytes = 3 * TOPOLOGIES[topo].n * 8
    monkeypatch.setattr(fixed, "CHUNK_BYTES", 4 * state_bytes)
    ref, got, obs = _solve_both(backend, method, _theta0(backend.n), record)
    assert ref.ts[-1] == pytest.approx(T_END)
    _assert_same(ref, got, obs)


@pytest.mark.parametrize("method", list(SOLVERS))
def test_default_chunking_and_short_runs(method):
    """One chunk for the whole run, and runs shorter than one step."""
    backend = make_batched_backend(_members("ring", "jitter"), "sparse",
                                   kernel="cc")
    _assert_same(*_solve_both(backend, method, _theta0(backend.n), "full"))
    solve = SOLVERS[method]
    for t_end in (0.005, DT):
        ref = solve(backend.make_ode_rhs(), (0.0, t_end), _theta0(24), dt=DT)
        got = solve(backend.make_ode_rhs(), (0.0, t_end), _theta0(24), dt=DT,
                    stepper=backend.make_stepper(method))
        _assert_same(ref, got, [None, None])


def test_uncoupled_stack():
    members = _members("ring", "jitter", v_p_override=0.0)
    backend = make_batched_backend(members, "sparse", kernel="cc")
    assert not backend._coupled
    _assert_same(*_solve_both(backend, "rk4", _theta0(24), "full"))


def test_step_callback_sees_every_state():
    backend = make_batched_backend(_members("torus", "jitter"), "sparse",
                                   kernel="cc")
    seen = [[], []]
    for calls, stepper in zip(seen, (None, backend.make_stepper("rk4"))):
        solve_rk4(backend.make_ode_rhs(), (0.0, 0.5), _theta0(24), dt=DT,
                  stepper=stepper,
                  step_callback=lambda t, y, c=calls: c.append((t, y.copy())))
    assert len(seen[0]) == len(seen[1]) == 25
    for (ta, ya), (tb, yb) in zip(*seen):
        assert ta == tb and ya.tobytes() == yb.tobytes()


class TestDeclines:
    """``make_stepper`` returns ``None`` for every stack it cannot serve."""

    def _model(self, **kw):
        kw.setdefault("topology", ring(16, (1, -1)))
        return PhysicalOscillatorModel(potential=TanhPotential(),
                                       t_comp=0.9, t_comm=0.1, **kw)

    def test_serves_the_plain_case(self):
        b = make_batched_backend([self._model().realize(5.0, rng=0)],
                                 "sparse", kernel="cc")
        assert b.make_stepper("rk4") is not None
        assert b.make_stepper("euler") is not None

    @pytest.mark.parametrize("method", ["dopri", "em"])
    def test_other_methods(self, method):
        b = make_batched_backend([self._model().realize(5.0, rng=0)],
                                 "sparse", kernel="cc")
        assert b.make_stepper(method) is None

    @pytest.mark.parametrize("kernel", ["numpy", "tiled"])
    def test_python_kernels(self, kernel):
        b = make_batched_backend([self._model().realize(5.0, rng=0)],
                                 "sparse", kernel=kernel)
        assert b.make_stepper("rk4") is None

    def test_dense_backend(self):
        b = make_batched_backend([self._model().realize(5.0, rng=0)],
                                 "dense")
        assert b.make_stepper("rk4") is None

    def test_mixed_topology_stack_is_rejected(self):
        # Never reaches the stepper: the stack itself is rejected.
        members = [self._model().realize(5.0, rng=0),
                   self._model(topology=torus2d(4, 4)).realize(5.0, rng=0)]
        with pytest.raises(ValueError, match="disagree on topology"):
            make_batched_backend(members, "sparse", kernel="cc")

    def test_interaction_delays(self):
        from repro.core.noise import ConstantInteractionNoise

        m = self._model(interaction_noise=ConstantInteractionNoise(tau=0.1))
        b = make_batched_backend([m.realize(5.0, rng=0)], "sparse",
                                 kernel="cc")
        assert b.make_stepper("rk4") is None

    def test_unstacked_zeta(self):
        members = [
            self._model(local_noise=GaussianJitter(std=0.01, refresh=r))
            .realize(5.0, rng=0) for r in (0.5, 0.25)]
        b = make_batched_backend(members, "sparse", kernel="cc")
        assert b._zeta_stack is None
        assert b.make_stepper("rk4") is None

    def test_one_off_schedule(self):
        m = self._model(delays=(OneOffDelay(rank=2, t_start=1.0,
                                            delay=1.0),))
        b = make_batched_backend([m.realize(5.0, rng=0)], "sparse",
                                 kernel="cc")
        assert b.make_stepper("rk4") is None


def test_solution_reports_what_ran():
    model = PhysicalOscillatorModel(topology=ring(16, (1, -1)),
                                    potential=TanhPotential(),
                                    t_comp=0.9, t_comm=0.1)
    fast = simulate(model, 2.0, method="rk4", kernel="cc").solution.backend
    assert fast["stepper"] is True
    assert fast["kernel"] == "cc" and fast["backend"] == "sparse"
    slow = simulate(model, 2.0, method="rk4", kernel="numpy").solution
    assert slow.backend["stepper"] is False
    assert slow.backend["kernel"] == "numpy"
    adaptive = simulate_grid([model], 2.0, method="dopri")[0].solution
    assert adaptive.backend["stepper"] is False


# ----------------------------------------------------------------------
# StreamingObserver.fold: one fold of K states == K single calls
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 12), r=st.integers(1, 3), n=st.integers(3, 40),
       scale=st.floats(0.05, 4.0), seed=st.integers(0, 2**16))
def test_fold_equals_single_calls(k, r, n, scale, seed):
    topo = ring(n, (1, -1))
    models = [PhysicalOscillatorModel(
        topology=topo, potential=(BottleneckPotential(sigma=0.5 + i)
                                  if i % 2 else TanhPotential()),
        t_comp=0.9, t_comm=0.1) for i in range(r)]
    rng = np.random.default_rng(seed)
    ts = np.cumsum(rng.uniform(0.01, 0.5, k + 1))
    ys = rng.normal(0.0, scale, (k + 1, r, n)) + models[0].omega * ts[:, None,
                                                                       None]
    single = StreamingObserver(models, METRIC_NAMES)
    folded = StreamingObserver(models, METRIC_NAMES)
    for t, y in zip(ts, ys):
        single(t, y)
    folded(ts[0], ys[0])
    folded.fold(ts[1:], ys[1:])
    a, b = single.finalize(), folded.finalize()
    assert sorted(a) == sorted(b)
    for name in a:
        assert a[name].dtype == b[name].dtype
        assert a[name].tobytes() == b[name].tobytes(), name
