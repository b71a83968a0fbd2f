"""Dense vs. sparse vs. batched RHS benchmark — JSON artefact writer.

Measures the three claims of the backend layer:

1. **RHS speedup** — one Eq. 2 evaluation on a nearest-neighbour ring at
   N = 4096: the O(E) edge-list kernel vs. the O(N^2) dense reference.
2. **Batched RHS throughput** — an 8-member super-state evaluation vs.
   8 separate sparse evaluations, at a large and a small ring.  The two
   sizes bracket the two regimes: at large N the edge kernel is
   memory-bound (one bincount over R*E moves the same bytes as R
   bincounts over E, so batching cannot beat the loop no matter how the
   buffers are managed — the stacked scratch is preallocated either
   way), while at small N the per-call *Python* overhead dominates and
   batching amortises it R-fold.  The paper's sweeps live at N = 24-128,
   i.e. squarely in the second regime.
3. **Ensemble wall-clock** — ``run_ensemble`` over 8 seeds, sequential
   vs. ``batched=True``.
4. **Stepper** — µs per RHS evaluation of a whole rk4 solve on a noisy
   bottleneck ring (the ``paper_sweep`` shape) at N = 24 / 32 / 128 /
   1024 and R = 1 / 16, and on a noisy tanh 16x16 torus (the
   ``campaign_io`` shape) at R = 1 / 4: the per-RHS Python loop vs. the
   compiled fixed-step stepper on the same ``cc`` backend (bit-identical
   results, asserted).  CI floors the stepper speedup at N = 32 and
   caps the stepper's absolute µs per RHS at ring N = 32, R = 16 and
   torus 16x16, R = 4.
5. **Kernel ladder** — the large-N regime (ring N = 1e4 / 1e5 and a
   ~1e5-rank torus, built edge-native so no dense matrix is ever
   materialised): one single-state and one 8-member batched RHS
   evaluation under each available coupling kernel (``numpy`` vs.
   ``tiled`` vs. the fused compiled ``cc``), reported as speedups over
   the ``numpy`` kernel.  A single state is an R=1 stack.
6. **Fold** — µs per order-parameter fold of one ``(K, R, N)`` block,
   the compiled ``cc.order_parameter`` vs. NumPy's
   ``abs(mean(exp(1j * y)))``, at ``large_n``'s (1, 2, 65536) and a
   paper-scale (64, 16, 32) chunk.  CI floors both speedups at 3x and
   caps the compiled fold at (1, 2, 65536).

Run directly (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_backends.py --out BENCH_backends.json

``--quick`` shrinks the problem sizes for CI smoke jobs.  The JSON
artefact records the numbers so the perf trajectory is tracked from PR
to PR; ``benchmarks/check_regression.py`` gates CI on the committed
quick baselines.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from statistics import median

import numpy as np

from repro import kernels
from repro.backends import make_batched_backend
from repro.core import (
    BottleneckPotential,
    GaussianJitter,
    PhysicalOscillatorModel,
    TanhPotential,
    ring,
    ring_edges,
    run_ensemble,
    torus2d,
    torus2d_edges,
)


def _time(fn, repeats: int) -> float:
    """Median wall-clock seconds of ``fn()`` over ``repeats`` runs."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(median(times))


def _time_best(fn, repeats: int) -> float:
    """Minimum wall-clock seconds of ``fn()`` over ``repeats`` runs.

    The kernel ladder compares pure compute kernels, where the minimum
    is the standard estimator: it filters scheduler/frequency noise that
    the median still admits on busy hosts, and the quantity of interest
    is the kernels' capability ratio, not a typical-load figure.
    """
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(min(times))


def bench_rhs(n: int, repeats: int) -> dict:
    """Single-state RHS: dense vs. sparse on a ring of size ``n``."""
    model = PhysicalOscillatorModel(
        topology=ring(n, (1, -1)), potential=TanhPotential(),
        t_comp=0.9, t_comm=0.1)
    dense = model.realize(10.0, rng=0, backend="dense")
    sparse = model.realize(10.0, rng=0, backend="sparse")
    theta = np.random.default_rng(0).normal(0.0, 1.0, n)

    # Warm up + correctness guard.
    np.testing.assert_allclose(sparse.rhs(0.0, theta), dense.rhs(0.0, theta),
                               rtol=1e-12, atol=1e-12)
    t_dense = _time(lambda: dense.rhs(0.0, theta), repeats)
    t_sparse = _time(lambda: sparse.rhs(0.0, theta), repeats)
    return {
        "n": n,
        "n_edges": model.topology.n_edges,
        "dense_s": t_dense,
        "sparse_s": t_sparse,
        "speedup_sparse_vs_dense": t_dense / t_sparse,
    }


def bench_batched_rhs(n: int, r: int, repeats: int) -> dict:
    """Batched super-state RHS vs. R separate sparse evaluations."""
    model = PhysicalOscillatorModel(
        topology=ring(n, (1, -1)), potential=TanhPotential(),
        t_comp=0.9, t_comm=0.1,
        local_noise=GaussianJitter(std=0.02, refresh=0.5))
    members = [model.realize(10.0, rng=s, backend="sparse")
               for s in range(r)]
    stacked = make_batched_backend(members, "sparse")
    thetas = np.random.default_rng(1).normal(0.0, 1.0, (r, n))

    ref = np.stack([m.rhs(0.0, thetas[i]) for i, m in enumerate(members)])
    np.testing.assert_allclose(stacked.rhs(0.0, thetas), ref,
                               rtol=1e-12, atol=1e-12)
    t_loop = _time(
        lambda: [m.rhs(0.0, thetas[i]) for i, m in enumerate(members)],
        repeats)
    t_batched = _time(lambda: stacked.rhs(0.0, thetas), repeats)
    return {
        "n": n,
        "members": r,
        "member_loop_s": t_loop,
        "batched_s": t_batched,
        "speedup_batched_vs_loop": t_loop / t_batched,
    }


def bench_ensemble(n: int, r: int, t_end: float, repeats: int) -> dict:
    """Full ``run_ensemble`` wall-clock: sequential vs. batched."""
    model = PhysicalOscillatorModel(
        topology=ring(n, (1, -1)), potential=TanhPotential(),
        t_comp=0.9, t_comm=0.1,
        local_noise=GaussianJitter(std=0.02, refresh=0.5))
    metrics = {"final_spread": lambda tr: float(np.ptp(tr.final_phases))}
    seeds = tuple(range(r))

    t_seq = _time(lambda: run_ensemble(model, t_end, metrics, seeds=seeds),
                  repeats)
    t_bat = _time(lambda: run_ensemble(model, t_end, metrics, seeds=seeds,
                                       batched=True), repeats)
    return {
        "n": n,
        "seeds": r,
        "t_end": t_end,
        "sequential_s": t_seq,
        "batched_s": t_bat,
        "speedup_batched_vs_sequential": t_seq / t_bat,
    }


def _stepper_cases():
    """``(key, topology, potential of member i, R)`` for the stepper leg.

    Noisy bottleneck rings (the ``paper_sweep`` shape) and the noisy
    tanh 16x16 torus at ``campaign_io``'s shard size.
    """
    def bottleneck(i):
        return BottleneckPotential(sigma=0.5 + 0.25 * (i % 8))

    for n in (24, 32, 128, 1024):
        for r in (1, 16):
            yield f"n{n}_r{r}", ring(n, (1, -1)), bottleneck, r
    for r in (1, 4):
        yield f"torus16x16_r{r}", torus2d(16, 16), lambda i: TanhPotential(), r


def bench_stepper(steps: int, repeats: int) -> dict:
    """µs per RHS evaluation: Python rk4 loop vs. the compiled stepper.

    Both solve the same stacked ``cc`` backend over ``steps`` rk4 steps
    with ``record="none"``, so the difference is the per-step Python
    dispatch the stepper removes.  Empty when no compiler is available.
    """
    from repro.integrate import solve_rk4

    if not kernels.cc_available():
        return {}
    dt = 0.01
    out: dict = {"metric": "us per RHS evaluation, rk4", "steps": steps}
    for key, topology, potential, r in _stepper_cases():
        members = [PhysicalOscillatorModel(
            topology=topology, potential=potential(i),
            t_comp=0.9, t_comm=0.1,
            local_noise=GaussianJitter(std=0.01, refresh=0.5),
        ).realize(steps * dt, rng=i) for i in range(r)]
        backend = make_batched_backend(members, "sparse", kernel="cc")
        rhs = backend.make_ode_rhs()
        stepper = backend.make_stepper("rk4")
        theta0 = np.random.default_rng(topology.n).normal(
            0.0, 1e-3, (r, topology.n))

        def solve(with_stepper):
            return solve_rk4(rhs, (0.0, steps * dt), theta0, dt=dt,
                             record="none",
                             stepper=stepper if with_stepper else None)

        np.testing.assert_array_equal(solve(True).ys, solve(False).ys)
        loop = _time_best(lambda: solve(False), repeats)
        fast = _time_best(lambda: solve(True), repeats)
        n_rhs = 4 * steps
        out[key] = {
            "python_us_per_rhs": loop / n_rhs * 1e6,
            "stepper_us_per_rhs": fast / n_rhs * 1e6,
            "speedup_stepper_vs_python": loop / fast,
        }
    return out


def bench_fold(repeats: int) -> dict:
    """µs per order-parameter fold: compiled ``cc`` vs. the NumPy formula.

    One ``(K, R, N)`` block of states per fold, at the ``large_n`` shape
    (one state of ring N = 65536, R = 2) and a paper-scale chunk (64
    states of R = 16, N = 32).  Empty when no compiler is available.
    """
    if not kernels.cc_available():
        return {}

    def numpy_fold(y):
        return np.abs(np.exp(1j * y).mean(axis=-1))

    out: dict = {"metric": "us per fold of a (K, R, N) block"}
    for key, shape, calls in (("r2n65536", (1, 2, 65536), 4),
                              ("r16n32_k64", (64, 16, 32), 16)):
        ys = np.random.default_rng(0).normal(0.0, 1.0, shape) + 30.0
        np.testing.assert_allclose(kernels.cc.order_parameter(ys),
                                   numpy_fold(ys), rtol=0, atol=1e-14)
        per = {}
        for name, fn in (("cc", kernels.cc.order_parameter),
                         ("numpy", numpy_fold)):
            def many(fn=fn):
                for _ in range(calls):
                    fn(ys)
            per[f"{name}_us"] = _time_best(many, repeats) / calls * 1e6
        per["speedup_fold_cc_vs_numpy"] = per["numpy_us"] / per["cc_us"]
        out[key] = per
    return out


def _ladder_kernels() -> list[str]:
    """Kernels to compare: numpy/tiled always, plus what's available."""
    names = ["numpy", "tiled"]
    if kernels.cc_available():
        names.append("cc")
    return names


def bench_kernel_case(topology, r: int, repeats: int) -> dict:
    """Single and batched RHS under every available coupling kernel.

    The topology comes in edge-backed (no dense matrix), so this runs at
    N = 1e5 where the dense path would need an 80 GB matrix.  Noise-free
    model: the ladder isolates the coupling kernel, which is the part
    the ``kernel=`` knob swaps.
    """
    model = PhysicalOscillatorModel(
        topology=topology, potential=TanhPotential(),
        t_comp=0.9, t_comm=0.1)
    n = topology.n
    theta = np.random.default_rng(0).normal(0.0, 1.0, (1, n))
    thetas = np.random.default_rng(1).normal(0.0, 1.0, (r, n))
    members = [model.realize(10.0, rng=s, backend="sparse")
               for s in range(r)]

    case: dict = {
        "topology": topology.name,
        "n": n,
        "n_edges": topology.n_edges,
        "members": r,
        "metric": "coupling seconds per evaluation",
        "single": {},
        "batched": {},
    }
    ref_single = ref_batched = None
    backends = {}
    for name in _ladder_kernels():
        single = make_batched_backend([model.realize(10.0, rng=0)],
                                      "sparse", kernel=name)
        stacked = make_batched_backend(members, "sparse", kernel=name)
        # Warm up (first compiled call may JIT/load) + correctness guard.
        s_val = single.coupling(0.0, theta)
        b_val = stacked.coupling(0.0, thetas)
        if ref_single is None:
            ref_single, ref_batched = s_val, b_val
        else:
            np.testing.assert_allclose(s_val, ref_single,
                                       rtol=1e-10, atol=1e-12)
            np.testing.assert_allclose(b_val, ref_batched,
                                       rtol=1e-10, atol=1e-12)
        backends[name] = (single, stacked)
    # Interleave the kernels round-robin so host-load drift cannot land
    # on one kernel only; keep the per-kernel minimum across all rounds.
    for mode in ("single", "batched"):
        best = {name: np.inf for name in backends}
        for _ in range(2 * repeats + 1):
            for name, (single, stacked) in backends.items():
                if mode == "single":
                    t = _time_best(lambda: single.coupling(0.0, theta), 3)
                else:
                    t = _time_best(lambda: stacked.coupling(0.0, thetas), 3)
                best[name] = min(best[name], t)
        case[mode].update(best)
    for mode in ("single", "batched"):
        base = case[mode]["numpy"]
        for name, t in list(case[mode].items()):
            if name != "numpy":
                case[mode][f"speedup_{name}_vs_numpy"] = base / t
    return case


def bench_kernel_ladder(quick: bool, repeats: int) -> list[dict]:
    """The ring/torus large-N ladder (edge-backed topologies)."""
    if quick:
        cases = [ring_edges(4096, (1, -1))]
    else:
        cases = [
            ring_edges(10_000, (1, -1)),
            ring_edges(100_000, (1, -1)),
            torus2d_edges(316, 316),          # ~1e5 ranks, degree 4
        ]
    return [bench_kernel_case(t, 8, repeats) for t in cases]


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", default="BENCH_backends.json",
                   help="output JSON path")
    p.add_argument("--quick", action="store_true",
                   help="smaller sizes for CI smoke jobs")
    p.add_argument("--rhs-n", type=int, default=None,
                   help="override ring size for the RHS case")
    args = p.parse_args(argv)

    rhs_n = args.rhs_n or (1024 if args.quick else 4096)
    repeats = 5 if args.quick else 11
    ens_n = 64 if args.quick else 128
    ens_t = 10.0 if args.quick else 30.0

    result = {
        "benchmark": "backends",
        "quick": args.quick,
        "platform": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "rhs_ring": bench_rhs(rhs_n, repeats),
        "batched_rhs": bench_batched_rhs(rhs_n, 8, repeats),
        "batched_rhs_small": bench_batched_rhs(128, 8, repeats),
        "ensemble": bench_ensemble(ens_n, 8, ens_t, 3),
        "stepper": bench_stepper(300 if args.quick else 1500,
                                 3 if args.quick else 5),
        "fold": bench_fold(repeats),
        "kernels_available": _ladder_kernels(),
        "kernel_ladder": bench_kernel_ladder(args.quick, repeats),
    }

    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")

    rr = result["rhs_ring"]
    er = result["ensemble"]
    print(f"RHS ring N={rr['n']}: dense {rr['dense_s'] * 1e3:.2f} ms, "
          f"sparse {rr['sparse_s'] * 1e3:.3f} ms "
          f"=> {rr['speedup_sparse_vs_dense']:.1f}x")
    for key, note in (("batched_rhs", "memory-bound at this size"),
                      ("batched_rhs_small", "overhead-amortising regime")):
        br = result[key]
        print(f"batched RHS N={br['n']} R={br['members']}: "
              f"loop {br['member_loop_s'] * 1e3:.3f} ms, "
              f"batched {br['batched_s'] * 1e3:.3f} ms "
              f"=> {br['speedup_batched_vs_loop']:.1f}x ({note})")
    print(f"ensemble N={er['n']} seeds={er['seeds']} t_end={er['t_end']}: "
          f"sequential {er['sequential_s']:.2f} s, "
          f"batched {er['batched_s']:.2f} s "
          f"=> {er['speedup_batched_vs_sequential']:.1f}x")
    for key, case in result["stepper"].items():
        if isinstance(case, dict):
            print(f"stepper {key}: python "
                  f"{case['python_us_per_rhs']:.1f} us/rhs, stepper "
                  f"{case['stepper_us_per_rhs']:.1f} us/rhs "
                  f"=> {case['speedup_stepper_vs_python']:.1f}x")
    for key, case in result["fold"].items():
        if isinstance(case, dict):
            print(f"fold {key}: numpy {case['numpy_us']:.0f} us, cc "
                  f"{case['cc_us']:.0f} us "
                  f"=> {case['speedup_fold_cc_vs_numpy']:.1f}x")
    for case in result["kernel_ladder"]:
        for mode in ("single", "batched"):
            parts = [f"{k} {case[mode][k] * 1e3:.3f} ms"
                     for k in _ladder_kernels()]
            ratios = [f"{k} {case[mode][f'speedup_{k}_vs_numpy']:.1f}x"
                      for k in _ladder_kernels() if k != "numpy"]
            print(f"kernel ladder {case['topology']} N={case['n']} "
                  f"{mode}: " + ", ".join(parts)
                  + " | vs numpy: " + ", ".join(ratios))
    print(f"written: {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
