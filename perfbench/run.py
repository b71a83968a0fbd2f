"""Seeded end-to-end and per-layer benchmark of POM campaigns.

Run from the repository root::

    python3 perfbench/run.py --workload paper_sweep --seed 1 \
        --seconds 10 --trace 0

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones (see ``BENCHMARK.json``); with ``--trace 1`` a separate,
traced run reports the per-layer numbers and writes its spans to
``.perfbench-work/traces/``.  The line before it is a JSON object with
provenance (host, versions, resolved kernel) and sample counts.  See
``perfbench/README.md`` for the workloads, metrics and tolerances.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from multiprocessing import resource_tracker
from pathlib import Path

import numpy as np

import calib
import checks
import service_log
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

#: fresh-interpreter set-ups per run; ``setup_s`` is their median
SETUP_REPS = 5
#: repetitions of the campaign per run at least, whatever ``--seconds``
MIN_REPS = 2
#: kernel-ladder shapes: (members R, oscillators N)
LADDER_SHAPES = ((16, 32), (2, 65536))
LADDER_KERNELS = ("numpy", "tiled", "cc")
#: seed reserved for confirming a claimed gain; never tune against it
HELD_OUT_SEED = 20231112


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def _percentile(values, q):
    """Nearest-rank percentile (``q`` in 0..100) of a sample list."""
    ordered = sorted(values)
    k = min(max(math.ceil(q / 100.0 * len(ordered)) - 1, 0), len(ordered) - 1)
    return float(ordered[k])


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# ======================================================================
# set-up and build probes (fresh interpreters)
# ======================================================================
def measure_setup(workload: str, seed: int, workdir: Path) -> float:
    """Launch-to-ready seconds of one fresh interpreter (see probe.py)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "probe.py"), "setup", workload,
         str(seed), str(workdir)],
        stdout=subprocess.PIPE, env=_env(), cwd=ROOT, text=True)
    try:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.wait(timeout=120)
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed ({proc.returncode})")
    return seconds


def measure_cold_build(run_dir: Path) -> float:
    """One-time cold build of the compiled kernel, in an empty TMPDIR."""
    tmp = run_dir / "cold-build"
    tmp.mkdir(parents=True)
    env = _env()
    env["TMPDIR"] = str(tmp)
    out = subprocess.run([sys.executable, str(HERE / "probe.py"), "build"],
                         capture_output=True, text=True, env=env, cwd=ROOT,
                         timeout=300, check=True)
    return float(out.stdout.strip())


# ======================================================================
# kernel ladder
# ======================================================================
def kernel_ladder(budget_s: float = 0.25) -> dict[str, float]:
    """Median µs of one coupling call per available kernel and shape.

    Each kernel runs behind the batched backend at the ``paper_sweep``
    shape (R=16, N=32) and the ``large_n`` shape (R=2, N=65536), so the
    figure is the cost a solve pays per coupling evaluation.
    """
    from repro.backends import make_batched_backend
    from repro.kernels import cc_available, numba_available
    from repro.runs import model_from_spec

    available = {"numpy": True, "tiled": True, "cc": cc_available(),
                 "numba": numba_available()}
    out = {}
    for r, n in LADDER_SHAPES:
        models = [model_from_spec({
            "topology": {"kind": "ring", "n": n, "distances": [1, -1]},
            "potential": {"kind": "bottleneck", "sigma": 0.5 + 0.25 * i},
            "t_comp": 0.9, "t_comm": 0.1}) for i in range(r)]
        realized = [m.realize(1.0, rng=i) for i, m in enumerate(models)]
        theta = np.random.default_rng(r * n).normal(0.0, 0.1, size=(r, n))
        for kernel in LADDER_KERNELS:
            name = f"kernels.{kernel}_us.r{r}n{n}"
            if not available[kernel]:
                out[name] = 0.0
                continue
            backend = make_batched_backend(realized, kernel=kernel)
            backend.coupling(0.0, theta)
            samples = []
            deadline = time.perf_counter() + budget_s
            while time.perf_counter() < deadline or len(samples) < 5:
                t0 = time.perf_counter()
                backend.coupling(0.0, theta)
                samples.append((time.perf_counter() - t0) * 1e6)
            out[name] = _median(samples)
    return out


# ======================================================================
# provenance
# ======================================================================
def provenance(plans) -> dict:
    from repro.kernels import (cc_available, numba_available,
                               openmp_available, resolve_kernel)
    from repro.runs import model_from_spec

    resolved = set()
    for plan in plans:
        first = plan.shards[0].payload["members"][0]
        model = model_from_spec(first["model"])
        resolved.add(resolve_kernel(
            "auto", has_coefficients=model.potential.kernel_coefficients()
            is not None, n_edges=model.topology.edge_list()[0].size))
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "cc": cc_available(),
            "openmp": openmp_available(), "numba": numba_available(),
            "auto_kernel": sorted(resolved), "machine": platform.machine()}


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


# ======================================================================
# per-layer metrics of one traced repetition
# ======================================================================
SELF_SPANS = ("campaign", "replay", "executor.shard",
              "core.realize", "integrate.solve", "backends.rhs",
              "backends.frequency", "backends.coupling", "kernels.call",
              "metrics.fold", "cache.save", "cache.load", "assembly.npz")


def layer_metrics(t, rep, items) -> dict[str, float]:
    """Per-layer figures of one traced repetition from its tracer."""

    def per_call_us(name, total=None, calls=None):
        calls = t.calls(name) if calls is None else calls
        total = t.total(name) if total is None else total
        return total / calls * 1e6 if calls else 0.0

    rhs_calls = t.calls("backends.rhs")
    kernel_name = "kernels.call"
    if t.calls(kernel_name) == 0:
        # The NumPy kernel is inline in the coupling call.
        kernel_name = "backends.coupling"
    kernel_s = t.total(kernel_name)
    kbytes = t.counters.get("kernels.bytes", 0.0)
    m = {
        "core.realize_s": t.total("core.realize"),
        "backends.rhs_calls": rhs_calls,
        "backends.rhs_us": per_call_us("backends.rhs"),
        "backends.dispatch_us": per_call_us(
            "backends.rhs", t.total("backends.rhs") - kernel_s),
        "backends.frequency_us": per_call_us("backends.frequency"),
        "kernels.calls": t.calls(kernel_name),
        "kernels.us_per_call": per_call_us(kernel_name),
        "kernels.bytes_per_call": (kbytes / t.calls("kernels.call")
                                   if t.calls("kernels.call") else 0.0),
        "kernels.gb_per_s": (kbytes / t.total("kernels.call") / 1e9
                             if t.calls("kernels.call") else 0.0),
        "integrate.steps": t.counters.get("integrate.steps", 0),
        "integrate.rejected": t.counters.get("integrate.rejected", 0),
        "integrate.self_s": t.self_time("integrate.solve"),
        "metrics.samples": t.calls("metrics.fold"),
        "metrics.fold_us": per_call_us("metrics.fold"),
        "cache.save_s": t.total("cache.save"),
        "cache.load_s": t.total("cache.load"),
        "cache.hits": t.counters.get("cache.hits", 0),
        "cache.misses": t.counters.get("cache.misses", 0),
        "cache.bytes": sum(c.describe()["size_bytes"] for c in rep.caches),
        "assembly.npz_s": t.total("assembly.npz"),
        "assembly.npz_bytes": t.counters.get("assembly.npz_bytes", 0),
        "counts.members": sum(c.spec.n_members for c in items),
    }
    for name in SELF_SPANS:
        m[f"self.{name}_s"] = t.self_time(name)
    m.update(executor_metrics(rep))
    return m


def executor_metrics(rep) -> dict[str, float]:
    return {"executor.solve_s": rep.solve_s,
            "executor.transport_s": rep.transport_s,
            "executor.idle_s": rep.slot_s - rep.solve_s,
            "executor.shard_p50_s": _median(rep.shard_seconds),
            "executor.shards": rep.executed}


def unit_of(name: str) -> str:
    """The unit a metric name implies by its suffix."""
    if "_us" in name or name.endswith("us_per_call"):
        return "us"
    for suffix, unit in (("gb_per_s", "GB/s"), ("_ms", "ms"), ("_mb", "MB"),
                         ("_s", "s"), ("bytes", "B"), ("bytes_per_call", "B"),
                         ("fail_ratio", "1")):
        if name.endswith(suffix):
            return unit
    return "count"


# ======================================================================
# main
# ======================================================================
def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def prepare_environment() -> Path:
    """Keep every file the run writes inside the checkout.

    The compiled kernel is cached under ``TMPDIR``, so pointing it into
    the work directory makes the warm build persist across runs of one
    checkout while writing nothing outside it.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {SRC}; run "
                         "from the root of a full checkout")
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None
    sys.path.insert(0, str(SRC))
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    return run_dir


def stop_children(timeout: float = 10.0) -> None:
    """Stop every process this run started and wait for each to end.

    Pool and service workers are joined by the library; any still alive
    are terminated here.  The multiprocessing resource tracker outlives
    its parent by design, so ``main`` starts it before any worker forks
    (the workers then share it instead of each spawning their own) and
    this closes its pipe, which ends it, and reaps it.
    """
    live = multiprocessing.active_children()
    for proc in live:
        proc.terminate()
    for proc in live:
        proc.join(timeout)
        if proc.is_alive():
            proc.kill()
            proc.join()
    tracker = resource_tracker._resource_tracker
    fd, pid = tracker._fd, tracker._pid
    if fd is None:
        return
    tracker._fd = tracker._pid = None
    os.close(fd)
    deadline = time.monotonic() + timeout
    while os.waitpid(pid, os.WNOHANG) == (0, 0):
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            return
        time.sleep(0.01)


def main(argv=None) -> int:
    args = parse_args(argv)
    run_dir = prepare_environment()
    resource_tracker.ensure_running()
    try:
        return bench(args, run_dir)
    finally:
        stop_children()
        shutil.rmtree(run_dir, ignore_errors=True)


class Measurement:
    """One run's repetitions, latency bursts and set-up probes.

    Each repetition is followed by a latency burst and a set-up probe,
    so every sample set spreads over the run instead of landing in one
    phase of host contention.  In a traced run, one untimed repetition
    warms up first, then untraced and traced repetitions alternate.
    """

    def __init__(self, args, run_dir: Path, items, plans) -> None:
        self.args, self.run_dir = args, run_dir
        self.items, self.plans = items, plans
        self.log = checks.CheckLog()
        self.tracer = tracing.Tracer()
        self.records = service_log.ServiceRecords()
        self.latency = workloads.LatencyLeg(
            args.workload, items, self.tracer if args.trace else None)
        self.reps: list = []
        self.traced: list[dict] = []
        self.traced_spans: list[tuple[float, float]] = []
        self.untraced_spans: list[tuple[float, float]] = []
        self.setups: list[tuple[float, float]] = []
        self.picks: list[tuple] = []

    def setup_probe(self) -> None:
        if self.args.trace or len(self.setups) >= SETUP_REPS:
            return
        t0 = time.perf_counter()
        measure_setup(self.args.workload, self.args.seed,
                      self.run_dir / f"setup{len(self.setups)}")
        self.setups.append((t0, time.perf_counter()))

    def retire(self, rep) -> None:
        """Read a finished repetition's server records, free its disk."""
        if rep.server_root is not None:
            self.records.add(rep.server_root)
        shutil.rmtree(rep.root, ignore_errors=True)

    def inspect(self, cold, warm) -> None:
        """Check a repetition's results; keep the reference picks."""
        checks.check_replay(self.log, cold, warm)
        if not self.picks and not isinstance(cold, bytes):
            self.picks = checks.pick_members(self.args.seed, self.plans,
                                             cold)

    def repetition(self) -> None:
        traced = bool(self.args.trace) and len(self.reps) % 2 == 1
        self.tracer.reset()
        self.tracer.enabled = traced
        rep = workloads.run_rep(
            self.args.workload, self.items, self.plans,
            self.run_dir / f"rep{len(self.reps)}", self.inspect,
            self.tracer if traced else None)
        self.tracer.enabled = False
        self.reps.append(rep)
        if traced:
            self.traced.append(layer_metrics(self.tracer, rep, self.items))
            self.traced_spans.append(rep.campaign)
        elif self.args.trace:
            self.untraced_spans.append(rep.campaign)
        self.tracer.enabled = bool(self.args.trace)
        self.latency.burst(rep, self.run_dir / f"svc{len(self.reps)}")
        self.tracer.enabled = False
        self.setup_probe()
        if len(self.reps) > 1:
            self.retire(self.reps[-2])

    def run(self) -> None:
        self.setup_probe()
        if self.args.trace:
            tracing.install_layer_probes(self.tracer)
            workloads.run_rep(self.args.workload, self.items,
                                   self.plans, self.run_dir / "warmup")
        deadline = time.perf_counter() + self.args.seconds
        try:
            while len(self.reps) < MIN_REPS \
                    or time.perf_counter() < deadline:
                self.repetition()
            self.tracer.enabled = bool(self.args.trace)
            extra = 0
            while not self.latency.done():
                extra += 1
                self.latency.burst(self.reps[-1],
                                   self.run_dir / f"svc-extra{extra}")
            self.tracer.enabled = False
            self.retire(self.reps[-1])
        finally:
            self.tracer.restore()
        while len(self.setups) < SETUP_REPS and not self.args.trace:
            self.setup_probe()


def bench(args, run_dir: Path) -> int:
    from repro.kernels import cc_available

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from "
                         f"{', '.join(workloads.WORKLOADS)}")
    warnings.simplefilter("ignore", RuntimeWarning)
    cc_available()  # builds once per checkout, before anything is timed

    layer: dict[str, float] = {}
    if args.trace:
        layer["kernels.build_s"] = measure_cold_build(run_dir)
    items = workloads.campaigns(args.workload, args.seed)
    t0 = time.perf_counter()
    plans = workloads.compile_all(items)
    layer["plan.compile_s"] = time.perf_counter() - t0

    m = Measurement(args, run_dir, items, plans)
    with calib.SpeedSampler() as sampler:
        m.run()

    # Correctness gates on the first repetition's outputs.
    picks = m.picks
    if args.workload == "service":
        plan, run = checks.check_service(m.log, items, m.latency.fetched)
        picks = checks.pick_members(args.seed, [plan], [run])
    checks.check_reference(m.log, args.workload, picks)

    lat = m.latency
    requests = m.records.requests if args.workload == "service" \
        else lat.requests
    attempted = m.log.attempted + requests + sum(r.executed for r in m.reps)
    failed = m.log.failed + m.records.errors

    def norm(spans):
        """Seconds of each ``(start, end)`` at the reference speed."""
        return [(t1 - t0) * sampler.factor(t0, t1) for t0, t1 in spans]

    def norm_ms(samples):
        return [ms * sampler.factor(t0, t1) for t0, t1, ms in samples]

    fetch_ms, submit_ms = norm_ms(lat.fetches), norm_ms(lat.submits)
    # Millisecond and sub-millisecond latencies spread by up to 0.34 of
    # their median over ten runs on a shared host, too wide for a bound,
    # so they are per-layer figures (also printed on the details line).
    latency = {
        "latency.replay_s": _median(norm([s for r in m.reps
                                          for s in r.replays])),
        "latency.fetch_p50_ms": _percentile(fetch_ms, 50),
        "latency.fetch_p90_ms": _percentile(fetch_ms, 90),
        "latency.submit_p50_ms": _percentile(submit_ms, 50),
        "latency.submit_p90_ms": _percentile(submit_ms, 90),
    }
    raw = {"fetch_ms": [x[2] for x in lat.fetches],
           "submit_ms": [x[2] for x in lat.submits],
           "setup_s": [t1 - t0 for t0, t1 in m.setups],
           "campaign_s": [r.campaign_s for r in m.reps],
           "replay_s": [t1 - t0 for r in m.reps for t0, t1 in r.replays]}
    details = {"workload": args.workload, "seed": args.seed,
               "reps": len(m.reps), "setup_samples": len(m.setups),
               "fetch_samples": len(lat.fetches),
               "submit_samples": len(lat.submits),
               "latency": latency,
               "raw_seconds": raw,
               "speed_factors": [sampler.factor(*r.campaign)
                                 for r in m.reps],
               "provenance": provenance(plans),
               "failures": m.log.failures(),
               "reference_errors": m.log.reference_errors()}

    if args.trace:
        for name in m.traced[0]:
            layer[name] = _median([s[name] for s in m.traced])
        layer["trace.overhead_s"] = _median(norm(m.traced_spans)) \
            - _median(norm(m.untraced_spans))
        layer.update(kernel_ladder())
        layer.update(m.records.metrics(lat))
        layer.update(latency)
        layer["ops.attempted"] = attempted
        layer["ops.fail_ratio"] = failed / attempted
        prov = details["provenance"]
        layer["host.cpu_count"] = prov["cpu_count"] or 0
        layer["host.cc"] = int(prov["cc"])
        layer["host.openmp"] = int(prov["openmp"])
        layer["host.numba"] = int(prov["numba"])
        trace_path = WORK / "traces" / f"{args.workload}-{args.seed}.jsonl"
        m.tracer.write(trace_path, details)
        details["trace_file"] = str(trace_path.relative_to(ROOT))
        values = dict(sorted(layer.items()))
    else:
        values = {
            "setup_s": _median(norm(m.setups)),
            "campaign_s": _median(norm([r.campaign for r in m.reps])),
            "peak_rss_mb": peak_rss_mb(),
        }
    metrics = {k: {"value": float(v), "unit": unit_of(k)}
               for k, v in values.items()}
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
