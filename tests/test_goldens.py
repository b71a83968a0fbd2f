"""Golden pins: the sha256 of solved ``thetas`` across every entry point.

A matrix of small runs — method x topology x local noise x one-off delay
x interaction delay x ``n_samples`` — is solved through each public
entry point (``simulate``, ``simulate_batched``, ``simulate_grid`` and
``run_plan(jobs=1)``) and the sha256 of every resulting ``thetas`` array
is compared against the pins in ``goldens/thetas_sha256.json``.

The compiled ``cc`` kernel is built with ``-march=native -ffast-math``
and NumPy dispatches its SIMD transcendentals per CPU, so the bits are a
property of the host: the pins are keyed by a host fingerprint.  On an
unknown host the pin test is skipped (it says so) and only the
in-process cross-path identities are asserted.

Regenerate the pins for the current host with::

    PYTHONPATH=src python tests/test_goldens.py
"""

from __future__ import annotations

import hashlib
import itertools
import json
import platform
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from repro.core import simulate, simulate_batched, simulate_grid
from repro.kernels import cc_available, openmp_available
from repro.runs import ScenarioSpec, compile_plan, model_from_spec, run_plan
from repro.runs.spec import initial_from_spec

GOLDEN_PATH = Path(__file__).parent / "goldens" / "thetas_sha256.json"

T_END = 2.0
SEED = 7
INITIAL = {"kind": "normal", "std": 0.1, "seed": 3}

TOPOLOGIES = {
    "ring24": {"kind": "ring", "n": 24, "distances": [1, -1]},
    "torus4x4": {"kind": "torus2d", "nx": 4, "ny": 4},
    "hypercube4": {"kind": "hypercube", "dim": 4},
    # dense enough that backend "auto" picks the dense matrix kernel
    "all_to_all8": {"kind": "all_to_all", "n": 8},
}
NOISE = {"kind": "gaussian", "std": 0.02, "refresh": 0.5}
ONE_OFF = [{"rank": 2, "t_start": 0.5, "delay": 1.0}]
INTERACTION = {"kind": "constant", "tau": 0.15}


def _cases():
    """Every valid combination of the matrix axes, as ``(id, params)``.

    Interaction delays switch every method to the fixed-step DDE
    integrator (so only one method is listed for them), and ``"em"``
    needs Gaussian local noise and no interaction delays.
    """
    out = []
    for topo, noise, one_off, inter, n_samples in itertools.product(
            TOPOLOGIES, (False, True), (False, True), (False, True),
            (None, 40)):
        if inter:
            methods = ("rk4",)
        else:
            methods = ("dopri", "rk4", "euler") + (("em",) if noise else ())
        for method in methods:
            case = dict(topo=topo, method=method, noise=noise,
                        one_off=one_off, inter=inter, n_samples=n_samples)
            cid = (f"{topo}-{method}-noise{int(noise)}-oneoff{int(one_off)}"
                   f"-inter{int(inter)}-ns{n_samples or 0}")
            out.append((cid, case))
    return out


CASES = _cases()


def _model_dict(case) -> dict:
    d = {"topology": TOPOLOGIES[case["topo"]],
         "potential": {"kind": "bottleneck", "sigma": 1.0},
         "t_comp": 0.9, "t_comm": 0.1, "v_p_override": 1.0}
    if case["noise"]:
        d["local_noise"] = NOISE
    if case["one_off"]:
        d["delays"] = ONE_OFF
    if case["inter"]:
        d["interaction_noise"] = INTERACTION
    return d


def _digest(thetas: np.ndarray) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(thetas, dtype=np.float64).tobytes()).hexdigest()


def solve_entry_points(case, ran: dict | None = None) -> dict[str, str]:
    """sha256 of ``thetas`` for one case through every entry point.

    ``ran``, when given, receives each in-process entry point's
    ``Solution.backend`` report (backend, kernel, stepper).
    """
    d = _model_dict(case)
    model = model_from_spec(d)
    theta0 = initial_from_spec(INITIAL, model.n)
    kw = dict(method=case["method"], n_samples=case["n_samples"])
    out = {
        "simulate": simulate(model, T_END, theta0=theta0, seed=SEED, **kw),
        "simulate_batched": simulate_batched(
            model, T_END, seeds=[SEED], theta0_factory=lambda s: theta0,
            **kw)[0],
        "simulate_grid": simulate_grid([model], T_END, seeds=SEED,
                                       theta0=theta0, **kw)[0],
    }
    spec = ScenarioSpec(name="golden", model=d, t_end=T_END,
                        solver={"method": case["method"],
                                "n_samples": case["n_samples"]},
                        initial=INITIAL, seed=SEED)
    run = run_plan(compile_plan(spec), jobs=1)
    if ran is not None:
        ran.update({name: traj.solution.backend
                    for name, traj in out.items()})
    digests = {name: _digest(traj.thetas) for name, traj in out.items()}
    digests["run_plan"] = _digest(run.members[0].thetas)
    return digests


def _compiler_version() -> str:
    from repro.kernels.cc import _compiler

    cc = _compiler()
    if cc is None or shutil.which(cc) is None:
        return "none"
    try:
        proc = subprocess.run([cc, "--version"], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return (proc.stdout.splitlines() or ["unknown"])[0]


@lru_cache(maxsize=1)
def host_fingerprint() -> str:
    """What the result bits depend on besides the source code.

    The CPU feature set (``-march=native`` and NumPy's SIMD dispatch),
    the NumPy version, the C compiler and whether the compiled kernel
    (with or without OpenMP) is available at all.
    """
    from repro.kernels.cc import _cpu_tag

    parts = [platform.machine(), _cpu_tag(), np.__version__,
             _compiler_version(), str(cc_available()),
             str(openmp_available())]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]


def _load_pins() -> dict:
    if not GOLDEN_PATH.exists():
        return {}
    return json.loads(GOLDEN_PATH.read_text())


@lru_cache(maxsize=None)
def _solved_with_report(cid: str) -> tuple[dict[str, str], dict]:
    ran: dict = {}
    return solve_entry_points(dict(CASES)[cid], ran), ran


def _solved(cid: str) -> dict[str, str]:
    return _solved_with_report(cid)[0]


@pytest.mark.parametrize("cid", [c for c, _ in CASES])
def test_cross_path_identities(cid):
    """Entry points sharing a backend agree bit for bit on every host."""
    got, ran = _solved_with_report(cid)
    assert got["simulate_grid"] == got["run_plan"]
    assert got["simulate_batched"] == got["simulate"]
    if not cid.startswith("all_to_all"):
        # backend "auto" picks the edge-list kernel here, like the
        # grid paths always do
        assert got["simulate"] == got["simulate_grid"]
    # The compiled stepper serves every rk4/euler solve on the cc kernel
    # without delays; the pins above then hold its bits.
    case = dict(CASES)[cid]
    for name, report in ran.items():
        expect = (case["method"] in ("rk4", "euler")
                  and report["kernel"] == "cc"
                  and not case["one_off"] and not case["inter"])
        assert report["stepper"] is expect, name
    if cc_available() and case["method"] in ("rk4", "euler") \
            and not case["one_off"] and not case["inter"]:
        assert ran["simulate_grid"]["stepper"]


def test_pins_unchanged():
    pins = _load_pins().get(host_fingerprint())
    if pins is None:
        pytest.skip(f"no golden pins for host {host_fingerprint()}; only "
                    "the in-process cross-path identities were asserted")
    mismatched = [
        f"{cid}:{entry}"
        for cid, _ in CASES
        for entry, digest in _solved(cid).items()
        if pins.get(cid, {}).get(entry) != digest
    ]
    assert not mismatched, f"{len(mismatched)} pins moved: {mismatched[:8]}"


def main() -> None:
    """Write the pins for this host into the golden file."""
    pins = _load_pins()
    pins[host_fingerprint()] = {cid: solve_entry_points(case)
                                for cid, case in CASES}
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(CASES)} cases for host {host_fingerprint()} "
          f"to {GOLDEN_PATH}", file=sys.stderr)


if __name__ == "__main__":
    main()
