"""Fresh-interpreter probes the benchmark times from outside.

``python3 perfbench/probe.py setup <workload> <seed> <workdir>``
    Import the package, load the compiled kernel from its warm on-disk
    build, compile the workload's plans and, for ``service``, start the
    server; then print ``ready``.  The parent times launch to ``ready``.
``python3 perfbench/probe.py build``
    Build the compiled kernel into the (empty) ``TMPDIR`` the parent
    chose and print the build seconds.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import workloads

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def setup(workload: str, seed: int, workdir: Path) -> None:
    from repro.kernels import cc_available

    cc_available()
    items = workloads.campaigns(workload, seed)
    workloads.compile_all(items)
    server = None
    if workload == "service":
        server = workloads.start_server(workdir, items[0])
    print("ready", flush=True)
    if server is not None:
        server.close()


def build() -> None:
    from repro.kernels import cc

    t0 = time.perf_counter()
    ok = cc.load_library() is not None
    print(f"{time.perf_counter() - t0 if ok else 0.0!r}", flush=True)


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2], int(sys.argv[3]), Path(sys.argv[4]))
    elif sys.argv[1] == "build":
        build()
    else:
        raise SystemExit(f"unknown probe {sys.argv[1]!r}")
