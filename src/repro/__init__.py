"""repro — Physical Oscillator Model for Supercomputing (POM).

A complete, from-scratch Python reproduction of

    Ayesha Afzal, Georg Hager, Gerhard Wellein:
    "Physical Oscillator Model for Supercomputing", SC-W 2023
    (arXiv:2310.05701).

Packages
--------
:mod:`repro.core`
    The paper's contribution: the coupled-oscillator model (Eq. 2) with
    scalable/bottlenecked interaction potentials, sparse communication
    topologies, the beta*kappa coupling rule, and both noise channels.
:mod:`repro.backends`
    The stacked RHS backend every solve runs through (one run, a seed
    ensemble or a grid as an ``(R, N)`` super-state): O(E) edge-list
    kernels, with the dense-matrix reference as an alternative.
:mod:`repro.integrate`
    From-scratch ODE/SDE/DDE solvers (Dormand-Prince 5(4), RK4, Euler,
    Euler-Maruyama, delay-history buffers); shape-agnostic, so whole
    seed ensembles integrate as stacked ``(R, N)`` super-states.
:mod:`repro.runs`
    Run orchestration: declarative :class:`~repro.runs.ScenarioSpec`
    campaigns, a planner fusing grid points into batched solves, a
    sharded multiprocess executor, and a content-addressed result
    cache with resume.
:mod:`repro.simulator`
    A discrete-event MPI cluster simulator (the validation substrate
    replacing the paper's Meggie runs): Irecv/Send/Waitall semantics,
    eager/rendezvous protocols, per-socket memory-bandwidth arbitration,
    ITAC-like traces.
:mod:`repro.metrics`
    Order parameters, phase spreads, sync/desync classification,
    idle-wave speed fits.
:mod:`repro.analysis`
    Trace phenomenology and model-vs-simulator comparison.
:mod:`repro.experiments`
    One module per paper artefact (Fig. 1(a), Fig. 1(b), Fig. 2,
    parameter sweeps) — each regenerates the corresponding series.
:mod:`repro.viz`
    ASCII renderers and CSV/JSON exporters.

Quickstart
----------
>>> from repro.core import (PhysicalOscillatorModel, TanhPotential,
...                         ring, simulate, OneOffDelay)
>>> model = PhysicalOscillatorModel(
...     topology=ring(16, (1, -1)), potential=TanhPotential(),
...     t_comp=0.9, t_comm=0.1,
...     delays=(OneOffDelay(rank=4, t_start=5.0, delay=2.0),))
>>> traj = simulate(model, t_end=60.0, seed=0)
>>> traj.lagger_normalized().shape[1]
16
"""

from . import analysis, backends, core, integrate, metrics, runs, simulator

__version__ = "1.2.0"

__all__ = ["analysis", "backends", "core", "integrate", "metrics", "runs",
           "simulator", "__version__"]
