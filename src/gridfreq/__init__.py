"""Frequency dynamics of inverter-controlled power networks.

Library layout: :mod:`gridfreq.network` (graph, Laplacian, Kron reduction),
:mod:`gridfreq.control` (inverter configs, stability certificate),
:mod:`gridfreq.dynamics` (closed-loop assembly, steady states),
:mod:`gridfreq.analysis` (H2 norms, modal decomposition, dispatch optimality),
:mod:`gridfreq.sim` (time-domain integration and metrics),
:mod:`gridfreq.io` / :mod:`gridfreq.cli` (documents and the command line).
"""

import os

# One BLAS thread unless the caller sets another count: more threads make no
# gridfreq workload faster, and they change the last digits of load-bus
# documents' outputs.  OpenBLAS reads this when numpy first loads it, so it
# must come before any import of numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .analysis import (
    H2Result,
    ModalDecomposition,
    OptimalAllocation,
    OptimalityReport,
    h2_fleet_closed_form,
    h2_frequency_weighted,
    h2_gramian,
    modal_decompose,
    mode_norms,
    optimal_allocation,
    solve_lyapunov,
    verify_steady_state_optimality,
)
from .control import (
    InverterConfig,
    InverterMode,
    NoiseGains,
    StabilityCertificate,
    StabilityCondition,
    check_decentralized_stability,
    uniform_fleet,
)
from .dynamics import StateSpaceModel, SteadyState, assemble_closed_loop, steady_state
from .errors import GridFreqError, NumericalError, SimulationDiverged, ValidationError
from .io import (
    NetworkDocument,
    ReducedSystem,
    load_document,
    load_sweep_spec,
    parse_document,
    parse_sweep_spec,
    reduce_document,
)
from .network import (
    Bus,
    Line,
    PowerNetwork,
    build_laplacian,
    kron_reduce,
    kron_reduce_network,
    validate_network,
)
from .sim import (
    Disturbance,
    Metrics,
    SimConfig,
    Trajectory,
    compute_metrics,
    simulate_deterministic,
    simulate_stochastic,
)
from .sweep import SweepAxis, SweepSpec, run_sweep

__version__ = "0.1.0"
