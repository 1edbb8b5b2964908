"""Frequency dynamics of inverter-controlled power networks.

Library layout: :mod:`gridfreq.network` (graph, Laplacian, Kron reduction),
:mod:`gridfreq.control` (inverter configs, stability certificate),
:mod:`gridfreq.dynamics` (closed-loop assembly, steady states),
:mod:`gridfreq.analysis` (H2 norms, modal decomposition, dispatch optimality),
:mod:`gridfreq.sim` (time-domain integration and metrics),
:mod:`gridfreq.io` / :mod:`gridfreq.cli` (documents and the command line).
The package exports exactly the names in its modules' ``__all__`` lists.
"""

import os

# One BLAS thread unless the caller sets another count: more threads make no
# gridfreq workload faster, and they change the last digits of load-bus
# documents' outputs.  OpenBLAS reads this when numpy first loads it, so it
# must come before any import of numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .analysis import *
from .control import *
from .dynamics import *
from .errors import *
from .io import *
from .network import *
from .sim import *
from .sweep import *

__version__ = "0.1.0"
