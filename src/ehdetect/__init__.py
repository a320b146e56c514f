"""Optimal transmit-power maps for energy-harvesting distributed detection.

The package splits along the pipeline: config carries the scenario types and
file format, detection the divergence surrogate, battery the harvest chain,
optimizer the constrained power allocation, simulator the Monte Carlo
validation, and cli the command-line front end. The package re-exports each
module's ``__all__`` except cli's, so a module's ``__all__`` is the one list
of what it publishes.

Importing the package before numpy runs OpenBLAS on one thread unless
OPENBLAS_NUM_THREADS is already set: OpenBLAS splits a solve by its thread
count, which moves the last bits of the battery laws and so of the CSV
tables. An explicit setting always wins, child processes inherit the
variable, and where numpy was imported first (or another BLAS, such as MKL,
is in use) the default has no effect.
"""

import os

# numpy reads it once, at its first import, which the submodules below make
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .battery import *  # noqa: E402,F401,F403
from .config import *  # noqa: E402,F401,F403
from .detection import *  # noqa: E402,F401,F403
from .optimizer import *  # noqa: E402,F401,F403
from .simulator import *  # noqa: E402,F401,F403

__version__ = "0.1.0"
