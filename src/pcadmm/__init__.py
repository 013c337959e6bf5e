"""Prediction-correction splitting solvers for separable convex
programs with linear equality or inequality constraints.

The library couples cheap Gauss-Seidel prediction sweeps with an even
cheaper aggregate correction step, in two update orders (primal blocks
first or multiplier first), uniformly over any number of blocks.  A
verification layer builds the certificate matrices behind the
convergence guarantee and machine-checks them, and benchmark generators
with independent oracles make the contraction property directly
testable.
"""

from .corrector import *  # noqa: F401,F403
from .matrices import *  # noqa: F401,F403
from .model import *  # noqa: F401,F403
from .predictor import *  # noqa: F401,F403
from .problems import *  # noqa: F401,F403
from .prox import *  # noqa: F401,F403
from .solver import *  # noqa: F401,F403

__version__ = "0.1.0"
