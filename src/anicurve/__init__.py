"""Anisotropic expanding curvature flows of convex bodies.

Simulator, elliptic soliton solver, and numerical verification suite for
support-function flows with speed f * u^alpha * sigma_k^beta on axisymmetric
bodies in R^3.  The package exports each module's __all__.
"""

from .sphere import *
from .body import *
from .functionals import *
from .flow import *
from .soliton import *
from .counterexample import *
from .config import *
from .cli import *

__version__ = "0.1.0"
