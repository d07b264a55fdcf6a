"""Riemann-Liouville fractional Dirichlet problems with singular weights.

Solves D^alpha u + h(t) f(u) = 0 on (0, 1) with u(0) = u(1) = 0 for orders
alpha in (1, 2], where the weight h may blow up at the origin fast enough to
leave L^1 (anything with int_0^1 s^(alpha-1) h(s) ds finite is admitted).
Alongside the solver: exact closed-form calculus on power sums used as the
validation oracle, Green-kernel evaluation, graded-mesh singular quadrature,
a Gruenwald-Letnikov residual check, and a classifier for the boundary
regularity of solutions.
"""

# Each module's __all__ is the one list of its public names; the package
# republishes them.
from . import gammafn, green, powersum, quadrature, regularity, solve
from .gammafn import *
from .green import *
from .powersum import *
from .quadrature import *
from .regularity import *
from .solve import *

__version__ = "1.0.0"

__all__ = [
    "__version__",
    *gammafn.__all__,
    *green.__all__,
    *powersum.__all__,
    *quadrature.__all__,
    *regularity.__all__,
    *solve.__all__,
]
