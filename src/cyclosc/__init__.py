"""Mean-energy gain of quantum oscillators under cyclic frequency variation.

The package propagates a harmonic oscillator with time-dependent frequency
through its 2x2 symplectic Heisenberg matrix, in closed form for three
frequency families (inverse-linear, power-law, exponential) and by adaptive
integration for everything else, and exposes the machinery around the core
statement: a stationary state taken around any frequency cycle ends with
mean energy E_fin = R E_in, R = Tr[S S^T]/2 >= 1.
"""

from .errors import *
from .core import *
from .profiles import *
from .closed_form import *
from .ode import *
from .cycles import *
from .perturbation import *
from .cavity import *

__version__ = "0.1.0"

# each library module's __all__ is its public surface, declared there once
__all__ = [
    "__version__",
    *errors.__all__,
    *core.__all__,
    *profiles.__all__,
    *closed_form.__all__,
    *ode.__all__,
    *cycles.__all__,
    *perturbation.__all__,
    *cavity.__all__,
]
