"""Mean-energy gain of quantum oscillators under cyclic frequency variation.

The package propagates a harmonic oscillator with time-dependent frequency
through its 2x2 symplectic Heisenberg matrix, in closed form for three
frequency families (inverse-linear, power-law, exponential) and by adaptive
integration for everything else, and exposes the machinery around the core
statement: a stationary state taken around any frequency cycle ends with
mean energy E_fin = R E_in, R = Tr[S S^T]/2 >= 1.
"""

from .errors import (
    DomainError,
    IntegrationError,
    QuadratureError,
    SymplecticError,
)
from .core import (
    DET_TOL_INPUT,
    BogoliubovPair,
    Covariance,
    EvolutionMatrix,
    StationaryState,
    compose,
    final_energy,
    gain_factor,
    random_symplectic,
    symplectic_error,
    to_bogoliubov,
)
from .profiles import (
    Custom,
    Exponential,
    Fourier,
    FrequencyProfile,
    InverseLinear,
    Piecewise,
    PowerLaw,
    SineSeries,
    Tabulated,
    TimeReversed,
)
from .closed_form import (
    ExponentPair,
    asymptotic_energy,
    energy_inverse_linear,
    exponent_pair,
    propagate_exponential,
    propagate_inverse_linear,
    propagate_power_law,
)
from .ode import (
    DEFAULT_CONFIG,
    ForcedResult,
    IntegratorConfig,
    forced_final_energy,
    propagate_forced,
    propagate_forced_batch,
    propagate_ode,
    propagate_ode_batch,
)
from .cycles import (
    FAMILIES,
    CycleSpec,
    GridAxis,
    ScanResult,
    build_cycle,
    build_cycles,
    cycle_gain,
    leg,
    legs,
    find_unity_points,
    random_cycle_gain,
    random_cycle_spec,
    random_fourier_profile,
    random_piecewise_cycle,
    scan_gain,
)
from .perturbation import (
    Drive,
    InequalityReport,
    WindowedCarrier,
    check_inequality,
    first_order_energy_shift,
    transition_probability,
    x_power_matrix,
)
from .cavity import (
    BOLTZMANN_K,
    LIGHT_C,
    PLANCK_H,
    STEFAN_SIGMA,
    WIEN_X,
    CavitySpec,
    PlanckShift,
    SonoEstimate,
    WindowedCoupling,
    multimode_from_hamiltonian,
    multimode_from_hamiltonian_batch,
    planck_density,
    random_coupling,
    shift_planck_spectrum,
    sonoluminescence_estimate,
    thermal_occupation,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "DomainError",
    "IntegrationError",
    "QuadratureError",
    "SymplecticError",
    # core
    "DET_TOL_INPUT",
    "BogoliubovPair",
    "Covariance",
    "EvolutionMatrix",
    "StationaryState",
    "compose",
    "final_energy",
    "gain_factor",
    "random_symplectic",
    "symplectic_error",
    "to_bogoliubov",
    # profiles
    "Custom",
    "Exponential",
    "Fourier",
    "FrequencyProfile",
    "InverseLinear",
    "Piecewise",
    "PowerLaw",
    "SineSeries",
    "Tabulated",
    "TimeReversed",
    # closed forms
    "ExponentPair",
    "asymptotic_energy",
    "energy_inverse_linear",
    "exponent_pair",
    "propagate_exponential",
    "propagate_inverse_linear",
    "propagate_power_law",
    # numeric propagation
    "DEFAULT_CONFIG",
    "ForcedResult",
    "IntegratorConfig",
    "forced_final_energy",
    "propagate_forced",
    "propagate_forced_batch",
    "propagate_ode",
    "propagate_ode_batch",
    # cycles and scans
    "FAMILIES",
    "CycleSpec",
    "GridAxis",
    "ScanResult",
    "build_cycle",
    "build_cycles",
    "cycle_gain",
    "leg",
    "legs",
    "find_unity_points",
    "random_cycle_gain",
    "random_cycle_spec",
    "random_fourier_profile",
    "random_piecewise_cycle",
    "scan_gain",
    # perturbation
    "Drive",
    "InequalityReport",
    "WindowedCarrier",
    "check_inequality",
    "first_order_energy_shift",
    "transition_probability",
    "x_power_matrix",
    # multimode and cavity
    "BOLTZMANN_K",
    "LIGHT_C",
    "PLANCK_H",
    "STEFAN_SIGMA",
    "WIEN_X",
    "CavitySpec",
    "PlanckShift",
    "SonoEstimate",
    "WindowedCoupling",
    "multimode_from_hamiltonian",
    "multimode_from_hamiltonian_batch",
    "planck_density",
    "random_coupling",
    "shift_planck_spectrum",
    "sonoluminescence_estimate",
    "thermal_occupation",
]
