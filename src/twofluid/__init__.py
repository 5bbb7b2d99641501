"""Two-fluid compressible flow laboratory with algebraic pressure closure."""

from .closure import (
    ClosureParams,
    ClosurePoint,
    phase_swap_transform,
    pressure,
    solve_Z,
    solve_Z_field,
    z_upper_bound,
)
from .dynamics import SimParams, State, Trajectory, rhs, run, stable_dt, step
from .energy import audit_energy, dissipation, total_energy
from .errors import ConfigError, ConsistencyError, ConvergenceError, DomainError
from .grids import PeriodicGrid
from .gronwall import (
    GronwallTrace,
    check_conclusion,
    check_hypothesis,
    classical_gronwall_bound,
)
from .twin import (
    PairDiagnostics,
    build_gronwall_trace,
    check_density_stability,
    check_mean_velocity,
    compare,
    fit_gronwall_constant,
    run_twin,
    stability_sweep,
)

__version__ = "0.1.0"
