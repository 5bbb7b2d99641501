"""Energy functional, dissipation rate and energy-inequality auditing.

The internal energy integrand is evaluated in the simplified form
Z**gamma_plus * (alpha/(gamma_plus-1) + (1-alpha)/(gamma_minus-1)), which
equals the phase-split form (R/alpha)**gamma_plus * alpha / (gamma_plus-1)
+ (Q/(1-alpha))**gamma_minus * (1-alpha) / (gamma_minus-1) wherever Z > 0;
vacuum points contribute zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import closure, grids
from .errors import ConsistencyError
from .gronwall import cumulative_trapezoid

ALPHA_TOL = 1e-12


@dataclass(frozen=True)
class EnergyReport:
    """Instantaneous energy split of one state."""

    t: float
    kinetic: float
    internal: float
    dissipation_rate: float


def _internal_integrand(Z, alpha, params):
    gp, gm = params.gamma_plus, params.gamma_minus
    pos = Z > 0.0
    out = np.zeros_like(Z)
    a = alpha[pos]
    out[pos] = Z[pos] ** gp * (a / (gp - 1.0) + (1.0 - a) / (gm - 1.0))
    return out


def internal_energy_raw(state, params) -> float:
    """Phase-split Definition-style integrand, for cross-checking.

    Terms with alpha = 0 or alpha = 1 take their continuous extension by 0.
    """
    gp = params.closure.gamma_plus
    gm = params.closure.gamma_minus
    Z, alpha = closure.solve_Z_field(state.R, state.Q, params.closure)
    out = np.zeros_like(Z)
    pos = Z > 0.0
    a = np.where(pos, alpha, 0.0)
    lo = pos & (a > 0.0)
    hi = pos & (a < 1.0)
    out[lo] += (state.R[lo] / a[lo]) ** gp * a[lo] / (gp - 1.0)
    out[hi] += (state.Q[hi] / (1.0 - a[hi])) ** gm * (1.0 - a[hi]) / (gm - 1.0)
    return grids.integrate(state.grid, out)


def check_volume_fraction(state, ev) -> None:
    """Raise ConsistencyError where alpha = R/Z leaves [0, 1] beyond ALPHA_TOL.

    ``ev`` is the state's ``Evaluation``; vacuum points (Z = 0) are skipped.
    """
    defined = ev.Z > 0.0
    if defined.any():
        a = ev.alpha[defined]
        if np.any(a < -ALPHA_TOL) or np.any(a > 1.0 + ALPHA_TOL):
            raise ConsistencyError(
                f"volume fraction left [0,1] beyond {ALPHA_TOL} at t={state.t}"
            )


def total_energy(state, params, ev) -> EnergyReport:
    """Kinetic + internal energy of a state, with the dissipation rate.

    ``ev`` is the state's ``Evaluation``. The internal energy is taken only
    after ``check_volume_fraction`` passes.
    """
    g = state.grid
    rho = state.R + state.Q
    mag2 = grids.pointwise_magnitude(g, ev.u) ** 2
    kinetic = 0.5 * grids.integrate(g, rho * mag2)

    check_volume_fraction(state, ev)
    internal = grids.integrate(g, _internal_integrand(ev.Z, ev.alpha, params.closure))
    return EnergyReport(
        t=state.t,
        kinetic=kinetic,
        internal=internal,
        dissipation_rate=dissipation(state, params, ev),
    )


def dissipation(state, params, ev) -> float:
    """Viscous dissipation rate, integral of mu|grad u|^2 + (mu+lam)(div u)^2.

    Only the velocity ``ev.u`` of the state's ``Evaluation`` is read. div u
    is the Jacobian's diagonal summed in axis order, which equals
    ``grids.divergence`` bit for bit without taking its differences again.
    """
    g = state.grid
    jac = grids.vector_gradient(g, ev.u)
    div = sum((jac[i, i] for i in range(1, g.dim)), jac[0, 0])
    quad = params.mu * np.sum(jac * jac, axis=(0, 1)) + (
        params.mu + params.lam
    ) * div**2
    return grids.integrate(g, quad)


@dataclass
class EnergyAudit:
    """Energy-inequality defect series along one trajectory."""

    t: np.ndarray
    energy: np.ndarray
    dissipation_rate: np.ndarray
    cumulative_dissipation: np.ndarray
    defect: np.ndarray

    @property
    def max_defect(self) -> float:
        return float(np.max(self.defect))


def audit_series(t, energy_series, dissipation_series) -> EnergyAudit:
    """Defect series from sampled E(t) and D(t).

    The dissipation integral uses trapezoidal quadrature; the defect is
    max(0, E(t) + integral of D - E(0)).
    """
    t = np.asarray(t, dtype=float)
    e = np.asarray(energy_series, dtype=float)
    d = np.asarray(dissipation_series, dtype=float)
    cum = cumulative_trapezoid(t, d)
    defect = np.maximum(0.0, e + cum - e[0])
    return EnergyAudit(
        t=t,
        energy=e,
        dissipation_rate=d,
        cumulative_dissipation=cum,
        defect=defect,
    )


def audit_energy(trajectory) -> EnergyAudit:
    """Audit the per-step diagnostics of a completed run."""
    diag = trajectory.diagnostics
    return audit_series(diag.t, diag.energy, diag.dissipation)
