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


def _internal_integrand(p, Z, alpha, params):
    """p*(alpha/(gamma_plus-1) + (1-alpha)/(gamma_minus-1)) where Z > 0, else 0.

    At vacuum alpha is NaN, which the product carries silently until the
    ``np.where`` drops it.
    """
    gp, gm = params.gamma_plus, params.gamma_minus
    return np.where(Z > 0.0, p * (alpha / (gp - 1.0) + (1.0 - alpha) / (gm - 1.0)), 0.0)


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

    ``ev`` is the state's ``Evaluation``. Vacuum points (Z = 0) have a NaN
    alpha, which ``fmin`` and ``fmax`` skip, so they pass without a gather.
    """
    a = ev.alpha
    if np.fmin.reduce(a, axis=None) < -ALPHA_TOL or np.fmax.reduce(a, axis=None) > 1.0 + ALPHA_TOL:
        raise ConsistencyError(
            f"volume fraction left [0,1] beyond {ALPHA_TOL} at t={state.t}"
        )


def total_energy(state, params, ev) -> EnergyReport:
    """Kinetic + internal energy of a state, with the dissipation rate.

    ``ev`` is the state's ``Evaluation``. The internal energy is taken only
    after ``check_volume_fraction`` passes. This is the library entry and
    the oracle of the diagnostics rows of ``dynamics.Rows``, which feed the
    same integrals the pressure and dissipation density of their stage-1
    ``rhs``; here they come from ``closure.pressure`` and ``grids.gradient``.

    The dissipation density mu*sum_ij (d_i u_j)**2 + (mu+lam)*(div u)**2
    sums the squares with i outer and j inner, and div u is the Jacobian's
    diagonal summed in axis order, which equals ``grids.divergence`` bit
    for bit without taking its differences again.
    """
    check_volume_fraction(state, ev)
    p = closure.pressure(ev.Z, params.closure)
    g = state.grid
    jac = grids.gradient(g, ev.u)
    div = sum((jac[i, i] for i in range(1, g.dim)), jac[0, 0])
    density = params.mu * np.sum(jac * jac, axis=(0, 1)) + (params.mu + params.lam) * div**2
    return _report(state, params, ev, p, density)


def _report(state, params, ev, p, density) -> EnergyReport:
    """The integrals of ``total_energy``, from the state's pointwise fields.

    ``p`` is the pressure Z**gamma_plus and ``density`` the dissipation
    density of the state's ``ev``, whose volume fraction has passed
    ``check_volume_fraction``; the kinetic term reads the speed ``ev.speed``.
    """
    g = state.grid
    kinetic = 0.5 * grids.integrate(g, (state.R + state.Q) * ev.speed**2)
    internal = _internal_integrand(p, ev.Z, ev.alpha, params.closure)
    return EnergyReport(
        t=state.t,
        kinetic=kinetic,
        internal=grids.integrate(g, internal),
        dissipation_rate=grids.integrate(g, density),
    )


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
