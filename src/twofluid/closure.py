"""Implicit algebraic pressure closure for the two-fluid mixture.

Given phase densities (R, Q), the closure picks the unique Z >= R with

    (1 - R/Z) * Z**gamma = Q,        gamma = gamma_plus / gamma_minus,

and exposes the pressure Z**gamma_plus, the volume fraction alpha = R/Z and
the partial derivatives of Z with respect to either density.

Every solve is bracketed: F(Z) = Z**gamma - R*Z**(gamma-1) is strictly
increasing on [R, inf) with F(R) = 0, and the root never exceeds
max(2R, (2Q)**(1/gamma)), so a Newton iteration with bisection fallback
cannot escape and always converges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError

TOL_ABS = 1e-14
TOL_REL = 1e-12
MAX_ITER = 200

# Guard against division by zero when R underflows; never binds for R > 0.
Z_EPS = 1e-300


@dataclass(frozen=True)
class ClosureParams:
    """Adiabatic exponents of the two phases; both must exceed 1."""

    gamma_plus: float
    gamma_minus: float

    def __post_init__(self):
        for name in ("gamma_plus", "gamma_minus"):
            g = getattr(self, name)
            if not math.isfinite(g) or g <= 1.0:
                raise DomainError(f"{name} must exceed 1, got {g!r}")

    @property
    def gamma(self) -> float:
        """Exponent ratio gamma_plus / gamma_minus, recomputed on access."""
        return self.gamma_plus / self.gamma_minus


@dataclass(frozen=True)
class ClosurePoint:
    """One solved closure state; alpha is NaN at vacuum (Z = 0)."""

    R: float
    Q: float
    Z: float
    alpha: float


def z_upper_bound(R_sup, Q_sup, params: ClosureParams):
    """Upper bound max(2*R_sup, (2*Q_sup)**(1/gamma)) for the closure root."""
    R_sup = np.asarray(R_sup, dtype=float)
    Q_sup = np.asarray(Q_sup, dtype=float)
    if not (np.all(np.isfinite(R_sup)) and np.all(np.isfinite(Q_sup))):
        raise DomainError("z_upper_bound requires finite suprema")
    if np.any(R_sup < 0.0) or np.any(Q_sup < 0.0):
        raise DomainError("z_upper_bound requires nonnegative suprema")
    out = np.maximum(2.0 * R_sup, np.power(2.0 * Q_sup, 1.0 / params.gamma))
    return float(out) if out.ndim == 0 else out


def pressure(Z, params: ClosureParams):
    """Scalar pressure Z**gamma_plus."""
    Z = np.asarray(Z, dtype=float)
    out = np.power(Z, params.gamma_plus)
    return float(out) if out.ndim == 0 else out


def closure_residual(R, Q, Z, params: ClosureParams):
    """Defect (1 - R/Z)*Z**gamma - Q; the closure value is taken as 0 at Z = 0."""
    R, Q, Z = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (R, Q, Z))
    )
    scalar = Z.ndim == 0
    R, Q, Z = np.atleast_1d(R, Q, Z)
    res = 0.0 - Q  # 0 - 0 keeps the sign bit positive at vacuum
    pos = Z > 0.0
    zp = Z[pos]
    res[pos] = (1.0 - R[pos] / zp) * zp**params.gamma - Q[pos]
    return float(res[0]) if scalar else res


def _residual_slope(R, Q, z, gamma):
    """Residual f and derivative df/dz of the closure at z > 0."""
    w = R / z
    zg = z**gamma
    f = (1.0 - w) * zg - Q
    fp = zg / z * (gamma - (gamma - 1.0) * w)
    return f, fp


def _bracketed_newton(R, Q, gamma, tol_abs, tol_rel, max_iter):
    """Vectorised safeguarded Newton on flat arrays with R > 0, Q > 0.

    Lanes whose residual meets tol_abs + tol_rel*max(1, Q) drop out of the
    working set. Two clipped polish steps afterwards push residuals to the
    rounding floor, well below the advertised tolerance.
    """
    lo0 = np.maximum(R, Z_EPS)
    hi0 = np.maximum(2.0 * R, np.power(2.0 * Q, 1.0 / gamma))
    z_out = 0.5 * (lo0 + hi0)

    idx = np.arange(z_out.size)
    R_, Q_, z_ = R.copy(), Q.copy(), z_out.copy()
    lo_, hi_ = lo0.copy(), hi0.copy()
    ftol_ = tol_abs + tol_rel * np.maximum(1.0, Q_)
    for _ in range(max_iter):
        f, fp = _residual_slope(R_, Q_, z_, gamma)
        conv = np.abs(f) <= ftol_
        if conv.any():
            z_out[idx[conv]] = z_[conv]
            keep = ~conv
            idx, R_, Q_, z_, lo_, hi_, ftol_, f, fp = (
                a[keep] for a in (idx, R_, Q_, z_, lo_, hi_, ftol_, f, fp)
            )
            if idx.size == 0:
                break
        neg = f < 0.0
        lo_ = np.where(neg, z_, lo_)
        hi_ = np.where(neg, hi_, z_)
        z_new = z_ - f / fp
        inside = (z_new > lo_) & (z_new < hi_)
        z_ = np.where(inside, z_new, 0.5 * (lo_ + hi_))
    else:
        # Lanes updated on the last sweep never saw a convergence test.
        f, _ = _residual_slope(R_, Q_, z_, gamma)
        conv = np.abs(f) <= ftol_
        z_out[idx[conv]] = z_[conv]
        if not conv.all():
            stuck = ~conv
            i = int(idx[stuck][0])
            raise ConvergenceError(
                f"closure solve exhausted {max_iter} iterations at flat index {i} "
                f"(R={R_[stuck][0]!r}, Q={Q_[stuck][0]!r}, "
                f"bracket=[{lo_[stuck][0]!r}, {hi_[stuck][0]!r}])",
                bracket=(float(lo_[stuck][0]), float(hi_[stuck][0])),
                index=i,
            )

    for _ in range(2):
        f, fp = _residual_slope(R, Q, z_out, gamma)
        z_new = np.clip(z_out - f / fp, lo0, hi0)
        f_new, _ = _residual_slope(R, Q, z_new, gamma)
        z_out = np.where(np.abs(f_new) < np.abs(f), z_new, z_out)
    return z_out


def _solve_z_arrays(R, Q, gamma, tol_abs, tol_rel, max_iter):
    """Dispatch degenerate branches, then Newton on the rest. Flat arrays."""
    Z = np.empty_like(R)
    q_zero = Q == 0.0
    r_zero = (R == 0.0) & ~q_zero
    general = ~(q_zero | r_zero)
    Z[q_zero] = R[q_zero]  # F(R) = 0 and F strictly increasing, so Z = R
    Z[r_zero] = np.power(Q[r_zero], 1.0 / gamma)
    if general.any():
        Z[general] = _bracketed_newton(
            R[general], Q[general], gamma, tol_abs, tol_rel, max_iter
        )
    return Z


def _validate_inputs(R, Q):
    bad = ~(np.isfinite(R) & np.isfinite(Q) & (R >= 0.0) & (Q >= 0.0))
    if bad.any():
        i = np.argwhere(bad)[0]
        loc = tuple(int(k) for k in i)
        raise DomainError(
            f"closure inputs must be finite and nonnegative; offending point "
            f"{loc}: R={R[tuple(i)]!r}, Q={Q[tuple(i)]!r}"
        )


def solve_Z(
    R: float,
    Q: float,
    params: ClosureParams,
    *,
    tol_abs: float = TOL_ABS,
    tol_rel: float = TOL_REL,
    max_iter: int = MAX_ITER,
) -> ClosurePoint:
    """Solve the closure for a single (R, Q) pair.

    Degenerate cases resolve without iteration: Q = 0 gives Z = R,
    R = 0 gives Z = Q**(1/gamma), and R = Q = 0 gives Z = 0 with alpha
    undefined (NaN).
    """
    Ra = np.asarray([R], dtype=float)
    Qa = np.asarray([Q], dtype=float)
    _validate_inputs(Ra, Qa)
    z = float(_solve_z_arrays(Ra, Qa, params.gamma, tol_abs, tol_rel, max_iter)[0])
    alpha = R / z if z > 0.0 else math.nan
    return ClosurePoint(R=float(R), Q=float(Q), Z=z, alpha=alpha)


def solve_Z_field(
    R: np.ndarray,
    Q: np.ndarray,
    params: ClosureParams,
    *,
    tol_abs: float = TOL_ABS,
    tol_rel: float = TOL_REL,
    max_iter: int = MAX_ITER,
) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise closure solve over matching arrays; returns (Z, alpha).

    alpha is NaN wherever Z = 0. Points are independent, so the result does
    not depend on evaluation order.
    """
    R = np.asarray(R, dtype=float)
    Q = np.asarray(Q, dtype=float)
    if R.shape != Q.shape:
        raise DomainError(f"field shapes differ: {R.shape} vs {Q.shape}")
    _validate_inputs(R, Q)
    try:
        Z = _solve_z_arrays(
            R.ravel(), Q.ravel(), params.gamma, tol_abs, tol_rel, max_iter
        ).reshape(R.shape)
    except ConvergenceError as err:
        if err.index is not None and R.ndim > 0:
            loc = np.unravel_index(err.index, R.shape)
            raise ConvergenceError(
                f"closure solve failed at grid index {tuple(int(k) for k in loc)}: {err}",
                bracket=err.bracket,
                index=tuple(int(k) for k in loc),
            ) from err
        raise
    pos = Z > 0.0
    alpha = np.full_like(Z, np.nan)
    np.divide(R, Z, out=alpha, where=pos)
    return Z, alpha


def derivative_arrays(R, Z, gamma):
    """Analytic dZ/dR and dZ/dQ on arrays with Z > 0.

    For gamma <= 1 the exact inequalities |dZ/dR| <= 1/gamma and
    |dZ/dQ| <= Z**(1-gamma)/gamma hold in real arithmetic; rounding can
    overshoot them by an ulp, so the values are clipped to the bounds.

    At subnormal points gamma*Z - (gamma-1)*R can underflow; those lanes
    divide by its alpha = R/Z form, gamma - (gamma-1)*alpha, instead.
    """
    R = np.asarray(R, dtype=float)
    Z = np.asarray(Z, dtype=float)
    denom = gamma * Z - (gamma - 1.0) * R
    under = np.abs(denom) < np.finfo(float).tiny
    if under.any():
        scaled = np.where(under, gamma - (gamma - 1.0) * (R / Z), 1.0)
        denom = np.where(under, 1.0, denom)
        dzr = np.where(under, 1.0 / scaled, Z / denom)
        dzq = np.where(
            under,
            np.power(Z, 1.0 - gamma) / scaled,
            np.power(Z, 2.0 - gamma) / denom,
        )
    else:
        dzr = Z / denom
        dzq = np.power(Z, 2.0 - gamma) / denom
    if gamma <= 1.0:
        dzr = np.minimum(dzr, 1.0 / gamma)
        dzq = np.minimum(dzq, np.power(Z, 1.0 - gamma) / gamma)
    return dzr, dzq


def phase_swap_transform(R, Q, params: ClosureParams):
    """Mirror the problem by exchanging phases (and exponents).

    The swapped solve relates to the original through
    solve_Z(Q, R, swapped).Z == solve_Z(R, Q, params).Z ** params.gamma.
    """
    return Q, R, ClosureParams(params.gamma_minus, params.gamma_plus)
