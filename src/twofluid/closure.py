"""Implicit algebraic pressure closure for the two-fluid mixture.

Given phase densities (R, Q), the closure picks the unique Z >= R with

    (1 - R/Z) * Z**gamma = Q,        gamma = gamma_plus / gamma_minus,

and exposes the pressure Z**gamma_plus, the volume fraction alpha = R/Z and
the partial derivatives of Z with respect to either density.

Every solve is bracketed: F(Z) = Z**gamma - R*Z**(gamma-1) is strictly
increasing on [R, inf) with F(R) = 0, and the root never exceeds
max(2R, (2Q)**(1/gamma)), so a Newton iteration with bisection fallback
cannot escape the bracket; a bracket that overflows is a DomainError, as is
an R = 0 root Q**(1/gamma) that overflows. A
point converges when its residual meets the tolerance, or when its bracket
holds no double strictly inside: where Z**gamma >> Q the residual's
rounding exceeds the absolute tolerance, and the collapsed bracket pins the
root as closely as doubles can. Only a point that runs out of ``MAX_ITER``
iterations first raises ConvergenceError.

Newton starts at the bracket midpoint, or at a caller's ``guess`` clipped
into the bracket (time integration passes the previous state's Z, which
saves two of the five Newton steps of a cold start), and one clipped Newton
polish step after convergence pushes the residual to the rounding floor.
The iteration runs on full-length arrays: converged points are frozen in
place rather than gathered out, so the last sweep has evaluated the residual
at every root and the polish step reuses it. A warm solve of a nearby state
then costs four residual evaluations (three sweeps and the polished point).
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


def _newton_point(z, f, fp):
    """The Newton point z - f/fp, without a divide-by-zero warning.

    The slope underflows to 0 where z**gamma does, as at a guess clipped to
    Z_EPS. The infinite point is outside every bracket, so the sweep bisects
    and the polish clips it into the bracket. Overflow and invalid values
    still warn.
    """
    with np.errstate(divide="ignore"):
        return z - f / fp


def _pinned(z, lo, hi):
    """Lanes whose bracket has collapsed onto a finite z.

    After the first update z lies strictly inside its bracket, as a Newton
    point or as the midpoint, unless no double lies strictly inside: then
    the midpoint rounds onto an end and z can never move again. A midpoint
    that overflows to inf is not pinned; that lane exhausts its budget.
    """
    return ((z <= lo) | (z >= hi)) & (z < np.inf)


def _overflow(what: str, R, Q, finite) -> DomainError:
    """The error for the first lane whose ``what`` is not finite."""
    i = int(np.argmin(finite))
    return DomainError(f"closure {what} overflows at R={float(R[i])}, Q={float(Q[i])}")


def _bracketed_newton(R, Q, gamma, guess=None):
    """Vectorised safeguarded Newton on flat arrays with R > 0, Q > 0.

    Every sweep evaluates all lanes. A lane whose residual meets
    TOL_ABS + TOL_REL*max(1, Q), or that is pinned by a collapsed bracket, is
    frozen: one ``np.where`` keeps its z while the other lanes move on, and
    the loop ends once every lane is frozen. A pinned lane can never move, so
    the second test only stops lanes that would otherwise exhaust
    ``MAX_ITER``. The last sweep's residual and slope are then those of the
    frozen roots, and the one clipped polish step afterwards starts from
    them; it pushes residuals to the rounding floor, well below the
    tolerance. Lanes never mix, so a lane's root does not depend on the
    other lanes of the batch.
    """
    lo0 = np.maximum(R, Z_EPS)
    with np.errstate(over="ignore"):
        hi0 = np.maximum(2.0 * R, np.power(2.0 * Q, 1.0 / gamma))
    if not np.isfinite(hi0).all():
        raise _overflow("upper bracket max(2R, (2Q)**(1/gamma))", R, Q, np.isfinite(hi0))
    z = 0.5 * (lo0 + hi0) if guess is None else np.clip(guess, lo0, hi0)

    lo, hi = lo0, hi0
    ftol = TOL_ABS + TOL_REL * np.maximum(1.0, Q)
    done = np.zeros(z.shape, dtype=bool)
    for k in range(MAX_ITER):
        f, fp = _residual_slope(R, Q, z, gamma)
        done |= np.abs(f) <= ftol
        if k:  # a clipped guess may start on an end of an open bracket
            done |= _pinned(z, lo, hi)
        if done.all():
            break
        neg = f < 0.0
        lo = np.where(neg, z, lo)
        hi = np.where(neg, hi, z)
        z_new = _newton_point(z, f, fp)
        inside = (z_new > lo) & (z_new < hi)
        z = np.where(done, z, np.where(inside, z_new, 0.5 * (lo + hi)))
    else:
        # Lanes updated on the last sweep never saw a convergence test.
        f, fp = _residual_slope(R, Q, z, gamma)
        done |= (np.abs(f) <= ftol) | _pinned(z, lo, hi)
        if not done.all():
            i = int(np.flatnonzero(~done)[0])
            bracket = (float(lo[i]), float(hi[i]))
            raise ConvergenceError(
                f"closure solve exhausted {MAX_ITER} iterations "
                f"(R={float(R[i])}, Q={float(Q[i])}, bracket=[{bracket[0]}, {bracket[1]}])",
                bracket=bracket,
                index=i,
            )

    z_new = np.clip(_newton_point(z, f, fp), lo0, hi0)
    f_new, _ = _residual_slope(R, Q, z_new, gamma)
    return np.where(np.abs(f_new) < np.abs(f), z_new, z)


def _solve_z_arrays(R, Q, gamma, guess=None):
    """Dispatch degenerate branches, then Newton on the rest. Flat arrays.

    A ConvergenceError's ``index`` is the failing lane's index in R.
    """
    if R.all() and Q.all():  # no degenerate lane: skip the gather and scatter
        return _bracketed_newton(R, Q, gamma, guess)
    Z = np.empty_like(R)
    q_zero = Q == 0.0
    r_zero = (R == 0.0) & ~q_zero
    general = np.flatnonzero(~(q_zero | r_zero))
    Z[q_zero] = R[q_zero]  # F(R) = 0 and F strictly increasing, so Z = R
    with np.errstate(over="ignore"):
        Z[r_zero] = root = np.power(Q[r_zero], 1.0 / gamma)
    if not np.isfinite(root).all():
        raise _overflow("root Q**(1/gamma)", R[r_zero], Q[r_zero], np.isfinite(root))
    if general.size:
        start = None if guess is None else guess[general]
        try:
            Z[general] = _bracketed_newton(R[general], Q[general], gamma, start)
        except ConvergenceError as err:
            err.index = int(general[err.index])
            raise
    return Z


def _validate_inputs(R, Q):
    bad = ~(np.isfinite(R) & np.isfinite(Q) & (R >= 0.0) & (Q >= 0.0))
    if bad.any():
        i = tuple(int(k) for k in np.argwhere(bad)[0])
        where = f" at grid index {i}" if i else ""
        raise DomainError(
            f"closure inputs must be finite and nonnegative{where}: "
            f"R={float(R[i])}, Q={float(Q[i])}"
        )


def solve_Z(R: float, Q: float, params: ClosureParams) -> ClosurePoint:
    """Solve the closure for a single (R, Q) pair: ``solve_Z_field`` on 0-d arrays.

    Degenerate cases resolve without iteration: Q = 0 gives Z = R,
    R = 0 gives Z = Q**(1/gamma), and R = Q = 0 gives Z = 0 with alpha
    undefined (NaN).
    """
    Z, alpha = solve_Z_field(R, Q, params)
    return ClosurePoint(R=float(R), Q=float(Q), Z=float(Z), alpha=float(alpha))


def solve_Z_field(
    R: np.ndarray,
    Q: np.ndarray,
    params: ClosureParams,
    *,
    guess: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise closure solve over matching arrays; returns (Z, alpha).

    alpha is NaN wherever Z = 0. Points are independent, so the result does
    not depend on evaluation order.

    ``guess``, a finite array of R's shape such as the Z of a nearby state,
    starts Newton there instead of at the bracket midpoint. It changes the
    root by a few ulp at most, not the bracket or the tolerance.
    """
    R = np.asarray(R, dtype=float)
    Q = np.asarray(Q, dtype=float)
    if R.shape != Q.shape:
        raise DomainError(f"field shapes differ: {R.shape} vs {Q.shape}")
    _validate_inputs(R, Q)
    if guess is not None:
        guess = np.asarray(guess, dtype=float)
        if guess.shape != R.shape or not np.all(np.isfinite(guess)):
            raise DomainError(f"guess must be a finite array of shape {R.shape}")
        guess = guess.ravel()
    try:
        Z = _solve_z_arrays(R.ravel(), Q.ravel(), params.gamma, guess).reshape(R.shape)
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
