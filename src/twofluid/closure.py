"""Implicit algebraic pressure closure for the two-fluid mixture.

Given phase densities (R, Q), the closure picks the unique Z >= R with

    (1 - R/Z) * Z**gamma = Q,        gamma = gamma_plus / gamma_minus,

and exposes the pressure Z**gamma_plus, the volume fraction alpha = R/Z and
the partial derivatives of Z with respect to either density, on every lane a
solve returns: at vacuum (Z = 0) alpha and both derivatives are NaN.

Newton runs on the scaled residual g(z) = 1 - R/z - Q/z**gamma, which has
the same root and is increasing and concave for every gamma > 0, so a
Newton step from any z lands at or left of the root and from there climbs
to it: one monotone loop converges from any start. The root lies in
[lo, hi0] with lo = max(R, c*Q**(1/gamma)), c = max(1/2, (1/2)**(1/gamma)),
and hi0 = max(2R, (2Q)**(1/gamma)). An hi0 that overflows is a
DomainError, as is one whose power gamma overflows for gamma > 1 (the CSV
residual could not be evaluated on it), an lo whose power 1 - gamma
overflows for gamma > 1 (the scaled residual could not be evaluated on
it; a subnormal Q from gamma ~ 21.5 up), and an R = 0 root Q**(1/gamma)
that overflows. A lane stops once a step moves it by at most STEP_TOL =
2 eps relative, a stop that holds at every scale of R and Q; only a point
that runs out of ``MAX_ITER`` sweeps first raises ConvergenceError.

A cold solve starts at lo; a caller's ``guess`` (time integration passes the
previous state's Z), clipped into [lo, hi0], replaces that start. The
iteration runs on full-length arrays: stopped points are frozen in place
rather than gathered out. On (R, Q) in [0.5, 1.5]**2 at gamma = 3/4 a warm
solve of a nearby state costs four or five evaluations, a cold one eight or
nine. At gamma = 1/2 and gamma = 2 the closure is a quadratic (in sqrt(Z),
or in Z), and its closed-form root, clamped to hi0, is the root, with no
evaluation; ``guess`` goes unused there. Against a 50-digit oracle it is
within 2 ulp at gamma = 1/2 and 1 ulp at gamma = 2; a Newton sweep from
it makes it no more accurate (3 ulp and 1 ulp). Each check is one min or
max; only a failing one scans the lanes, to name the first. At 512 points
a solve takes about 36 us at gamma = 1/2 (2 vCPUs, numpy 2.4.6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError

STEP_TOL = 2.0 * np.finfo(float).eps
MAX_ITER = 200


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
    R, Q, Z = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (R, Q, Z)))
    scalar = Z.ndim == 0
    R, Q, Z = np.atleast_1d(R, Q, Z)
    # vacuum lanes take 0 - Q, whose 0 - 0 keeps the sign bit positive
    with np.errstate(divide="ignore", invalid="ignore"):
        res = np.where(Z > 0.0, (1.0 - R / Z) * Z**params.gamma - Q, 0.0 - Q)
    return float(res[0]) if scalar else res


def _residual_slope(R, Q, z, gamma):
    """Scaled residual g = 1 - R/z - Q/z**gamma and s = z*g'(z) at z > 0.

    Beyond gamma = 1, z**gamma underflows at a tiny Q, so Q/z**gamma is
    formed there as (Q/z) * z**(1-gamma): 1 - gamma is then exact, and at
    a z no smaller than the cold start lo of ``_newton_climb``, whose
    lo**(1-gamma) it checks, neither factor leaves the float range.
    gamma*u overflows only at a gamma near the float maximum, where
    |g/s| <= (1+u)/(gamma*u) is below STEP_TOL: the infinite s gives the
    zero step at which Newton stops anyway.
    """
    w = R / z
    u = Q / z * z ** (1.0 - gamma) if gamma > 1.0 else Q / z**gamma
    with np.errstate(over="ignore"):
        s = w + gamma * u
    return 1.0 - w - u, s


def _overflow(what: str, R, Q, values) -> DomainError:
    """The error for the first lane whose ``what``, ``values``, is not finite."""
    i = int(np.argmin(np.isfinite(values)))
    return DomainError(f"closure {what} overflows at R={float(R[i])}, Q={float(Q[i])}")


def _upper_bracket(R, Q, gamma):
    """hi0 = max(2R, (2Q)**(1/gamma)) of each lane.

    An hi0 that overflows is a DomainError, as is, beyond gamma = 1, one
    whose power gamma overflows: the CSV residual's z**gamma could not be
    evaluated on it. hi0 and hi0**gamma rise with the lane, so each check
    reduces to the largest hi0 and scans lanes only to name the first.
    """
    with np.errstate(over="ignore"):
        hi0 = np.multiply(Q, 2.0)
        np.power(hi0, 1.0 / gamma, out=hi0)
        np.maximum(hi0, 2.0 * R, out=hi0)
        top = hi0.max()
        if not top < math.inf:
            raise _overflow("upper bracket max(2R, (2Q)**(1/gamma))", R, Q, hi0)
        if gamma > 1.0 and not top**gamma < math.inf:
            raise _overflow("residual z**gamma at the upper bracket", R, Q, hi0**gamma)
    return hi0


def _exact_start(R, Q, gamma):
    """The closed-form root at gamma = 1/2 or gamma = 2.

    At gamma = 1/2, s = sqrt(Z) solves s**2 - Q*s - R = 0, and Z is taken
    as R + Q*s rather than s*s: the two are equal, but the sum of positive
    terms rounds closer to the root (within 2 ulp of a 50-digit oracle,
    where s*s missed by more). At gamma = 2, Z solves Z**2 - R*Z - Q = 0
    (within 1 ulp). Both roots add positive terms, so neither cancels, and
    ``hypot`` keeps the discriminant finite. Only the root at gamma = 1/2
    can overflow, for a root near the float maximum, where the caller's
    clamp to hi0 takes over.
    """
    if gamma == 0.5:
        s = 0.5 * Q + 0.5 * np.hypot(Q, 2.0 * np.sqrt(R))
        with np.errstate(over="ignore"):
            return R + Q * s
    return 0.5 * R + 0.5 * np.hypot(R, 2.0 * np.sqrt(Q))


def _positive_root(R, Q, gamma, guess):
    """The root of each lane of flat arrays with R > 0, Q > 0, clamped to hi0.

    At gamma = 1/2 and 2 it is ``_exact_start``, else ``_newton_climb``.
    The closed form can pass hi0 by an ulp where the root equals hi0 (R =
    1.8051327534912551, Q = 6.517008515453843 at gamma = 2). It keeps
    Z >= R as rounded: it adds Q*s >= 0 to R, or halves R plus
    hypot(R, .) >= R (and >= 4.4e-162, past any subnormal R). So it needs
    no lo, whose power 1 - gamma could not overflow at gamma = 2 anyway.
    """
    hi0 = _upper_bracket(R, Q, gamma)
    closed = gamma in (0.5, 2.0)
    Z = _exact_start(R, Q, gamma) if closed else _newton_climb(R, Q, gamma, hi0, guess)
    return np.minimum(Z, hi0, out=Z)


def _newton_climb(R, Q, gamma, hi0, guess):
    """Vectorised Newton on the scaled residual, flat arrays with R > 0, Q > 0.

    g is increasing and concave, so a Newton step from any z lands at or
    left of the root, and from there Newton climbs to it. A cold start is
    lo = max(R, c*Q**(1/gamma)) with c = max(1/2, (1/2)**(1/gamma)), below
    the root Z >= Q**(1/gamma); c < 1 absorbs the rounding of 1/gamma,
    which moves Q**(1/gamma) by hundreds of ulp at extreme Q. c is 1/2
    below gamma = 1 and tends to 1 beyond it, since a sweep from the left
    climbs by a factor of only about 1 + 1/gamma: from half the root, a
    large gamma would exhaust ``MAX_ITER``. c scales the power, not Q,
    since (Q/2)**(1/gamma) underflows at a subnormal Q. A start from
    ``guess`` may lie right of the root: its first sweep stops a lane
    whose step is at most STEP_TOL relative either way, at the Newton
    point, and clips the others up to lo. After that a lane stops once it
    rises by at most STEP_TOL relative, keeping the larger of z and the
    Newton point. Stopped lanes keep their z, so a lane's root does not
    depend on the other lanes of the batch, and the loop ends once every
    lane has stopped. lo**(1-gamma) falls with the lane, so its check, like
    the upper bracket's, reduces to one extreme. ``guess`` is clipped to
    ``hi0``; the sweeps run outside ``errstate``, so their warnings surface.
    """
    with np.errstate(over="ignore"):
        lo = np.maximum(R, max(0.5, 0.5 ** (1.0 / gamma)) * np.power(Q, 1.0 / gamma))
        # beyond gamma = 1 the scaled residual's z**(1-gamma) can overflow above lo
        if gamma > 1.0 and not lo.min() ** (1.0 - gamma) < math.inf:
            raise _overflow("residual z**(1-gamma) at the lower bracket", R, Q, lo ** (1.0 - gamma))
        z = lo if guess is None else np.minimum(np.maximum(guess, lo), hi0)

    climbing = guess is None
    for k in range(MAX_ITER + 1):
        g, s = _residual_slope(R, Q, z, gamma)
        g /= s
        g *= z
        z_new = np.subtract(z, g, out=g)  # z - z*(g/s), in place
        if climbing:
            stop = np.subtract(z_new, z, out=s) <= STEP_TOL * z
            np.maximum(z_new, z, out=z_new)
        else:
            stop = np.abs(np.subtract(z_new, z, out=s), out=s) <= STEP_TOL * z
            np.maximum(z_new, lo, out=z_new)
            climbing = True
        if k:  # stopped lanes keep their z
            np.copyto(z_new, z, where=done)
            stop |= done
        z, done = z_new, stop
        if done.all():
            break
        if k == MAX_ITER:
            i = int(np.flatnonzero(~done)[0])
            bracket = (float(z[i]), float(hi0[i]))
            raise ConvergenceError(
                f"closure solve exhausted {MAX_ITER} iterations "
                f"(R={float(R[i])}, Q={float(Q[i])}, bracket=[{bracket[0]}, {bracket[1]}])",
                bracket=bracket,
                index=i,
            )
    return z


def _validate_inputs(R, Q) -> bool:
    """Whether every lane of R and Q is positive; a DomainError at the first bad lane."""
    if not R.size:
        return False
    r_min, q_min = R.min(), Q.min()
    if r_min >= 0.0 and q_min >= 0.0 and R.max() < math.inf and Q.max() < math.inf:
        return r_min > 0.0 and q_min > 0.0
    bad = ~(np.isfinite(R) & np.isfinite(Q) & (R >= 0.0) & (Q >= 0.0))
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
    starts Newton there instead of at the cold start. It changes the root
    by a few ulp at most. At gamma = 1/2 and gamma = 2 the closed-form root
    is the root, with no evaluation, and ``guess`` is validated but unused.
    """
    R = np.asarray(R, dtype=float)
    Q = np.asarray(Q, dtype=float)
    if R.shape != Q.shape:
        raise DomainError(f"field shapes differ: {R.shape} vs {Q.shape}")
    positive = _validate_inputs(R, Q)
    if guess is not None:
        guess = np.asarray(guess, dtype=float)
        finite = not guess.size or -math.inf < guess.min() <= guess.max() < math.inf
        if guess.shape != R.shape or not finite:
            raise DomainError(f"guess must be a finite array of shape {R.shape}")
        guess = guess.ravel()
    r, q = R.ravel(), Q.ravel()
    lanes = None  # the positive lanes, when some lane is not
    if not positive:
        Z = np.empty_like(r)
        q_zero = q == 0.0
        r_zero = (r == 0.0) & ~q_zero
        Z[q_zero] = r[q_zero]  # F(R) = 0 and F strictly increasing, so Z = R
        with np.errstate(over="ignore"):
            Z[r_zero] = root = np.power(q[r_zero], 1.0 / params.gamma)
        if not np.isfinite(root).all():
            raise _overflow("root Q**(1/gamma)", r[r_zero], q[r_zero], root)
        lanes = np.flatnonzero(~(q_zero | r_zero))
        r, q = r[lanes], q[lanes]
        guess = None if guess is None else guess[lanes]
    try:
        root = _positive_root(r, q, params.gamma, guess) if r.size else r
    except ConvergenceError as err:
        if R.ndim == 0:
            raise
        i = err.index if lanes is None else lanes[err.index]
        loc = tuple(int(k) for k in np.unravel_index(i, R.shape))
        msg = f"closure solve failed at grid index {loc}: {err}"
        raise ConvergenceError(msg, bracket=err.bracket, index=loc) from err
    if lanes is None:
        Z = root
    else:
        Z[lanes] = root
    Z = Z.reshape(R.shape)
    # Z >= R, and Z = 0 only where R = 0 too: 0/0 is the vacuum lanes' NaN
    with np.errstate(invalid="ignore"):
        alpha = np.divide(R, Z, out=np.empty_like(Z))
    return Z, alpha


def derivative_arrays(R, Z, gamma):
    """dZ/dR = 1/s and dZ/dQ = Z**(1-gamma)/s on arrays with Z >= R; NaN at Z = 0.

    s = gamma - (gamma-1)*alpha with alpha = R/Z in [0, 1], so s lies
    between min(1, gamma) and max(1, gamma) at every scale of R and Z, and
    both derivatives are positive. Rounding is monotone: for gamma <= 1,
    (gamma-1)*alpha rounds to at most 0, so s >= gamma and the bounds
    dZ/dR <= 1/gamma and dZ/dQ <= Z**(1-gamma)/gamma hold exactly. Vacuum
    lanes carry alpha's NaN into both. dZ/dQ past the float range
    (Z**(1-gamma) at a subnormal Z for gamma > 1, or s = 0 at alpha = 1
    beyond gamma = 2**53, where fl(gamma-1) = gamma) is a DomainError
    naming the first such lane's R and Z; ``fmax`` skips the NaN.
    """
    R = np.asarray(R, dtype=float)
    Z = np.asarray(Z, dtype=float)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        s = gamma - (gamma - 1.0) * (R / Z)
        dzr = 1.0 / s
        dzq = np.power(Z, 1.0 - gamma) / s
    if not max(np.fmax.reduce(d, axis=None, initial=0.0) for d in (dzr, dzq)) < math.inf:
        # s = 0 makes dZ/dR infinite and dZ/dQ infinite or 0/0
        bad = np.isinf(dzr) | np.isinf(dzq)
        i = np.unravel_index(int(np.argmax(bad)), bad.shape)
        raise DomainError(
            f"closure derivative overflows at R={float(R[i])}, Z={float(Z[i])}"
        )
    return dzr, dzq


def phase_swap_transform(R, Q, params: ClosureParams):
    """Mirror the problem by exchanging phases (and exponents).

    The swapped solve relates to the original through
    solve_Z(Q, R, swapped).Z == solve_Z(R, Q, params).Z ** params.gamma.
    """
    return Q, R, ClosureParams(params.gamma_minus, params.gamma_plus)
