"""Reference computations the output checks rely on.

These deliberately avoid ``twofluid.closure`` and ``twofluid.energy``: the
closure root comes from plain bisection, integrals from an explicit
trapezoid loop, and the internal energy from the phase-split integrand
rather than the program's simplified form.
"""

from __future__ import annotations

import numpy as np

BISECTION_MAX_ITER = 2200


def closure_root(R, Q, gamma_plus: float, gamma_minus: float) -> np.ndarray:
    """Z >= R with (1 - R/Z) Z**gamma = Q, by bisection to the last ulp.

    Degenerate points follow the closure's definition: Q = 0 gives Z = R,
    R = 0 gives Z = Q**(1/gamma), and R = Q = 0 gives Z = 0.
    """
    R = np.asarray(R, dtype=float)
    Q = np.asarray(Q, dtype=float)
    gamma = gamma_plus / gamma_minus
    R, Q = np.broadcast_arrays(R, Q)
    Z = np.zeros(R.shape)
    q_zero = Q == 0.0
    r_zero = (R == 0.0) & ~q_zero
    Z[q_zero] = R[q_zero]
    Z[r_zero] = np.power(Q[r_zero], 1.0 / gamma)
    general = ~(q_zero | r_zero)
    if not general.any():
        return Z
    r, q = R[general], Q[general]
    # F(z) = (1 - r/z) z**gamma - q rises from -q at z = r and is positive
    # at max(2r, (2q)**(1/gamma)), so the root lies in that bracket.
    lo = r.copy()
    hi = np.maximum(2.0 * r, np.power(2.0 * q, 1.0 / gamma))
    for _ in range(BISECTION_MAX_ITER):
        mid = 0.5 * (lo + hi)
        moving = (mid > lo) & (mid < hi)
        if not moving.any():
            break
        below = (1.0 - r / mid) * mid**gamma - q < 0.0
        lo = np.where(moving & below, mid, lo)
        hi = np.where(moving & ~below, mid, hi)
    else:
        raise RuntimeError("bisection did not reach the last ulp")
    f_lo = np.abs((1.0 - r / lo) * lo**gamma - q)
    f_hi = np.abs((1.0 - r / hi) * hi**gamma - q)
    Z[general] = np.where(f_lo <= f_hi, lo, hi)
    return Z


def cumulative_trapezoid(t, y) -> np.ndarray:
    """Running trapezoid integral of y over t, starting at 0."""
    t = [float(v) for v in t]
    y = [float(v) for v in y]
    out = [0.0]
    for i in range(1, len(t)):
        out.append(out[-1] + 0.5 * (y[i] + y[i - 1]) * (t[i] - t[i - 1]))
    return np.asarray(out)


def internal_energy_density(R, Q, Z, gamma_plus: float, gamma_minus: float):
    """Phase-split integrand (R/a)^g+ a/(g+-1) + (Q/(1-a))^g- (1-a)/(g--1).

    a = R/Z is the volume fraction. A phase with a = 0 or a = 1 is absent and
    contributes nothing; vacuum (Z = 0) contributes nothing either.
    """
    R, Q, Z = (np.asarray(v, dtype=float) for v in (R, Q, Z))
    out = np.zeros(Z.shape)
    pos = Z > 0.0
    a = np.zeros(Z.shape)
    a[pos] = R[pos] / Z[pos]
    plus = pos & (a > 0.0)
    minus = pos & (a < 1.0)
    out[plus] += (R[plus] / a[plus]) ** gamma_plus * a[plus] / (gamma_plus - 1.0)
    out[minus] += (
        (Q[minus] / (1.0 - a[minus])) ** gamma_minus
        * (1.0 - a[minus])
        / (gamma_minus - 1.0)
    )
    return out
