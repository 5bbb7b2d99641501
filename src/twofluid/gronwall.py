"""Numerical checkers for the classical and generalized Gronwall inequalities.

The checkers work on sampled time series and assert the inequalities for
those samples only, within tolerances that fold in explicit estimates of the
finite-difference and trapezoidal-quadrature errors. They never assert the
underlying lemma itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

SLACK = 1e-8  # relative tolerance of both checks, on top of the error estimates


def cumulative_trapezoid(t: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Running trapezoidal integral of y over t, starting at 0."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    dt = np.diff(t)
    return np.concatenate(([0.0], np.cumsum(0.5 * (y[1:] + y[:-1]) * dt)))


def _cumulative_quad_error(t: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Running bound on the trapezoid error, (1/12) sum |second diff| * dt.

    Uses |y''| estimated from second differences of the samples, so it is a
    consistent O(dt^2) estimate on smooth data.
    """
    n = len(t)
    if n < 3:
        return np.zeros(n)
    dt = np.diff(t)
    mid = 0.5 * (dt[1:] + dt[:-1])
    ypp = np.abs((y[2:] - y[1:-1]) / dt[1:] - (y[1:-1] - y[:-2]) / dt[:-1]) / mid
    ypp = np.concatenate(([ypp[0]], ypp, [ypp[-1]]))
    per_interval = np.maximum(ypp[:-1], ypp[1:]) * dt**3 / 12.0
    return np.concatenate(([0.0], np.cumsum(per_interval)))


@dataclass(frozen=True)
class GronwallTrace:
    """Sampled (f, g', alpha, beta) functions on strictly increasing times."""

    t: np.ndarray
    f: np.ndarray
    gprime: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        arrays = (self.t, self.f, self.gprime, self.alpha, self.beta)
        lengths = {len(a) for a in arrays}
        if len(lengths) != 1:
            raise DomainError("trace arrays must share one length")
        if len(self.t) < 2:
            raise DomainError("trace needs at least two samples")
        if self.t[0] != 0.0:
            raise DomainError("trace time must start at 0")
        if not np.all(np.diff(self.t) > 0.0):
            raise DomainError("trace times must be strictly increasing")
        for name in ("f", "gprime", "alpha", "beta"):
            a = getattr(self, name)
            if not np.all(np.isfinite(a)):
                raise DomainError(f"trace field {name} contains non-finite samples")
            if np.any(a < 0.0):
                raise DomainError(f"trace field {name} must be nonnegative")

    def g(self) -> np.ndarray:
        """Cumulative integral of g', so g(0) = 0 by construction."""
        return cumulative_trapezoid(self.t, self.gprime)


@dataclass
class HypothesisReport:
    """Per-interval check of f' + (g')^2 <= alpha f + beta g g'."""

    t: np.ndarray  # left endpoints of the checked intervals
    lhs: np.ndarray
    rhs: np.ndarray
    tolerance: np.ndarray
    violations: np.ndarray  # interval indices where lhs > rhs + tolerance
    ok: bool


def check_hypothesis(trace: GronwallTrace) -> HypothesisReport:
    """Flag every interval where the differential hypothesis fails.

    f' is a forward difference, so an O(dt) discretization allowance
    (curvature of f plus drift of the right side across the interval) is
    added on top of the relative ``SLACK`` before an interval is flagged.
    """
    t, f, gp, al, be = trace.t, trace.f, trace.gprime, trace.alpha, trace.beta
    dt = np.diff(t)
    df = np.diff(f) / dt
    g = trace.g()
    rhs_samples = al * f + be * g * gp
    lhs = df + gp[:-1] ** 2
    rhs = rhs_samples[:-1]

    # O(dt) allowance: |f''| from second differences, right side drift.
    if len(t) >= 3:
        fpp = np.abs(np.diff(df)) / (0.5 * (dt[1:] + dt[:-1]))
        fpp = np.concatenate((fpp, [fpp[-1]]))
    else:
        fpp = np.zeros(len(dt))
    fd_allowance = dt * fpp + 0.5 * np.abs(np.diff(rhs_samples))
    tol = SLACK * np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs))) + fd_allowance
    violations = np.flatnonzero(lhs > rhs + tol)
    return HypothesisReport(
        t=t[:-1],
        lhs=lhs,
        rhs=rhs,
        tolerance=tol,
        violations=violations,
        ok=violations.size == 0,
    )


@dataclass
class ConclusionReport:
    """Evaluation of the generalized Gronwall conclusion on a trace."""

    t: np.ndarray
    margin: np.ndarray  # lhs(t) - f(0); the conclusion asserts margin <= 0
    tolerance: np.ndarray
    verdict: bool

    @property
    def max_margin(self) -> float:
        return float(np.max(self.margin))


def check_conclusion(trace: GronwallTrace) -> ConclusionReport:
    """Check e^(-int alpha) f + (e^(-int alpha) - 1/2 - 1/2 int tau beta^2) int (g')^2 <= f(0).

    All integrals are trapezoidal; the verdict tolerance propagates the
    quadrature error estimates of each integral through the expression. The
    hypothesis is not checked here; ``check_hypothesis`` does that.
    """
    t, f, gp, al, be = trace.t, trace.f, trace.gprime, trace.alpha, trace.beta
    A = cumulative_trapezoid(t, al)
    I2 = cumulative_trapezoid(t, gp**2)
    TB = cumulative_trapezoid(t, t * be**2)
    expA = np.exp(-A)
    coef = expA - 0.5 - 0.5 * TB
    lhs = expA * f + coef * I2
    margin = lhs - f[0]

    errA = _cumulative_quad_error(t, al)
    errI2 = _cumulative_quad_error(t, gp**2)
    errTB = _cumulative_quad_error(t, t * be**2)
    propagated = expA * (f + I2) * errA + (np.abs(coef) + 0.5 * errTB) * errI2 + 0.5 * I2 * errTB
    tol = SLACK * np.maximum(1.0, np.maximum(f[0], np.abs(lhs))) + propagated
    verdict = bool(np.all(margin <= tol))
    return ConclusionReport(t=t, margin=margin, tolerance=tol, verdict=verdict)


def classical_gronwall_bound(t, rate_series, forcing_series) -> np.ndarray:
    """Integrating-factor bound for y' <= a(t) y + b(t), y(0) = 0.

    Returns the trapezoidal evaluation of int_0^t exp(int_s^t a) b(s) ds.
    """
    t = np.asarray(t, dtype=float)
    a = np.asarray(rate_series, dtype=float)
    b = np.asarray(forcing_series, dtype=float)
    if np.any(a < 0.0) or np.any(b < 0.0):
        raise DomainError("classical_gronwall_bound requires nonnegative series")
    A = cumulative_trapezoid(t, a)
    inner = cumulative_trapezoid(t, np.exp(-A) * b)
    return np.exp(A) * inner
