import decimal
import itertools
import math
import struct
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from twofluid import closure
from twofluid.closure import ClosureParams
from twofluid.errors import ConvergenceError, DomainError

GAMMA_PAIRS = [(1.5, 4.5), (1.5, 3.0), (2.0, 2.0), (3.0, 1.5)]
# gamma = 1/2 and gamma = 2 take the closed-form root with no Newton; tests of
# the cold or warm start run at gamma = 3/4, which has none
GAMMA_3_4 = ClosureParams(1.5, 2.0)


def bisect_oracle(R, Q, gamma, lo, hi, tol=1e-12):
    """Plain bisection on (1 - R/Z) Z^gamma - Q, independent of the library."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (1.0 - R / mid) * mid**gamma - Q < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


@pytest.fixture
def calls(monkeypatch):
    """A list that gains one entry per evaluation of the scaled residual."""
    calls = []
    slope = closure._residual_slope

    def counted(*args):
        calls.append(1)
        return slope(*args)

    monkeypatch.setattr(closure, "_residual_slope", counted)
    return calls


class TestSolveZ:
    def test_gamma_one_reduces_to_sum(self):
        point = closure.solve_Z(1.0, 2.0, ClosureParams(2.0, 2.0))
        assert point.Z == pytest.approx(3.0, abs=1e-12)

    def test_q_zero_forces_z_equal_r(self):
        point = closure.solve_Z(2.0, 0.0, ClosureParams(1.5, 3.0))
        assert point.Z == 2.0
        assert point.alpha == 1.0

    def test_r_zero_forces_power_law(self):
        point = closure.solve_Z(0.0, 4.0, ClosureParams(1.5, 3.0))
        assert point.Z == pytest.approx(16.0, rel=1e-14)
        assert point.alpha == 0.0

    def test_vacuum(self):
        point = closure.solve_Z(0.0, 0.0, ClosureParams(1.5, 3.0))
        assert point.Z == 0.0
        assert math.isnan(point.alpha)

    def test_golden_ratio_root_against_bisection_oracle(self):
        oracle = bisect_oracle(1.0, 1.0, 0.5, 1.0, 16.0)
        closed_form = ((1.0 + math.sqrt(5.0)) / 2.0) ** 2
        assert oracle == pytest.approx(closed_form, abs=1e-11)
        point = closure.solve_Z(1.0, 1.0, ClosureParams(1.5, 3.0))
        assert point.Z == pytest.approx(2.6180339887498949, rel=1e-13)
        assert point.Z == pytest.approx(oracle, abs=1e-11)

    def test_rejects_bad_inputs(self):
        params = ClosureParams(1.5, 3.0)
        with pytest.raises(DomainError):
            closure.solve_Z(-1.0, 1.0, params)
        with pytest.raises(DomainError):
            closure.solve_Z(1.0, math.nan, params)
        with pytest.raises(DomainError):
            closure.solve_Z(math.inf, 1.0, params)

    def test_budget_exhaustion_reports_bracket(self, monkeypatch):
        # at gamma = 3/4, which has no closed-form start, two sweeps climb
        # from the cold start R = 1 to 2.0396..., short of the root 2.22...;
        # the bracket's upper end is 2**(4/3)
        monkeypatch.setattr(closure, "MAX_ITER", 1)
        with pytest.raises(ConvergenceError, match="exhausted 1 iterations") as err:
            closure.solve_Z(1.0, 1.0, GAMMA_3_4)
        assert err.value.bracket == (2.039682161505682, 2.5198420997897464)

    def test_bad_input_message_prints_plain_floats(self):
        params = ClosureParams(1.5, 3.0)
        with pytest.raises(DomainError) as err:
            closure.solve_Z(-1e-3, 1.0, params)
        assert str(err.value) == "closure inputs must be finite and nonnegative: R=-0.001, Q=1.0"
        with pytest.raises(DomainError) as err:
            closure.solve_Z_field(np.array([1.0, -1e-3]), np.ones(2), params)
        assert str(err.value) == (
            "closure inputs must be finite and nonnegative at grid index (1,): R=-0.001, Q=1.0"
        )

    @pytest.mark.parametrize(
        "R,Q,index",
        [
            pytest.param([0.0, 1.0], [1.0, 1.0], (1,), id="1d"),
            pytest.param([[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 1.0]], (1, 1), id="2d"),
        ],
    )
    def test_field_failure_names_its_grid_index(self, R, Q, index, monkeypatch):
        # the R = 0 and Q = 0 lanes take the closed form, so only some lanes
        # iterate; the index still counts every lane of the field
        monkeypatch.setattr(closure, "MAX_ITER", 1)
        with pytest.raises(ConvergenceError) as err:
            closure.solve_Z_field(np.array(R), np.array(Q), GAMMA_3_4)
        assert err.value.index == index
        assert str(err.value) == (
            f"closure solve failed at grid index {index}: closure solve exhausted 1 "
            "iterations (R=1.0, Q=1.0, bracket=[2.039682161505682, 2.5198420997897464])"
        )


class TestParams:
    def test_gamma_is_recomputed_ratio(self):
        params = ClosureParams(1.5, 3.0)
        assert params.gamma == 1.5 / 3.0

    @pytest.mark.parametrize("gp,gm", [(1.0, 2.0), (2.0, 1.0), (0.5, 3.0), (math.nan, 2.0)])
    def test_exponents_must_exceed_one(self, gp, gm):
        with pytest.raises(DomainError):
            ClosureParams(gp, gm)


class TestUpperBound:
    def test_examples(self):
        assert closure.z_upper_bound(1.0, 0.0, ClosureParams(1.5, 3.0)) == 2.0
        assert closure.z_upper_bound(0.0, 2.0, ClosureParams(1.5, 3.0)) == 16.0
        assert closure.z_upper_bound(3.0, 3.0, ClosureParams(2.0, 2.0)) == 6.0

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            closure.z_upper_bound(-1.0, 0.0, ClosureParams(1.5, 3.0))


class TestPressure:
    def test_examples(self):
        assert closure.pressure(2.0, ClosureParams(2.0, 2.0)) == 4.0
        assert closure.pressure(0.0, ClosureParams(1.5, 3.0)) == 0.0
        assert closure.pressure(3.0, ClosureParams(1.5, 3.0)) == pytest.approx(
            5.1961524227066319, rel=1e-15
        )


def derivatives_at(point, params):
    """(dZ/dR, dZ/dQ) at one solved closure point."""
    dzr, dzq = closure.derivative_arrays(np.array([point.R]), np.array([point.Z]), params.gamma)
    return float(dzr[0]), float(dzq[0])


class TestDerivatives:
    def test_gamma_one_gives_unit_derivatives(self):
        params = ClosureParams(2.0, 2.0)
        dzr, dzq = derivatives_at(closure.solve_Z(0.7, 1.3, params), params)
        assert dzr == pytest.approx(1.0, rel=1e-12)
        assert dzq == pytest.approx(1.0, rel=1e-12)

    def test_r_zero_collapses_to_inverse_gamma(self):
        params = ClosureParams(1.5, 3.0)
        dzr, _ = derivatives_at(closure.solve_Z(0.0, 4.0, params), params)
        assert dzr == pytest.approx(2.0, rel=1e-14)

    def test_finite_difference_agreement(self):
        params = ClosureParams(1.5, 3.0)
        h = 1e-6
        point = closure.solve_Z(1.0, 1.0, params)
        fd_r = (
            closure.solve_Z(1.0 + h, 1.0, params).Z
            - closure.solve_Z(1.0 - h, 1.0, params).Z
        ) / (2 * h)
        fd_q = (
            closure.solve_Z(1.0, 1.0 + h, params).Z
            - closure.solve_Z(1.0, 1.0 - h, params).Z
        ) / (2 * h)
        dzr, dzq = derivatives_at(point, params)
        assert dzr == pytest.approx(fd_r, rel=1e-6)
        assert dzq == pytest.approx(fd_q, rel=1e-6)

    @pytest.mark.parametrize("R", [5e-324, 0.0])
    def test_subnormal_point_keeps_exact_values(self, R):
        # the divisor gamma - (gamma-1)*alpha lies in [gamma, 1] at any Z,
        # 5e-324 included, where gamma*Z - (gamma-1)*R would underflow to 0
        Z, gamma = 5e-324, 0.5
        alpha = R / Z
        with np.errstate(divide="raise", invalid="raise"):
            dzr, dzq = closure.derivative_arrays(np.array([R, 1.0]), np.array([Z, 2.0]), gamma)
        assert dzr[0] == 1.0 / (gamma - (gamma - 1.0) * alpha)
        assert dzq[0] == pytest.approx(Z ** (1.0 - gamma) / (gamma - (gamma - 1.0) * alpha), rel=1e-15)
        # at R = 1, Z = 2 the alpha form equals Z/(gamma*Z - (gamma-1)*R), bit for bit
        assert dzr[1] == 2.0 / (gamma * 2.0 - (gamma - 1.0) * 1.0)

    def test_overflowing_denominator_keeps_exact_values(self):
        # at R = Z = 1e308 and gamma = 2, alpha = 1 gives the divisor
        # gamma - (gamma-1)*alpha = 1, where gamma*Z - (gamma-1)*R would
        # overflow to inf; the exact values are 1 and Z**(1-gamma) = 1e-308
        dzr, dzq = closure.derivative_arrays(np.array([1e308, 1.0]), np.array([1e308, 2.0]), 2.0)
        assert dzr[0] == 1.0
        assert dzq[0] == pytest.approx(1e-308, rel=1e-15)
        assert (dzr[1], dzq[1]) == (2.0 / 3.0, 1.0 / 3.0)


# ratios far beyond 1 on either side, and one rounding off the closed-form
# starts 2 and 1/2, each on every pair of densities from 0 to the float maximum
EXTREME_PAIRS = [
    (1e7, 1.0 + 1e-9),
    (1e10, 1.0000001),
    (1.5, 1e300),
    (1.0 + 1e-15, 1e300),
    (2.0, 1.0 + 2.0**-52),
    (1.0 + 2.0**-52, 2.0),
    # beyond 2**53, where fl(gamma - 1) = gamma
    (1e17, 1.5),
    (7e299, 1.0000001),
]
EXTREME_DENSITIES = [
    0.0, 5e-324, 1e-320, 2.2e-308, 1e-300, 1e-200, 1e-16,
    0.5, 1.0, 2.0, 1e16, 1e200, 1e300, sys.float_info.max,
]


@pytest.mark.parametrize("pair", EXTREME_PAIRS)
def test_every_lane_gives_a_root_or_one_domain_error(pair):
    params = ClosureParams(*pair)
    for R, Q in itertools.product(EXTREME_DENSITIES, repeat=2):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                Z, _ = closure.solve_Z_field(np.array([R]), np.array([Q]), params)
                assert np.isfinite(Z[0]) and Z[0] >= R
                if Z[0] > 0.0:
                    dzr, dzq = closure.derivative_arrays(np.array([R]), Z, params.gamma)
                    assert 0.0 < dzr[0] < math.inf and 0.0 <= dzq[0] < math.inf
            except DomainError:
                pass


def test_overflowing_newton_slope_stops_at_the_root():
    # gamma = 7e299/1.0000001: the cold start rounds onto the root
    # Q**(1/gamma) = 1 + 5e-299, which rounds to 1, and gamma * Q/z**gamma
    # overflows in the slope: a zero step, no warning.
    params = ClosureParams(7e299, 1.0000001)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        Z, _ = closure.solve_Z_field(np.array([5e-324]), np.array([1e16]), params)
    assert Z[0] == 1.0


def test_ratio_beyond_2_53_gives_one_derivative_error_and_no_warning():
    # fl(gamma - 1) = gamma, so s = gamma - (gamma-1)*alpha is 0 at alpha = 1:
    # dZ/dR and dZ/dQ divide by zero, and the Q = 0 lane is one DomainError
    params = ClosureParams(1e17, 1.5)
    R, Q = np.array([1.0]), np.array([0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        Z, _ = closure.solve_Z_field(R, Q, params)
        with pytest.raises(DomainError) as err:
            closure.derivative_arrays(R, Z, params.gamma)
    assert str(err.value) == "closure derivative overflows at R=1.0, Z=1.0"


# One mesh with a vacuum corner, an R = 0 row, a Q = 0 column and positive
# lanes, at the closed-form ratios 1/2 and 2 and the Newton ratio 3/4.
MIXED_AXIS = np.array([0.0, 5e-324, 1e-3, 0.5, 1.0, 3.0, 1e3])
MIXED_GAMMAS = [ClosureParams(1.5, 3.0), GAMMA_3_4, ClosureParams(3.0, 1.5)]


class TestVacuumLanes:
    @pytest.mark.parametrize("params", MIXED_GAMMAS, ids=["1/2", "3/4", "2"])
    def test_whole_arrays_equal_the_gathered_positive_lanes(self, params):
        R, Q = np.meshgrid(MIXED_AXIS, MIXED_AXIS, indexing="ij")
        Z, _ = closure.solve_Z_field(R, Q, params)
        gamma = params.gamma
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if gamma > 1.0:  # Z**(1-gamma) overflows at Z = R = 5e-324
                with pytest.raises(DomainError) as err:
                    closure.derivative_arrays(R, Z, gamma)
                assert str(err.value) == "closure derivative overflows at R=5e-324, Z=5e-324"
                keep = (Z == 0.0) | (Z > 1e-300)
                R, Q, Z = R[keep], Q[keep], Z[keep]
            pos = Z > 0.0
            assert 0 < pos.sum() < pos.size
            dzr, dzq = closure.derivative_arrays(R, Z, gamma)
            res = closure.closure_residual(R, Q, Z, params)
        # the formulas on the gathered positive lanes
        rp, zp = R[pos], Z[pos]
        s = gamma - (gamma - 1.0) * (rp / zp)
        assert np.array_equal(dzr[pos], 1.0 / s)
        assert np.array_equal(dzq[pos], np.power(zp, 1.0 - gamma) / s)
        assert np.array_equal(res[pos], (1.0 - rp / zp) * zp**gamma - Q[pos])
        assert np.isnan(dzr[~pos]).all() and np.isnan(dzq[~pos]).all()
        assert same_bits(res[~pos], 0.0 - Q[~pos])

    def test_derivative_overflow_next_to_vacuum_is_named(self):
        R = np.array([0.0, 5e-324, 1.0])
        with pytest.raises(DomainError) as err:
            closure.derivative_arrays(R, R.copy(), 2.0)
        assert str(err.value) == "closure derivative overflows at R=5e-324, Z=5e-324"

    def test_zero_slope_lane_next_to_vacuum_is_named(self):
        # beyond 2**53, s = 0 at alpha = 1: dZ/dR is infinite and at Z = 2
        # dZ/dQ is 0/0, a NaN that fmax alone would skip like the vacuum's
        params = ClosureParams(1e17, 1.5)
        R, Q = np.array([0.0, 2.0]), np.array([0.0, 0.0])
        Z, _ = closure.solve_Z_field(R, Q, params)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as err:
                closure.derivative_arrays(R, Z, params.gamma)
        assert str(err.value) == "closure derivative overflows at R=2.0, Z=2.0"

    def test_all_vacuum_gives_nan_and_zero_residual(self):
        zero = np.zeros((2, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dzr, dzq = closure.derivative_arrays(zero, zero, 0.75)
            res = closure.closure_residual(zero, zero, zero, GAMMA_3_4)
        assert np.isnan(dzr).all() and np.isnan(dzq).all()
        assert same_bits(res, zero)
        assert same_bits(closure.closure_residual(0.0, 0.0, 0.0, GAMMA_3_4), 0.0)


def same_bits(a, b) -> bool:
    """Whether two float arrays hold the same bits, signed zeros included."""
    return np.array_equal(np.asarray(a, dtype=float).view(np.int64), np.asarray(b, dtype=float).view(np.int64))


class TestField:
    def test_constant_fields(self):
        R = np.full((8, 8), 1.0)
        Q = np.full((8, 8), 2.0)
        Z, alpha = closure.solve_Z_field(R, Q, ClosureParams(2.0, 2.0))
        assert np.allclose(Z, 3.0, rtol=0, atol=1e-12)
        assert np.allclose(alpha, 1.0 / 3.0, rtol=1e-12)

    def test_power_law_field(self):
        R = np.zeros(16)
        Q = np.full(16, 4.0)
        Z, alpha = closure.solve_Z_field(R, Q, ClosureParams(1.5, 3.0))
        assert np.allclose(Z, 16.0, rtol=1e-14)
        assert np.all(alpha == 0.0)

    def test_random_64cubed_field_meets_residual_tolerance(self):
        rng = np.random.default_rng(7)
        params = ClosureParams(1.5, 3.0)
        R = rng.uniform(0.0, 1.0, (64, 64, 64))
        Q = rng.uniform(0.0, 1.0, (64, 64, 64))
        Z, alpha = closure.solve_Z_field(R, Q, params)
        res = np.abs(closure.closure_residual(R, Q, Z, params))
        assert np.all(res <= 1e-12 * np.maximum(1.0, Q))
        defined = Z > 0
        assert np.all((alpha[defined] >= 0) & (alpha[defined] <= 1))

    def test_shape_mismatch_and_bad_point(self):
        params = ClosureParams(1.5, 3.0)
        with pytest.raises(DomainError):
            closure.solve_Z_field(np.zeros(4), np.zeros(5), params)
        R = np.ones((3, 3))
        R[1, 2] = -0.5
        with pytest.raises(DomainError) as err:
            closure.solve_Z_field(R, np.ones((3, 3)), params)
        assert "(1, 2)" in str(err.value)


class TestReductionChecks:
    """Each check reduces a whole field; a failing one names its first lane."""

    @pytest.mark.parametrize("index", [0, 3, 6], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0])
    @pytest.mark.parametrize("field", ["R", "Q"])
    def test_bad_input_names_its_lane(self, field, value, index):
        fields = {"R": np.linspace(0.5, 1.5, 7), "Q": np.linspace(1.5, 0.5, 7)}
        fields[field][index] = value
        R, Q = fields["R"], fields["Q"]
        with pytest.raises(DomainError) as err:
            closure.solve_Z_field(R, Q, GAMMA_3_4)
        assert str(err.value) == (
            f"closure inputs must be finite and nonnegative at grid index ({index},): "
            f"R={float(R[index])}, Q={float(Q[index])}"
        )

    def test_bad_input_names_the_first_of_several_lanes(self):
        R = np.ones((3, 4))
        R[1, 2], R[2, 0] = -math.inf, math.nan
        Q = np.ones((3, 4))
        Q[1, 1] = math.nan
        with pytest.raises(DomainError) as err:
            closure.solve_Z_field(R, Q, GAMMA_3_4)
        assert str(err.value) == (
            "closure inputs must be finite and nonnegative at grid index (1, 1): R=1.0, Q=nan"
        )

    @pytest.mark.parametrize("index", [0, 3, 6], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_guess_is_rejected(self, value, index):
        guess = np.ones(7)
        guess[index] = value
        with pytest.raises(DomainError) as err:
            closure.solve_Z_field(np.ones(7), np.ones(7), GAMMA_3_4, guess=guess)
        assert str(err.value) == "guess must be a finite array of shape (7,)"

    @pytest.mark.parametrize("index", [0, 3, 6], ids=["first", "middle", "last"])
    def test_negative_guess_starts_at_the_lower_bracket(self, index):
        R, Q = np.linspace(0.5, 1.5, 7), np.linspace(1.5, 0.5, 7)
        guess = np.full(7, 1.5)
        guess[index] = -1.0
        Z, alpha = closure.solve_Z_field(R, Q, GAMMA_3_4, guess=guess)
        guess[index] = 0.0
        want_Z, want_alpha = closure.solve_Z_field(R, Q, GAMMA_3_4, guess=guess)
        assert Z.tobytes() == want_Z.tobytes() and alpha.tobytes() == want_alpha.tobytes()

    @pytest.mark.parametrize(
        "R,Q,pair,what",
        [
            pytest.param(
                [1.0, 1e308, 1.5e308], [1.0] * 3, (1.5, 3.0),
                "upper bracket max(2R, (2Q)**(1/gamma))", id="upper",
            ),
            pytest.param(
                [1.0, 1e154, 1e155], [1.0] * 3, (3.0, 1.5),
                "residual z**gamma at the upper bracket", id="power-gamma",
            ),
            pytest.param(
                [1.0, 5e-324, 1e-323], [1.0, 5e-324, 1e-323], (33.0, 1.5),
                "residual z**(1-gamma) at the lower bracket", id="power-1-gamma",
            ),
        ],
    )
    def test_bracket_check_names_the_first_failing_lane(self, R, Q, pair, what, calls):
        with pytest.raises(DomainError) as err:
            closure.solve_Z_field(np.array(R), np.array(Q), ClosureParams(*pair))
        assert str(err.value) == f"closure {what} overflows at R={R[1]}, Q={Q[1]}"
        assert calls == []

    def test_derivative_overflow_names_the_first_failing_lane(self):
        # Z**(1-gamma) past the float range at a subnormal Z, gamma = 2
        R = np.array([1.0, 5e-324, 1e-323])
        with pytest.raises(DomainError) as err:
            closure.derivative_arrays(R, R.copy(), 2.0)
        assert str(err.value) == "closure derivative overflows at R=5e-324, Z=5e-324"

    @pytest.mark.parametrize("shape", [(0,), (0, 4)])
    @pytest.mark.parametrize("params", [GAMMA_3_4, ClosureParams(1.5, 3.0)], ids=["3/4", "1/2"])
    def test_empty_fields_pass_every_check(self, shape, params):
        R = Q = np.empty(shape)
        for guess in (None, np.empty(shape)):
            Z, alpha = closure.solve_Z_field(R, Q, params, guess=guess)
            assert Z.shape == alpha.shape == shape
            dzr, dzq = closure.derivative_arrays(R, Z, params.gamma)
            assert dzr.shape == dzq.shape == shape


def collapse_bisection(R, Q, gamma):
    """Lane-wise bisection on the residual until no double lies inside.

    Returns the upper end: the smallest double seen where the residual is
    not negative.
    """
    lo = R.copy()
    hi = np.maximum(2.0 * R, (2.0 * Q) ** (1.0 / gamma))
    while True:
        mid = 0.5 * (lo + hi)
        open_ = (mid > lo) & (mid < hi)
        if not open_.any():
            return hi
        neg = (1.0 - R / mid) * mid**gamma - Q < 0.0
        lo = np.where(open_ & neg, mid, lo)
        hi = np.where(open_ & ~neg, mid, hi)


def ulp_distance(a, b):
    """Doubles between two positive finite arrays."""
    return np.abs(a.view(np.int64) - b.view(np.int64))


# R and Q from 1e-2 to 10**6.75 in quarter decades: where Z**gamma >> Q the
# root lies within rounding of R.
QUARTER_DECADES = 10.0 ** (np.arange(-8, 28) / 4.0)


class TestRoundingFloor:
    @pytest.mark.parametrize("pair", [(1.4, 1.1), (3.0, 1.5), (5.0, 1.4)])
    def test_quarter_decade_scan_converges_next_to_bisection(self, pair):
        params = ClosureParams(*pair)
        R, Q = (a.ravel() for a in np.meshgrid(QUARTER_DECADES, QUARTER_DECADES))
        Z, _ = closure.solve_Z_field(R, Q, params)
        assert np.all(ulp_distance(Z, collapse_bisection(R, Q, params.gamma)) <= 2)

    def test_reported_failure_point_converges(self):
        point = closure.solve_Z(100.0, 0.6, ClosureParams(3.0, 1.5))
        assert point.Z == pytest.approx(100.00599964004319, rel=1e-15)

    # the upper bracket overflows: rejected before any iteration
    @pytest.mark.parametrize("R,Q", [(1e308, 1.0), (1.0, 1e308)], ids=["1e308-1.0", "1.0-1e308"])
    def test_overflowing_bracket_still_raises(self, R, Q):
        with pytest.raises(DomainError):
            closure.solve_Z(R, Q, ClosureParams(1.5, 3.0))

    def test_bracket_near_float_max_converges(self):
        # the upper bound 1.6e308 is near the float maximum; the true root
        # R + ~9e153 lies below one ulp of R, so the first step from the
        # cold start R rounds onto R and stops there
        point = closure.solve_Z(8e307, 1.0, ClosureParams(1.5, 3.0))
        assert point.Z == 8e307 and point.alpha == 1.0


class TestGuess:
    @pytest.mark.parametrize("pair", GAMMA_PAIRS)
    @pytest.mark.parametrize("scale", [1.0, 1.001, 0.99, 0.0, 1e300])
    def test_any_guess_meets_the_tolerance_within_ulps_of_cold(self, pair, scale):
        rng = np.random.default_rng(11)
        params = ClosureParams(*pair)
        R = rng.uniform(0.0, 1.0, (32, 32))
        Q = rng.uniform(0.0, 1.0, (32, 32))
        cold, _ = closure.solve_Z_field(R, Q, params)
        warm, _ = closure.solve_Z_field(R, Q, params, guess=np.minimum(cold * scale, 1e300))
        res = np.abs(closure.closure_residual(R, Q, warm, params))
        assert np.all(res <= 1e-12 * np.maximum(1.0, Q))
        assert np.all((R <= warm) & (warm <= closure.z_upper_bound(R, Q, params)))
        assert np.all(np.abs(warm - cold) <= 1e-14 * cold)

    def test_good_guess_saves_residual_evaluations(self, calls):
        rng = np.random.default_rng(3)
        params = GAMMA_3_4
        R, Q = rng.uniform(0.5, 1.5, (2, 256))
        Z, _ = closure.solve_Z_field(R, Q, params)
        cold = len(calls)
        calls.clear()
        closure.solve_Z_field(R * 1.001, Q, params, guess=Z)
        # four Newton sweeps: the first from the guess, then the climb
        assert len(calls) == 4 < cold

    def test_zero_guess_at_a_subnormal_r_meets_the_tolerance(self):
        # A guess of 0 clips to the lower end max(R, (Q/2)**(1/gamma)) = 0.63,
        # not to R = 5e-324, where z**gamma would underflow at gamma = 3/2
        # (gamma = 2 would start at its closed form); no warning, which
        # tier-1 turns into an error.
        R, Q = np.array([5e-324]), np.array([1.0])
        params = ClosureParams(3.0, 2.0)
        Z, _ = closure.solve_Z_field(R, Q, params, guess=np.array([0.0]))
        res = closure.closure_residual(R, Q, Z, params)
        assert abs(res[0]) <= 1e-12 * max(1.0, Q[0])

    def test_guess_must_be_finite_and_match_shape(self):
        params = ClosureParams(1.5, 3.0)
        with pytest.raises(DomainError):
            closure.solve_Z_field(np.ones(4), np.ones(4), params, guess=np.ones(5))
        with pytest.raises(DomainError):
            closure.solve_Z_field(np.ones(4), np.ones(4), params, guess=np.full(4, np.nan))


# bit patterns of the positive finite doubles, drawn uniformly: log-uniform
# from 5e-324 to the float maximum, both ends included
FLOAT_MAX_BITS = struct.unpack("<q", struct.pack("<d", sys.float_info.max))[0]
positive_double = st.integers(1, FLOAT_MAX_BITS).map(
    lambda bits: struct.unpack("<d", struct.pack("<q", bits))[0]
)
GAMMA_1_2, GAMMA_2 = ClosureParams(1.5, 3.0), ClosureParams(3.0, 1.5)
# the largest ulp distance from the oracle measured over 800 000 such draws
EXACT_START_ULPS = 3


def closed_form_oracle(R, Q, gamma):
    """The root at gamma = 1/2 or 2 in 50-digit decimals, rounded once to a double."""
    with decimal.localcontext(decimal.Context(prec=50)):
        r, q = decimal.Decimal(R), decimal.Decimal(Q)
        if gamma == 0.5:  # s = sqrt(Z) solves s**2 - Q s - R = 0
            s = (q + (q * q + 4 * r).sqrt()) / 2
            return float(s * s)
        return float((r + (r * r + 4 * q).sqrt()) / 2)  # Z**2 - R Z - Q = 0


def assert_overflow_error(err, R, Q, gamma):
    """The DomainError of a point whose bracket, or its power gamma beyond
    gamma = 1, reaches the float maximum."""
    assert str(err).endswith(f"overflows at R={R}, Q={Q}")
    top = max(1.0 + math.log2(R), (1.0 + math.log2(Q)) / gamma)
    assert top * max(1.0, gamma) >= math.log2(sys.float_info.max) - 1e-12


class TestExactStart:
    @settings(max_examples=300, deadline=None)
    @given(R=positive_double, Q=positive_double, params=st.sampled_from([GAMMA_1_2, GAMMA_2]))
    # a root below 1e-300: the lower bracket end is R itself, with no floor
    @example(R=5.1407e-319, Q=1.8493946314151696e-151, params=GAMMA_1_2)
    # z**2 overflows inside the finite bracket [1e200, 2e200]
    @example(R=1e200, Q=1.0, params=GAMMA_2)
    @example(R=5e-324, Q=5e-324, params=GAMMA_2)
    @example(R=sys.float_info.max, Q=sys.float_info.max, params=GAMMA_1_2)
    def test_root_within_ulps_of_the_decimal_oracle(self, R, Q, params):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                Z = closure.solve_Z(R, Q, params).Z
            except DomainError as err:
                assert_overflow_error(err, R, Q, params.gamma)
                return
        oracle = closed_form_oracle(R, Q, params.gamma)
        assert ulp_distance(np.float64(Z), np.float64(oracle)) <= EXACT_START_ULPS

    @pytest.mark.parametrize("params", [GAMMA_1_2, GAMMA_2], ids=["gamma-1/2", "gamma-2"])
    def test_no_residual_evaluation_warm_or_cold(self, params, std1d_initial, calls):
        R, Q = std1d_initial.R, std1d_initial.Q
        Z, _ = closure.solve_Z_field(R * 1.001, Q, params)
        assert len(calls) == 0
        warm, _ = closure.solve_Z_field(R * 1.001, Q, params, guess=std1d_initial.R)
        assert len(calls) == 0
        # the closed form replaces the guess
        assert warm.tobytes() == Z.tobytes()

    @pytest.mark.parametrize("params", [GAMMA_1_2, GAMMA_2], ids=["gamma-1/2", "gamma-2"])
    def test_root_is_the_closed_form_within_the_bracket(self, params):
        rng = np.random.default_rng(29)
        R, Q = rng.uniform(0.5, 1.5, (2, 4096))
        # where the root equals hi0 the closed form can round an ulp above it
        if params.gamma == 2.0:
            R[0], Q[0] = 1.8051327534912551, 6.517008515453843
        else:
            R[0], Q[0] = 1.2834716012376706, 0.8010841407859947
        Z, _ = closure.solve_Z_field(R, Q, params)
        exact = closure._exact_start(R, Q, params.gamma)
        upper = closure.z_upper_bound(R, Q, params)
        assert exact[0] > upper[0] and Z[0] == upper[0]
        assert Z[1:].tobytes() == exact[1:].tobytes()
        assert np.all((R <= Z) & (Z <= upper))

    @pytest.mark.parametrize(
        "params,worst", [(GAMMA_1_2, 2), (GAMMA_2, 1)], ids=["gamma-1/2", "gamma-2"]
    )
    def test_seeded_roots_against_the_decimal_oracle(self, params, worst):
        # the largest distance measured on these draws, as on 20 000 more;
        # a Newton sweep from the closed form reached 3 ulp at gamma = 1/2 there
        rng = np.random.default_rng(2029)
        R = np.concatenate([rng.uniform(0.5, 1.5, 2000), 10.0 ** rng.uniform(-6.0, 6.0, 2000)])
        Q = np.concatenate([rng.uniform(0.5, 1.5, 2000), 10.0 ** rng.uniform(-6.0, 6.0, 2000)])
        Z, _ = closure.solve_Z_field(R, Q, params)
        oracle = np.array([closed_form_oracle(r, q, params.gamma) for r, q in zip(R, Q)])
        assert ulp_distance(Z, oracle).max() == worst


# Measured over 120 000 draws as below, each solved cold and from four
# guesses: at most 2.25 ulp times min(1, gamma), reached at gamma = 3/4.
# Below gamma = 1 the root moves by 1/gamma times the relative error of
# Q/Z**gamma, so the bound scales with it there.
ORACLE_ULPS = 3


def oracle_ulps(gamma):
    return ORACLE_ULPS / min(1.0, gamma)


def newton_oracle(R, Q, gamma):
    """The root in 50-digit decimals, rounded once to a double.

    Newton on 1 - R/Z - Q/Z**gamma from max(R, Q**(1/gamma)), within
    rounding of the root or left of it, climbs to the root.
    """
    with decimal.localcontext(decimal.Context(prec=50)):
        r, q, g = decimal.Decimal(R), decimal.Decimal(Q), decimal.Decimal(gamma)
        z = max(r, q ** (1 / g))
        for _ in range(100):
            w, u = r / z, q / z**g
            step = z * (1 - w - u) / (w + g * u)
            z -= step
            if abs(step) <= z * decimal.Decimal("1e-45"):
                return float(z)
    raise AssertionError(f"oracle did not converge at R={R}, Q={Q}")


exponent = st.floats(1.0, 5.0, exclude_min=True)
general_params = st.one_of(
    st.sampled_from([GAMMA_3_4, ClosureParams(2.0, 1.5), ClosureParams(3.0, 2.0)]),
    st.builds(ClosureParams, exponent, exponent).filter(lambda p: p.gamma not in (0.5, 2.0)),
)


class TestGeneralRatio:
    @settings(max_examples=300, deadline=None)
    @given(R=positive_double, Q=positive_double, params=general_params)
    # z**gamma underflows at the lower end for gamma > 1
    @example(R=5e-324, Q=5e-324, params=ClosureParams(3.0, 2.0))
    @example(R=1e-300, Q=5e-324, params=ClosureParams(5.0, 1.0 + 1e-9))
    # below gamma = 1/2, 1 - gamma is not exact
    @example(R=7.528816235824027e157, Q=2.1993700834280967e65, params=ClosureParams(1.05, 4.9))
    # the table point that an absolute tolerance put 2.5 % off
    @example(R=1e-20, Q=1e-16, params=GAMMA_3_4)
    # large gamma: a cold start at half the root ran out of sweeps, and
    # z**(1-gamma) overflowed at a start that far left of the root
    @example(R=0.1, Q=0.1, params=ClosureParams(300.0, 1.001))
    @example(R=4.58e-287, Q=2.11e-286, params=ClosureParams(1e6, 1.0 + 1e-9))
    def test_root_within_ulps_of_the_decimal_oracle(self, R, Q, params):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                Z = closure.solve_Z(R, Q, params).Z
            except DomainError as err:
                assert_overflow_error(err, R, Q, params.gamma)
                return
        oracle = newton_oracle(R, Q, params.gamma)
        assert ulp_distance(np.float64(Z), np.float64(oracle)) <= oracle_ulps(params.gamma)

    @pytest.mark.parametrize(
        "R,Q,params",
        [(0.1, 0.1, ClosureParams(300.0, 1.001)), (4.58e-287, 2.11e-286, ClosureParams(1e6, 1.0 + 1e-9))],
        ids=["gamma-300", "gamma-1e6"],
    )
    def test_large_ratio_cold_start_needs_few_evaluations(self, R, Q, params, calls):
        # a start within (1/2)**(1/gamma) of Q**(1/gamma), not half of it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            closure.solve_Z(R, Q, params)
        assert len(calls) <= 15

    @pytest.mark.parametrize("guess", [None, 2.0149438068192557e-15], ids=["cold", "at-the-root"])
    def test_subnormal_q_at_large_ratio_ends_before_iterating(self, guess, calls):
        # at gamma = 22 the lower bracket lo = max(R, (1/2)**(1/gamma) * Q**(1/gamma))
        # of R = Q = 5e-324 has lo**(1-gamma) past the float maximum, so the
        # scaled residual cannot be evaluated there, whatever the start (the
        # root is 2.01e-15)
        R = Q = np.array([5e-324])
        start = None if guess is None else np.array([guess])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as err:
                closure.solve_Z_field(R, Q, ClosureParams(33.0, 1.5), guess=start)
        assert str(err.value) == (
            "closure residual z**(1-gamma) at the lower bracket overflows at R=5e-324, Q=5e-324"
        )
        assert calls == []

    @settings(max_examples=300, deadline=None)
    @given(
        R=positive_double,
        Q=positive_double,
        guess=st.one_of(st.just(0.0), positive_double),
        params=general_params,
    )
    @example(R=1.0, Q=1.0, guess=sys.float_info.max, params=GAMMA_3_4)
    def test_guessed_root_within_ulps_of_the_cold_root(self, R, Q, guess, params):
        R, Q = np.array([R]), np.array([Q])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                cold, _ = closure.solve_Z_field(R, Q, params)
            except DomainError:
                return
            warm, _ = closure.solve_Z_field(R, Q, params, guess=np.array([guess]))
        assert ulp_distance(cold, warm)[0] <= oracle_ulps(params.gamma)


class TestSwap:
    def test_symmetric_exponents(self):
        params = ClosureParams(2.0, 2.0)
        Rs, Qs, swapped = closure.phase_swap_transform(1.0, 2.0, params)
        assert (Rs, Qs) == (2.0, 1.0)
        assert closure.solve_Z(Rs, Qs, swapped).Z == pytest.approx(3.0, abs=1e-12)

    def test_q_zero_branch(self):
        params = ClosureParams(1.5, 3.0)
        Rs, Qs, swapped = closure.phase_swap_transform(2.0, 0.0, params)
        z_swapped = closure.solve_Z(Rs, Qs, swapped).Z
        assert z_swapped == pytest.approx(math.sqrt(2.0), rel=1e-14)

    def test_golden_ratio_swap_against_oracle(self):
        params = ClosureParams(1.5, 3.0)
        Rs, Qs, swapped = closure.phase_swap_transform(1.0, 1.0, params)
        z_swapped = closure.solve_Z(Rs, Qs, swapped).Z
        oracle = bisect_oracle(1.0, 1.0, 2.0, 1.0, 16.0)
        assert z_swapped == pytest.approx(oracle, abs=1e-10)
        assert z_swapped == pytest.approx(1.6180339887498949, rel=1e-12)


finite_density = st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False)


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(R=finite_density, Q=finite_density, pair=st.sampled_from(GAMMA_PAIRS))
    def test_residual_bracket_and_bounds(self, R, Q, pair):
        params = ClosureParams(*pair)
        point = closure.solve_Z(R, Q, params)
        assert R <= point.Z <= closure.z_upper_bound(R, Q, params)
        if point.Z > 0.0:
            res = abs(closure.closure_residual(R, Q, point.Z, params))
            assert res <= 1e-12 * max(1.0, Q)

    @settings(max_examples=200, deadline=None)
    @given(
        R=finite_density,
        Q=st.floats(1e-3, 10.0),
        gap=st.floats(1e-3, 5.0),
        pair=st.sampled_from(GAMMA_PAIRS),
    )
    def test_monotone_in_each_density(self, R, Q, gap, pair):
        params = ClosureParams(*pair)
        z = closure.solve_Z(R, Q, params).Z
        assert closure.solve_Z(R, Q + gap, params).Z > z
        assert closure.solve_Z(R + gap, Q, params).Z > z

    @settings(max_examples=200, deadline=None)
    @given(
        R=st.floats(1e-3, 10.0),
        Q=st.floats(1e-3, 10.0),
        pair=st.sampled_from(GAMMA_PAIRS),
    )
    def test_swap_identity(self, R, Q, pair):
        params = ClosureParams(*pair)
        z = closure.solve_Z(R, Q, params).Z
        Rs, Qs, swapped = closure.phase_swap_transform(R, Q, params)
        z_swapped = closure.solve_Z(Rs, Qs, swapped).Z
        assert z_swapped == pytest.approx(z**params.gamma, rel=1e-10, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        R=finite_density,
        Q=finite_density,
        pair=st.sampled_from([(1.5, 4.5), (1.5, 3.0), (2.0, 2.0)]),
    )
    # subnormal and huge roots; the Q = 0 lane at the float maximum has Z = R
    @example(R=5e-324, Q=0.0, pair=(1.5, 4.5))
    @example(R=0.0, Q=5e-324, pair=(1.5, 3.0))
    @example(R=5e-324, Q=5e-324, pair=(1.5, 4.5))
    @example(R=1e300, Q=1.0, pair=(1.5, 3.0))
    @example(R=sys.float_info.max, Q=0.0, pair=(1.5, 4.5))
    def test_derivative_bounds_for_gamma_below_one(self, R, Q, pair):
        # no clip: rounding keeps the divisor gamma - (gamma-1)*alpha >= gamma
        params = ClosureParams(*pair)
        point = closure.solve_Z(R, Q, params)
        assume(point.Z > 0.0)
        gamma = params.gamma
        dzr, dzq = derivatives_at(point, params)
        assert 0.0 < dzr <= 1.0 / gamma
        assert 0.0 < dzq <= point.Z ** (1.0 - gamma) / gamma

    @settings(max_examples=100, deadline=None)
    @given(
        points=st.lists(st.tuples(finite_density, finite_density), min_size=1, max_size=32),
        pair=st.sampled_from(GAMMA_PAIRS + [(1.2, 5.0)]),
    )
    @example(points=[(5e-324, 0.0), (1.0, 1.0)], pair=(1.5, 3.0))
    @example(points=[(5e-324, 0.0)], pair=(3.0, 1.5))
    def test_field_solve_matches_scalar_solve_lane_by_lane(self, points, pair):
        params = ClosureParams(*pair)
        R = np.array([r for r, _ in points])
        Q = np.array([q for _, q in points])
        Z, alpha = closure.solve_Z_field(R, Q, params)
        pos = Z > 0.0
        # dZ/dQ = Z**(1-gamma) / (gamma - (gamma-1) alpha), whose divisor
        # lies in [1, gamma] for gamma > 1: past the float range at a
        # subnormal Z for gamma = 2
        with np.errstate(over="ignore"):
            overflow = bool(np.isinf(Z[pos] ** (1.0 - params.gamma)).any())
        if overflow:
            with pytest.raises(DomainError, match="closure derivative overflows at R="):
                closure.derivative_arrays(R[pos], Z[pos], params.gamma)
        else:
            dzr, dzq = closure.derivative_arrays(R[pos], Z[pos], params.gamma)
        p = closure.pressure(Z, params)
        res = closure.closure_residual(R, Q, Z, params)
        j = 0
        for k, (r, q) in enumerate(points):
            point = closure.solve_Z(r, q, params)
            assert Z[k] == point.Z
            assert alpha[k] == point.alpha or (np.isnan(alpha[k]) and math.isnan(point.alpha))
            assert p[k] == closure.pressure(point.Z, params)
            assert res[k] == closure.closure_residual(r, q, point.Z, params)
            if point.Z > 0.0 and not overflow:
                assert (dzr[j], dzq[j]) == derivatives_at(point, params)
                j += 1

    @settings(max_examples=100, deadline=None)
    @given(
        lanes=st.lists(
            st.tuples(
                st.one_of(st.just(0.0), finite_density),
                st.one_of(st.just(0.0), finite_density),
                st.floats(0.0, 20.0),
            ),
            min_size=1,
            max_size=32,
        ),
        warm=st.booleans(),
        pair=st.sampled_from(GAMMA_PAIRS + [(1.2, 5.0)]),
    )
    @example(
        # an exact guess, a root within rounding of R, vacuum, R = 0, Q = 0,
        # subnormal R
        lanes=[
            (1.0, 1.0, 1.618033988749895),
            (100.0, 0.6, 20.0),
            (0.0, 0.0, 1.0),
            (0.0, 2.0, 1.0),
            (3.0, 0.0, 1.0),
            (5e-324, 1.0, 0.0),
        ],
        warm=True,
        pair=(3.0, 1.5),
    )
    # the same subnormal lane at a ratio without a closed-form start
    @example(lanes=[(5e-324, 1.0, 0.0), (1.0, 1.0, 1.5)], warm=True, pair=(3.0, 2.0))
    def test_batch_solve_matches_lanes_solved_one_by_one(self, lanes, warm, pair):
        # converged lanes stay in the batch while the others iterate, so each
        # lane's root must not depend on which lanes it was solved with
        params = ClosureParams(*pair)
        R, Q, G = (np.array(col) for col in zip(*lanes))
        guess = G if warm else None
        Z, alpha = closure.solve_Z_field(R, Q, params, guess=guess)
        for k in range(len(lanes)):
            one = slice(k, k + 1)
            z, a = closure.solve_Z_field(R[one], Q[one], params, guess=None if guess is None else G[one])
            assert Z[one].tobytes() == z.tobytes()
            assert alpha[one].tobytes() == a.tobytes()


def test_pressure_lipschitz_constant_saturates():
    """Fitted C(M) in |p(Z) - p(Z~)| <= C(|R-R~| + |Q-Q~|) stabilizes."""
    params = ClosureParams(1.5, 3.0)
    M = 5.0
    rng = np.random.default_rng(11)
    R = rng.uniform(0, M, (2, 32000))
    Q = rng.uniform(0, M, (2, 32000))
    Z0, _ = closure.solve_Z_field(R[0], Q[0], params)
    Z1, _ = closure.solve_Z_field(R[1], Q[1], params)
    dp = np.abs(closure.pressure(Z0, params) - closure.pressure(Z1, params))
    dd = np.abs(R[0] - R[1]) + np.abs(Q[0] - Q[1])
    keep = dd > 1e-8
    ratio = dp[keep] / dd[keep]

    # nested prefixes make the fitted constants monotone by construction
    c1 = float(np.max(ratio[:2000]))
    c2 = float(np.max(ratio[:8000]))
    c3 = float(np.max(ratio))
    assert np.isfinite(c3)
    assert c1 <= c2 <= c3
    assert c3 <= 1.25 * c1
