import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from twofluid import closure
from twofluid.closure import ClosureParams
from twofluid.errors import ConvergenceError, DomainError

GAMMA_PAIRS = [(1.5, 4.5), (1.5, 3.0), (2.0, 2.0), (3.0, 1.5)]


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

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    def test_budget_exhaustion_reports_bracket(self):
        # the bracket is finite, but its midpoint overflows, so the
        # iteration budget runs out
        with pytest.raises(ConvergenceError, match="exhausted 200 iterations") as err:
            closure.solve_Z(8e307, 1.0, ClosureParams(1.5, 3.0))
        assert err.value.bracket == (8e307, math.inf)


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

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    @pytest.mark.parametrize(
        "R,index",
        [
            pytest.param([0.0, 8e307], (1,), id="1d"),
            pytest.param([[1.0, 0.0], [0.0, 8e307]], (1, 1), id="2d"),
        ],
    )
    def test_field_failure_names_its_grid_index(self, R, index):
        # the R = 0 lanes take the closed form, so only some lanes iterate;
        # the index still counts every lane of the field
        R = np.array(R)
        with pytest.raises(ConvergenceError) as err:
            closure.solve_Z_field(R, np.ones_like(R), ClosureParams(1.5, 3.0))
        assert err.value.index == index
        assert str(err.value) == (
            f"closure solve failed at grid index {index}: closure solve exhausted 200 "
            "iterations (R=8e+307, Q=1.0, bracket=[8e+307, inf])"
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
        # gamma*Z - (gamma-1)*R underflows to 0 at Z = 5e-324; the exact
        # values are 1/(gamma - (gamma-1) alpha) and Z**(1-gamma) times it
        Z, gamma = 5e-324, 0.5
        alpha = R / Z
        with np.errstate(divide="raise", invalid="raise"):
            dzr, dzq = closure.derivative_arrays(np.array([R, 1.0]), np.array([Z, 2.0]), gamma)
        assert dzr[0] == 1.0 / (gamma - (gamma - 1.0) * alpha)
        assert dzq[0] == pytest.approx(Z ** (1.0 - gamma) / (gamma - (gamma - 1.0) * alpha), rel=1e-15)
        # the lane beside it keeps the plain form, bit for bit
        assert dzr[1] == 2.0 / (gamma * 2.0 - (gamma - 1.0) * 1.0)


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
# rounding of the residual exceeds its absolute tolerance.
QUARTER_DECADES = 10.0 ** (np.arange(-8, 28) / 4.0)


class TestCollapsedBracket:
    @pytest.mark.parametrize("pair", [(1.4, 1.1), (3.0, 1.5), (5.0, 1.4)])
    def test_quarter_decade_scan_converges_next_to_bisection(self, pair):
        params = ClosureParams(*pair)
        R, Q = (a.ravel() for a in np.meshgrid(QUARTER_DECADES, QUARTER_DECADES))
        Z, _ = closure.solve_Z_field(R, Q, params)
        assert np.all(ulp_distance(Z, collapse_bisection(R, Q, params.gamma)) <= 2)

    def test_reported_failure_point_converges(self):
        point = closure.solve_Z(100.0, 0.6, ClosureParams(3.0, 1.5))
        assert point.Z == pytest.approx(100.00599964004319, rel=1e-15)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    @pytest.mark.parametrize(
        "R,Q,error",
        [
            # the upper bracket overflows: rejected before any iteration
            pytest.param(1e308, 1.0, DomainError, id="1e308-1.0"),
            # the midpoint overflows to inf, which must not count as pinned
            pytest.param(8e307, 1.0, ConvergenceError, id="8e307-1.0"),
            pytest.param(1.0, 1e308, DomainError, id="1.0-1e308"),
        ],
    )
    def test_overflowing_bracket_still_raises(self, R, Q, error):
        with pytest.raises(error):
            closure.solve_Z(R, Q, ClosureParams(1.5, 3.0))


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

    def test_good_guess_saves_residual_evaluations(self, monkeypatch):
        calls = []
        slope = closure._residual_slope

        def counted(*args):
            calls.append(1)
            return slope(*args)

        monkeypatch.setattr(closure, "_residual_slope", counted)
        rng = np.random.default_rng(3)
        params = ClosureParams(1.5, 3.0)
        R, Q = rng.uniform(0.5, 1.5, (2, 256))
        Z, _ = closure.solve_Z_field(R, Q, params)
        cold = len(calls)
        calls.clear()
        closure.solve_Z_field(R * 1.001, Q, params, guess=Z)
        # three Newton sweeps, the last of which seeds the one polish step
        assert len(calls) == 4 < cold

    def test_guess_clipped_to_z_eps_falls_back_to_bisection(self):
        # At Z_EPS, z**gamma underflows to 0 and so does the first slope; the
        # Newton division must hand the lane to bisection without a warning,
        # which tier-1 turns into an error.
        R, Q = np.array([5e-324]), np.array([1.0])
        params = ClosureParams(3.0, 1.5)
        Z, _ = closure.solve_Z_field(R, Q, params, guess=np.array([0.0]))
        res = closure.closure_residual(R, Q, Z, params)
        assert abs(res[0]) <= closure.TOL_ABS + closure.TOL_REL * max(1.0, Q[0])

    def test_guess_must_be_finite_and_match_shape(self):
        params = ClosureParams(1.5, 3.0)
        with pytest.raises(DomainError):
            closure.solve_Z_field(np.ones(4), np.ones(4), params, guess=np.ones(5))
        with pytest.raises(DomainError):
            closure.solve_Z_field(np.ones(4), np.ones(4), params, guess=np.full(4, np.nan))


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
        # below the absolute residual tolerance the root keeps only residual
        # accuracy, so the relative identity is asserted away from that floor
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
        R=st.floats(1e-2, 10.0),
        Q=st.floats(1e-2, 10.0),
        pair=st.sampled_from([(1.5, 4.5), (1.5, 3.0), (2.0, 2.0)]),
    )
    def test_derivative_bounds_for_gamma_below_one(self, R, Q, pair):
        params = ClosureParams(*pair)
        point = closure.solve_Z(R, Q, params)
        gamma = params.gamma
        dzr, dzq = derivatives_at(point, params)
        assert abs(dzr) <= 1.0 / gamma
        assert abs(dzq) <= point.Z ** (1.0 - gamma) / gamma

    @settings(max_examples=100, deadline=None)
    @given(
        points=st.lists(st.tuples(finite_density, finite_density), min_size=1, max_size=32),
        pair=st.sampled_from(GAMMA_PAIRS + [(1.2, 5.0)]),
    )
    @example(points=[(5e-324, 0.0), (1.0, 1.0)], pair=(1.5, 3.0))
    def test_field_solve_matches_scalar_solve_lane_by_lane(self, points, pair):
        params = ClosureParams(*pair)
        R = np.array([r for r, _ in points])
        Q = np.array([q for _, q in points])
        Z, alpha = closure.solve_Z_field(R, Q, params)
        pos = Z > 0.0
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
            if point.Z > 0.0:
                assert (dzr[j], dzq[j]) == derivatives_at(point, params)
                j += 1

    # a guess of 0 at the subnormal lane starts at Z_EPS, where the slope
    # underflows to 0: the Newton step divides by zero and bisection takes over
    @pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
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
        # an exact guess, a collapsed bracket, vacuum, R = 0, Q = 0, subnormal R
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
