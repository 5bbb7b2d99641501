import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twofluid import grids
from twofluid.errors import DomainError
from twofluid.grids import PeriodicGrid


def trig_field(grid, k=1, phase=0.0):
    x = grid.coordinates()
    return np.sin(k * x[0] + phase) * (
        np.cos(x[1]) if grid.dim > 1 else 1.0
    )


class TestGridType:
    def test_derived_quantities(self):
        g = PeriodicGrid(2, 16, 2.0 * math.pi)
        assert g.dx == pytest.approx(math.pi / 8)
        assert g.shape == (16, 16)
        assert g.cell_volume == pytest.approx(g.dx**2)
        assert g.volume == pytest.approx((2 * math.pi) ** 2)

    @pytest.mark.parametrize(
        "dim,n,L",
        [(0, 16, 1.0), (4, 16, 1.0), (2, 6, 1.0), (2, 15, 1.0), (1, 16, -1.0),
         (1, 8, 1e300), (2, 16, 1e200), (3, 8, 1e103)],
    )
    def test_invalid_grids(self, dim, n, L):
        with pytest.raises(DomainError):
            PeriodicGrid(dim, n, L)


class TestOperators:
    def test_constant_has_zero_derivatives(self):
        g = PeriodicGrid(3, 8)
        f = np.full(g.shape, 4.2)
        assert np.all(grids.gradient(g, f) == 0.0)
        assert np.all(grids.laplacian(g, f) == 0.0)

    def test_gradient_matches_discrete_symbol(self):
        g = PeriodicGrid(1, 64)
        x = g.axis_coords()
        grad = grids.gradient(g, np.sin(x))
        expected = np.cos(x) * (math.sin(g.dx) / g.dx)
        assert np.allclose(grad[0], expected, rtol=0, atol=1e-14)

    def test_laplacian_matches_discrete_symbol(self):
        g = PeriodicGrid(1, 64)
        x = g.axis_coords()
        lap = grids.laplacian(g, np.sin(x))
        expected = -np.sin(x) * (2.0 * (1.0 - math.cos(g.dx)) / g.dx**2)
        assert np.allclose(lap, expected, rtol=0, atol=1e-12)

    def test_shift_commutes_bit_for_bit(self):
        g = PeriodicGrid(1, 32)
        f = trig_field(g, k=3, phase=0.3)
        # one full period is the identity shift
        assert np.array_equal(np.roll(f, g.n), f)
        shifted = np.roll(f, 5)
        assert np.array_equal(
            grids.gradient(g, shifted)[0], np.roll(grids.gradient(g, f)[0], 5)
        )
        assert np.array_equal(
            grids.laplacian(g, shifted), np.roll(grids.laplacian(g, f), 5)
        )

    def test_vector_gradient_shape(self):
        g = PeriodicGrid(2, 16)
        v = np.stack([trig_field(g), trig_field(g, k=2)])
        jac = grids.gradient(g, v)
        assert jac.shape == (2, 2, 16, 16)
        assert np.array_equal(jac[0, 1], grids.gradient(g, v[1])[0])


def roll_centered(g, f, i):
    ax = f.ndim - g.dim + i
    return (np.roll(f, -1, axis=ax) - np.roll(f, 1, axis=ax)) / (2.0 * g.dx)


def roll_gradient(g, f):
    return np.stack([roll_centered(g, f, i) for i in range(g.dim)])


def roll_divergence(g, v):
    out = roll_centered(g, v[0], 0)
    for i in range(1, g.dim):
        out += roll_centered(g, v[i], i)
    return out


def roll_laplacian(g, f):
    out = np.zeros_like(f)
    for i in range(g.dim):
        ax = f.ndim - g.dim + i
        out += np.roll(f, -1, axis=ax) + np.roll(f, 1, axis=ax) - 2.0 * f
    return out / g.dx**2


def assert_same_bits(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert np.array_equal(a, b)
    assert a.tobytes() == b.tobytes()


class TestSliceStencilsMatchRoll:
    """The slice stencils do the arithmetic of the np.roll forms exactly."""

    @pytest.mark.parametrize("dim,n", [(1, 64), (2, 16), (3, 8)])
    @pytest.mark.parametrize("lead", [(), (2,)])
    def test_gradient_and_laplacian(self, dim, n, lead):
        g = PeriodicGrid(dim, n)
        f = np.random.default_rng(dim).normal(size=(*lead, *g.shape))
        assert_same_bits(grids.gradient(g, f), roll_gradient(g, f))
        assert_same_bits(grids.laplacian(g, f), roll_laplacian(g, f))

    @pytest.mark.parametrize("dim,n", [(1, 64), (2, 16), (3, 8)])
    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_divergence_and_jacobian(self, dim, n, lead):
        g = PeriodicGrid(dim, n)
        v = np.random.default_rng(10 + dim).normal(size=(dim, *lead, *g.shape))
        assert_same_bits(grids.divergence(g, v), roll_divergence(g, v))
        jac = np.stack([roll_gradient(g, v[j]) for j in range(dim)], axis=1)
        assert_same_bits(grids.gradient(g, v), jac)


@st.composite
def stencil_fields(draw):
    """A grid and a field on it with 0-2 leading axes, maybe a non-contiguous view."""
    dim = draw(st.integers(1, 3))
    g = PeriodicGrid(dim, draw(st.sampled_from([8, 10] if dim == 3 else [8, 10, 16])))
    shape = (*draw(st.lists(st.integers(1, 3), max_size=2)), *g.shape)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layout = draw(st.sampled_from(["C", "strided"] + (["F"] if len(shape) > 1 else [])))
    if layout == "strided":
        # every other point of a field twice as long on the last axis
        f = rng.normal(size=(*shape[:-1], 2 * shape[-1]))[..., ::2]
    else:
        f = np.asarray(rng.normal(size=shape), order=layout)
    assert f.shape == shape and (layout != "strided" or not f.flags.c_contiguous)
    return g, f


class TestStencilsMatchRollOnEveryLayout:
    """The flat-interior stencils equal the np.roll forms on any axis and layout."""

    @settings(max_examples=60, deadline=None)
    @given(case=stencil_fields())
    def test_centered_with_and_without_out(self, case):
        g, f = case
        for i in range(g.dim):
            want = roll_centered(g, f, i)
            assert_same_bits(grids._centered(g, f, i), want)
            out = np.full(f.shape, np.nan)
            assert grids._centered(g, f, i, out=out) is out
            assert_same_bits(out, want)

    @settings(max_examples=40, deadline=None)
    @given(case=stencil_fields())
    def test_laplacian(self, case):
        g, f = case
        assert_same_bits(grids.laplacian(g, f), roll_laplacian(g, f))


class TestIntegrals:
    def test_constant_integral(self):
        g = PeriodicGrid(1, 32)
        assert grids.integrate(g, np.ones(g.shape)) == pytest.approx(2 * math.pi, rel=1e-15)

    def test_sine_integrates_to_zero(self):
        g = PeriodicGrid(1, 64)
        x = g.axis_coords()
        assert abs(grids.integrate(g, np.sin(x))) <= 1e-13

    def test_sine_squared_integrates_to_pi(self):
        g = PeriodicGrid(1, 64)
        x = g.axis_coords()
        assert grids.integrate(g, np.sin(x) ** 2) == pytest.approx(math.pi, rel=1e-14)

    def test_vector_integral_is_componentwise(self):
        g = PeriodicGrid(2, 16)
        v = np.stack([np.ones(g.shape), 2 * np.ones(g.shape)])
        out = grids.integrate(g, v)
        assert out.shape == (2,)
        assert out[1] == pytest.approx(2 * out[0])

    def test_integration_by_parts_is_exact(self):
        rng = np.random.default_rng(3)
        for dim in (1, 2):
            g = PeriodicGrid(dim, 16)
            x = g.coordinates()
            f = np.zeros(g.shape)
            v = np.zeros((dim, *g.shape))
            for k in range(1, 4):
                f += rng.normal() * np.sin(k * x[0] + rng.normal())
                for i in range(dim):
                    v[i] += rng.normal() * np.cos(k * x[dim - 1] + rng.normal())
            lhs = grids.integrate(g, f * grids.divergence(g, v))
            rhs = -grids.integrate(g, np.sum(grids.gradient(g, f) * v, axis=0))
            scale = grids.integrate(g, np.abs(f)) + 1.0
            assert abs(lhs - rhs) <= 1e-13 * scale


class TestNorms:
    def test_constant_norms_on_unit_volume(self):
        g = PeriodicGrid(1, 8, length=1.0)
        f = np.full(g.shape, -3.0)
        for p in (2, 3, 6, math.inf):
            assert grids.lp_norm(g, f, p) == pytest.approx(3.0, rel=1e-14)

    def test_zero_weight_gives_zero(self):
        g = PeriodicGrid(1, 8)
        v = np.ones((1, 8))
        assert grids.weighted_l2(g, np.zeros(g.shape), v) == 0.0

    def test_negative_weight_rejected(self):
        g = PeriodicGrid(1, 8)
        with pytest.raises(DomainError):
            grids.weighted_l2(g, -np.ones(g.shape), np.ones((1, 8)))

    def test_sine_l2_is_sqrt_pi(self):
        g = PeriodicGrid(1, 64)
        x = g.axis_coords()
        assert grids.lp_norm(g, np.sin(x), 2) == pytest.approx(math.sqrt(math.pi), rel=1e-14)

    def test_sine_l6(self):
        # integral of sin^6 over a period is 2 pi * 5/16
        g = PeriodicGrid(1, 64)
        x = g.axis_coords()
        expected = (2 * math.pi * 5 / 16) ** (1 / 6)
        assert grids.lp_norm(g, np.sin(x), 6) == pytest.approx(expected, rel=1e-14)

    def test_invalid_p(self):
        g = PeriodicGrid(1, 8)
        with pytest.raises(DomainError):
            grids.lp_norm(g, np.ones(g.shape), 0.5)

    def test_vector_magnitude_norm(self):
        g = PeriodicGrid(2, 16, length=1.0)
        v = np.stack([3 * np.ones(g.shape), 4 * np.ones(g.shape)])
        assert grids.lp_norm(g, v, 2) == pytest.approx(5.0, rel=1e-14)
        assert grids.lp_norm(g, v, math.inf) == pytest.approx(5.0, rel=1e-14)


class TestConvergence:
    @pytest.mark.parametrize("op", ["gradient", "divergence", "laplacian"])
    def test_second_order_on_trig_fields(self, op):
        errs = []
        for n in (32, 64, 128):
            g = PeriodicGrid(1, n)
            x = g.axis_coords()
            f = np.sin(2 * x)
            if op == "gradient":
                approx = grids.gradient(g, f)[0]
                exact = 2 * np.cos(2 * x)
            elif op == "divergence":
                approx = grids.divergence(g, f[None, :])
                exact = 2 * np.cos(2 * x)
            else:
                approx = grids.laplacian(g, f)
                exact = -4 * np.sin(2 * x)
            errs.append(float(np.max(np.abs(approx - exact))))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 1.9
