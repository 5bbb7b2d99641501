"""Uniform periodic grids and the discrete calculus built on them.

All operators are 2nd-order centered differences with periodic wraparound,
which makes the summation-by-parts identity

    integrate(f * divergence(v)) == -integrate(dot(gradient(f), v))

exact up to roundoff. ``laplacian`` uses the compact nearest-neighbour
stencil and therefore differs from ``divergence(gradient(f))``, which is the
wide 2*dx stencil.

Scalar fields are arrays of shape ``grid.shape``; vector fields carry a
leading component axis ``(dim, *grid.shape)``. Storage is row-major, and
dumps flatten in C order.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform grid on the d-torus with period ``length`` per axis."""

    dim: int
    n: int
    length: float = 2.0 * math.pi

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise DomainError(f"dim must be 1, 2 or 3, got {self.dim}")
        if self.n < 8 or self.n % 2 != 0:
            raise DomainError(f"n must be even and at least 8, got {self.n}")
        if not (math.isfinite(self.length) and self.length > 0.0):
            raise DomainError(f"length must be positive, got {self.length}")
        # Python float ** raises on overflow and rounds an underflow to a
        # subnormal or 0, which would make dt or every integral 0.
        try:
            normal = min(self.dx**2, self.cell_volume, self.volume) >= sys.float_info.min
        except OverflowError:
            normal = False
        if not normal:
            raise DomainError(
                "length must keep dx**2 and the cell and grid volumes finite and "
                f"normal, got {self.length}"
            )

    @property
    def dx(self) -> float:
        return self.length / self.n

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

    @property
    def npoints(self) -> int:
        return self.n**self.dim

    @property
    def cell_volume(self) -> float:
        return self.dx**self.dim

    @property
    def volume(self) -> float:
        return self.length**self.dim

    def axis_coords(self) -> np.ndarray:
        """Grid point positions along one axis: j*dx for j = 0..n-1."""
        return np.arange(self.n) * self.dx

    def coordinates(self) -> np.ndarray:
        """Point coordinates, shape (dim, *shape)."""
        axes = np.meshgrid(*([self.axis_coords()] * self.dim), indexing="ij")
        return np.stack(axes)


def _space_axis(grid: PeriodicGrid, values: np.ndarray, i: int) -> int:
    """Array axis corresponding to spatial direction i."""
    return values.ndim - grid.dim + i


@functools.cache
def _neighbour_plan(shape: tuple[int, ...], ax: int) -> tuple:
    """Index plan of ``_neighbours`` along axis ax of a C-ordered array.

    First the (out, values[j+1], values[j-1]) slices of the flat arrays,
    shifted by the axis stride: one contiguous op over them gets every
    interior plane right, and the end planes wrong, since their neighbour
    wraps around the period. Then the (out, ahead, behind) index tuples
    that rewrite both end planes in one op: planes (0, n-1) from planes
    (1, 0) and (n-1, n-2).
    """
    stride = math.prod(shape[ax + 1 :])
    flat = (slice(stride, -stride), slice(2 * stride, None), slice(None, -2 * stride))
    lead = (slice(None),) * ax
    ends = (slice(None, None, shape[ax] - 1), slice(1, None, -1), slice(-1, -3, -1))
    return flat, tuple(lead + (s,) for s in ends)


def _neighbours(op, values: np.ndarray, ax: int, out: np.ndarray) -> None:
    """out[j] = op(values[j+1], values[j-1]) along axis ax, wrapping periodically.

    This is op(np.roll(values, -1), np.roll(values, 1)) without the copies,
    in two ops: the interior on the flat arrays, then both end planes. out
    must be C-contiguous; a non-contiguous ``values`` is read through a
    flat copy.
    """
    (here, ahead, behind), (ends, first, last) = _neighbour_plan(values.shape, ax)
    flat = values.ravel()
    op(flat[ahead], flat[behind], out=out.ravel()[here])
    op(values[first], values[last], out=out[ends])


def _centered(
    grid: PeriodicGrid, values: np.ndarray, i: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Centred difference along spatial axis i, into ``out`` (C-contiguous) if given."""
    if out is None:
        out = np.empty(values.shape, np.result_type(values, 1.0))
    _neighbours(np.subtract, values, _space_axis(grid, values, i), out)
    out /= 2.0 * grid.dx
    return out


def gradient(grid: PeriodicGrid, f: np.ndarray) -> np.ndarray:
    """Centered gradient d_i f, with any leading axes of f kept after i.

    A scalar field gives shape (dim, *shape); a vector field gives its
    Jacobian d_i v_j, shape (dim, dim, *shape).
    """
    return np.stack([_centered(grid, f, i) for i in range(grid.dim)])


def divergence(grid: PeriodicGrid, v: np.ndarray) -> np.ndarray:
    """Centered divergence of a vector field, shape (*shape)."""
    out = _centered(grid, v[0], 0)
    for i in range(1, grid.dim):
        out += _centered(grid, v[i], i)
    return out


def laplacian(grid: PeriodicGrid, f: np.ndarray) -> np.ndarray:
    """Nearest-neighbour Laplacian; applied per component to vector fields."""
    out = np.zeros_like(f)
    pair = np.empty_like(out, order="C")
    for i in range(grid.dim):
        _neighbours(np.add, f, _space_axis(grid, f, i), pair)
        pair -= 2.0 * f
        out += pair
    out /= grid.dx**2
    return out


def integrate(grid: PeriodicGrid, f: np.ndarray):
    """Cell-volume-weighted sum; vector fields integrate per component."""
    space = tuple(range(f.ndim - grid.dim, f.ndim))
    out = f.sum(axis=space) * grid.cell_volume
    return float(out) if out.ndim == 0 else out


def pointwise_magnitude(grid: PeriodicGrid, values: np.ndarray) -> np.ndarray:
    """Euclidean magnitude over any leading component axes."""
    return _magnitude(values, grid.dim)


def _magnitude(values: np.ndarray, point_ndim: int) -> np.ndarray:
    """Euclidean magnitude over the axes before the last ``point_ndim``.

    A single component takes ``np.abs``, which equals sqrt(v*v) wherever
    v*v neither overflows nor underflows, and stays exact where it would.
    """
    if values.ndim == point_ndim:
        return np.abs(values)
    flat = values.reshape(-1, *values.shape[values.ndim - point_ndim :])
    if len(flat) == 1:
        return np.abs(flat[0])
    return np.sqrt(np.sum(flat * flat, axis=0))


def lp_norm(grid: PeriodicGrid, values: np.ndarray, p) -> float:
    """Discrete L^p norm; vectors and tensors use the pointwise magnitude."""
    mag = pointwise_magnitude(grid, values)
    p = float(p)
    if p == math.inf:
        return float(np.max(mag))
    if p < 1.0:
        raise DomainError(f"lp_norm requires p >= 1 or inf, got {p}")
    return float(integrate(grid, mag**p) ** (1.0 / p))


def weighted_l2(grid: PeriodicGrid, weight: np.ndarray, v: np.ndarray) -> float:
    """(integral of weight*|v|^2)**0.5; the weight must be nonnegative."""
    if np.any(weight < 0.0):
        raise DomainError("weighted_l2 requires a nonnegative weight")
    mag = pointwise_magnitude(grid, v)
    return float(math.sqrt(integrate(grid, weight * mag * mag)))
