"""Discrete convolutions against even unit-mass kernels.

Two geometries are supported:

* the half line (-L, 0] carrying the odd wave component, where the
  convolution of an odd function collapses to
  K*u(x) = int_{-inf}^{0} [K(x-y) - K(x+y)] u(y) dy,
  split into the constant far-field mode (exact through the CDF) plus the
  numerically integrated deviation, which vanishes beyond -L;
* a bounded interval [a, b] with constant states u_left / u_right outside,
  used by the time-dependent simulator.

Quadrature is composite trapezoid on a uniformly refined copy of the grid
(the field is interpolated linearly onto the fine grid), which keeps every
quadrature weight nonnegative; monotone comparison of fields is therefore
inherited exactly by the discrete operator.  Direct O(N^2) summation is the
reference; an FFT evaluation of the same sums is the default fast path and
must match the reference to 1e-10 (enforced in the test suite).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft

from ._quad import refine_segments, trapezoid_weights
from .kernels import Kernel

#: default subcell refinement of the quadrature grid
REFINE_DEFAULT = 8

#: hard cap on kernel mass beyond half the truncation length; grids the
#: wave solver picks for itself keep this below SOLVER_TAIL_TOL instead
TAIL_TOL = 1e-6
SOLVER_TAIL_TOL = 1e-10


class GridKernelError(ValueError):
    """Kernel tail too heavy (or domain too short) for the requested grid."""


class FieldError(ValueError):
    """Field samples violate the admissibility contract."""


# ----------------------------------------------------------------------
# geometry
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class HalfLineGrid:
    """Uniform nodes x_i = -L + i h on [-L, 0], with x_N = 0 exactly."""

    length: float
    n: int

    def __post_init__(self):
        if not (self.length > 0.0 and np.isfinite(self.length)):
            raise ValueError("grid length must be positive and finite")
        if self.n < 64:
            raise ValueError("need at least 64 cells")

    @property
    def h(self) -> float:
        return self.length / self.n

    def nodes(self) -> np.ndarray:
        # built as (i - N) h so the last node is exactly 0.0
        return (np.arange(self.n + 1) - self.n) * self.h

    def full_nodes(self) -> np.ndarray:
        """The 2N+1 nodes of [-L, L]: nodes() and their mirror images."""
        x = self.nodes()
        return np.concatenate([x, -x[-2::-1]])


def snap_length(kernel: Kernel, length: float, n: int,
                refine: int = REFINE_DEFAULT) -> float:
    """Round ``length`` up so kernel breakpoints land on fine-grid nodes.

    Only kernels with a finite positive breakpoint (uniform, triangular)
    need this; for them, misaligned density jumps cost an O(h) quadrature
    error that would swamp the solver's 1e-10 ordering invariants.  The
    offset count m is forced odd, which keeps the breakpoint off the
    coarse nodes of this grid and of its x2 and x4 refinements, so a jump
    never sits exactly on a domain endpoint during classification.
    """
    bps = [b for b in kernel.breakpoints() if b > 0.0]
    if not bps or kernel.family == "tabulated":
        return length
    a = max(bps)
    exact = a * refine * n / length
    if abs(exact - round(exact)) <= 1e-9 * max(1.0, exact) and round(exact) >= 1:
        return length  # already aligned (e.g. a refinement of a snapped grid)
    m = int(np.floor(exact))
    if m >= 2 and m % 2 == 0:
        m -= 1
    if m < 1:
        return length
    return a * refine * n / m


# ----------------------------------------------------------------------
# fine-grid plumbing
# ----------------------------------------------------------------------


def _fine_values(values: np.ndarray, refine: int) -> np.ndarray:
    """Linear interpolation onto the refine-times finer grid."""
    if refine == 1:
        return np.asarray(values, dtype=float)
    w = np.arange(refine) / refine
    base = values[:-1, None] * (1.0 - w) + values[1:, None] * w
    return np.append(base.ravel(), values[-1])


# ----------------------------------------------------------------------
# half-line (odd reflection) convolution
# ----------------------------------------------------------------------


class OddConvolver:
    """Precomputed plan for K*u on a fixed half-line grid.

    The constant far-field mode is evaluated exactly through the CDF and
    only the deviation from it is integrated numerically:

    K*u(x_i) = u_c [1 - 2 Phi(x_i)]
               + sum_q w_q [K(x_i - y_q) - K(x_i + y_q)] (u(y_q) - u_c)

    with y_q the refined grid and u interpolated linearly onto it.  The
    deviation vanishes identically beyond -L, so this form carries its own
    tail correction.  Splitting off the constant keeps the discrete
    operator below u_c for admissible fields to rounding error, which the
    wave solver's ordering invariants rely on; plain trapezoid of the full
    integrand would overshoot u_c by O(h^2).

    The two kernel-sample matrices are Toeplitz / Hankel, so both sums
    reduce to a single FFT of the weighted deviation per application.
    """

    def __init__(self, kernel: Kernel, grid: HalfLineGrid,
                 refine: int = REFINE_DEFAULT):
        if refine < 1:
            raise ValueError("refine must be a positive integer")
        tail = kernel.tail_mass(0.5 * grid.length)
        if tail > TAIL_TOL:
            raise GridKernelError(
                f"kernel mass {tail:.3e} beyond L/2 = {0.5 * grid.length:.6g} "
                f"exceeds {TAIL_TOL:.0e}; enlarge the domain"
            )
        self.kernel = kernel
        self.grid = grid
        self.refine = int(refine)

        n, r = grid.n, self.refine
        m = n * r
        hf = grid.h / r
        self._m = m
        # K((p - m) hf) for p = 0..2m: Toeplitz generator K(x_i - y_q)
        self._kt = kernel.density((np.arange(2 * m + 1) - m) * hf)
        # K(-2L + p hf) reversed: Hankel generator K(x_i + y_q)
        kh = kernel.density(-2.0 * grid.length + np.arange(2 * m + 1) * hf)
        self._khr = kh[::-1].copy()
        self._weights = trapezoid_weights(m, hf)

        # exact row integral: int_{-inf}^{inf} [K(x-y) - K(x+y)] 1_{y<0} dy
        self._exact_row = 1.0 - 2.0 * kernel.cdf(grid.nodes())

        self._nfft = next_fast_len(3 * m + 1, real=True)
        self._ft_kt = rfft(self._kt, self._nfft)
        self._ft_khr = rfft(self._khr, self._nfft)

    # -- fast path ------------------------------------------------------

    def apply_values(self, values: np.ndarray, far_value: float) -> np.ndarray:
        """K*u at the nodes for samples u_i = u(x_i), u = far_value on x <= -L."""
        g = self._weights * _fine_values(values - far_value, self.refine)
        ft = rfft(g, self._nfft)
        conv_t = irfft(ft * self._ft_kt, self._nfft)
        conv_h = irfft(ft * self._ft_khr, self._nfft)
        m, r = self._m, self.refine
        idx = np.arange(self.grid.n + 1)
        out = conv_t[m + idx * r] - conv_h[2 * m - idx * r]
        out += far_value * self._exact_row
        out[-1] = 0.0  # odd function against an even kernel vanishes at 0
        return np.maximum(out, 0.0)

    # -- reference path ---------------------------------------------------

    def apply_direct(self, values: np.ndarray, far_value: float) -> np.ndarray:
        """Same sums by direct summation; the fast path must match this."""
        g = self._weights * _fine_values(values - far_value, self.refine)
        m, r = self._m, self.refine
        n = self.grid.n
        q = np.arange(m + 1)
        out = np.empty(n + 1)
        chunk = 64
        for i0 in range(0, n + 1, chunk):
            i = np.arange(i0, min(i0 + chunk, n + 1))
            t = self._kt[i[:, None] * r - q[None, :] + m]
            h = self._khr[2 * m - i[:, None] * r - q[None, :]]
            out[i] = (t - h) @ g
        out += far_value * self._exact_row
        out[-1] = 0.0
        return np.maximum(out, 0.0)


# ----------------------------------------------------------------------
# full-line convolution with constant far fields
# ----------------------------------------------------------------------


class FullLineConvolver:
    """K*u on uniform samples of [a, b] with constant states outside.

    Quadrature is trapezoid on the sample points themselves.  Rows are
    normalized to unit sum (trapezoid weights plus the two CDF tail terms),
    so constants are reproduced exactly: K*c = c.
    """

    def __init__(self, kernel: Kernel, x: np.ndarray):
        x = np.asarray(x, dtype=float)
        if x.ndim != 1 or x.size < 2:
            raise ValueError("need at least two sample points")
        dx = np.diff(x)
        if np.max(np.abs(dx - dx[0])) > 1e-12 * max(1.0, x[-1] - x[0]):
            raise ValueError("sample points must be uniformly spaced")
        span = x[-1] - x[0]
        need = 4.0 * kernel.radius(TAIL_TOL)
        if span < need:
            raise GridKernelError(
                f"domain span {span:.6g} shorter than 4 x kernel radius {need:.6g}"
            )
        self.kernel = kernel
        self.x = x

        npts = x.size
        m = npts - 1
        self._m = m
        self._kt = kernel.density((np.arange(2 * m + 1) - m) * dx[0])
        self._weights = trapezoid_weights(m, dx[0])
        self._nfft = next_fast_len(3 * m + 1, real=True)
        self._ft_kt = rfft(self._kt, self._nfft)

        self._tail_left = 1.0 - kernel.cdf(x - x[0])
        self._tail_right = kernel.cdf(x - x[-1])
        row = self._correlate(np.ones(npts))
        self._row = row + self._tail_left + self._tail_right

    def _correlate(self, values: np.ndarray) -> np.ndarray:
        g = self._weights * values
        conv = irfft(rfft(g, self._nfft) * self._ft_kt, self._nfft)
        return conv[self._m:self._m + self.x.size]

    def apply(self, values: np.ndarray, u_left: float, u_right: float) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if values.shape != self.x.shape:
            raise FieldError("need one sample per node")
        out = self._correlate(values)
        out += u_left * self._tail_left + u_right * self._tail_right
        return out / self._row


# ----------------------------------------------------------------------
# brute-force oracle
# ----------------------------------------------------------------------


def brute_force_convolve(kernel: Kernel, grid: HalfLineGrid, values: np.ndarray,
                         far_value: float, x: float, tol: float = 1e-11,
                         max_levels: int = 24) -> float:
    """Adaptive quadrature of the same odd-reflection integrand at one point.

    Used only as an independent test oracle: the integrand (kernel
    difference times the linearly interpolated field) is integrated over
    every grid cell by repeated interval halving until two successive
    refinements agree to ``tol``, with kernel breakpoints inserted as
    extra segment edges.  The far-field tail is the same exact CDF term
    the grid path uses.
    """
    length = grid.length
    if not (-length <= x <= 0.0):
        raise ValueError("evaluation point must lie in [-L, 0]")
    nodes = grid.nodes()
    edges = set(nodes.tolist())
    for bp in kernel.breakpoints():
        for y_star in (x - bp, x + bp, -bp - x, bp - x):
            if -length < y_star < 0.0:
                edges.add(float(y_star))
    edges = np.array(sorted(edges))

    def integrand(y):
        u = np.interp(y, nodes, values)
        return (kernel.density(x - y) - kernel.density(x + y)) * u

    integral = refine_segments(integrand, edges, rtol=0.0, atol=tol,
                               max_levels=max_levels)
    tail = 1.0 - kernel.cdf(x + length) - kernel.cdf(x - length)
    return float(integral + far_value * tail)
