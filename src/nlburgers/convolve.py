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
inherited exactly by the discrete operator.  On the half line the field
is linear between coarse nodes, so the fine-grid sum is evaluated exactly
on the coarse nodes by product integration: each coarse sample multiplies
a hat-weighted column of fine kernel samples.  Both geometries then reduce
to one primitive: a window [lo, hi) of the linear correlation of a
length-G generator with a length-V input, by one real FFT round trip.
The window stays free of wrap-around at max(hi, G + V - 1 - lo) points,
and the FFT length is the next fast one.  The half line takes the "valid"
window [V - 1, G) of its full generators and folds its Hankel (mirror)
term into the same spectrum; it drops the two end nodes, which exact end
columns carry, so its length is at least 2N - 1.  Both geometries sample
the kernel only over its numerical support |y| <= R, R the radius
outside which the mass is below ROUNDING_TAIL, a band of B cells; every
other sample is 0.  On the full line that shortens the FFT: m + 1
samples need m + 1 + B points.  On the half line it only saves kernel
evaluations and column sums: the Hankel term reaches offsets up to 2L
and shares the Toeplitz spectrum, so a shorter FFT would alias it into
the kept outputs, and the length stays at 2N.  Direct summation on the
fine grid, kept in the test suite, is the reference, and the fast path
must match it to 1e-10.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.fft import irfft, rfft
from numpy.lib.stride_tricks import sliding_window_view

from .kernels import Kernel

#: default subcell refinement of the quadrature grid
REFINE_DEFAULT = 8

#: hard cap on kernel mass beyond half the truncation length; grids the
#: wave solver picks for itself keep this below SOLVER_TAIL_TOL instead
TAIL_TOL = 1e-6
SOLVER_TAIL_TOL = 1e-10

#: kernel mass the full-line band may leave out: eps / 16 = 2^-56, below
#: the rounding of a float64 row sum of unit mass
ROUNDING_TAIL = np.finfo(float).eps / 16


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
        if not isinstance(self.n, (int, np.integer)):
            raise ValueError(f"cell count must be an integer, got {self.n!r}")
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
    if kernel.family == "tabulated":
        return length
    bps = [b for b in kernel.breakpoints() if b > 0.0]
    if not bps:
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
# weights, Toeplitz correlation and column sums
# ----------------------------------------------------------------------


def trapezoid_weights(m: int, h: float) -> np.ndarray:
    """Composite trapezoid weights on m + 1 nodes spaced h apart."""
    w = np.full(m + 1, h)
    w[0] = w[-1] = 0.5 * h
    return w


def _fast_length(n: int) -> int:
    """Smallest 5-smooth number 2^a 3^b 5^c >= n: a fast real FFT length."""
    n = max(n, 1)
    while True:
        rest = n
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return n
        n += 1


class _Toeplitz:
    """A window of the linear correlation of a generator c of length G
    with inputs v of length V:

        y_k = sum_j c[k - j] v_j - sum_j b[k - j] v_{V-1-j},
        k = lo..hi - 1,

    entries of the full product (k = 0..G + V - 2), minus, when a second
    generator b of length G is given, b's product with the reversed input
    (a Hankel product).  Each plan passes its own window (lo, hi).

    A circular convolution of nfft points adds y_{k + nfft} and y_{k - nfft}
    to y_k.  The kept outputs stay free of both when nfft >= hi and
    nfft >= G + V - 1 - lo, so the FFT length is the next fast one above
    both.  With F = rfft(v) and w = exp(-2 pi i / nfft), the zero-padded
    reversed input has the spectrum w^((V-1)k) conj(F_k), so b's spectrum
    is stored with that phase, as the rfft of b rotated by V - 1, and both
    products share one rfft and one irfft.
    """

    def __init__(self, generator: np.ndarray, size: int, window: tuple,
                 hankel: Optional[np.ndarray] = None):
        self._lo, self._hi = window
        self.nfft = _fast_length(max(self._hi, generator.size + size - 1 - self._lo))
        self._ft = rfft(generator, self.nfft)
        self._fh = None
        if hankel is not None:
            padded = np.zeros(self.nfft)
            padded[:hankel.size] = hankel
            self._fh = rfft(np.roll(padded, size - 1))

    def __call__(self, v: np.ndarray) -> np.ndarray:
        spec = rfft(v, self.nfft)
        out = spec * self._ft
        if self._fh is not None:
            np.conjugate(spec, out=spec)
            spec *= self._fh
            out -= spec
        return irfft(out, self.nfft)[self._lo:self._hi]


def _band_rows(samples: np.ndarray, band: tuple, weights: np.ndarray,
               start: int, stride: int, count: int) -> np.ndarray:
    """samples[start + s stride:][:len(weights)] @ weights for s = 0..count-1,
    formed only on the rows that meet the band [lo, hi) outside which every
    sample is 0; the other rows are 0."""
    lo, hi = band
    width = weights.size
    first = max(0, -((start + width - 1 - lo) // stride))
    last = min(count, (hi - 1 - start) // stride + 1)
    out = np.zeros(count)
    if first < last:
        begin = start + first * stride
        rows = samples[begin:begin + (last - 1 - first) * stride + width]
        out[first:last] = sliding_window_view(rows, width)[::stride] @ weights
    return out


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

    The interpolated deviation is sum_j d_j phi_j with d_j = u_j - u_c and
    phi_j the hat of node j, so the fine sum is a coarse one (product
    integration).  With k = -(r-1)..r-1 over one hat and h_f = h / r,

    sum_q w_q K(x_i - y_q) phi_j(y_q) = A_{i-j},
        A_D = sum_k h_f (1 - |k|/r) K((D r - k) h_f)             (Toeplitz)
    sum_q w_q K(x_i + y_q) phi_j(y_q) = B_{i+j},
        B_S = sum_k h_f (1 - |k|/r) K(-2L + (S r + k) h_f)       (Hankel)

    for interior j.  The half hats at j = 0 and j = N carry the trapezoid
    end weight h_f / 2; their exact columns replace A and B there.  The
    kernel is sampled at integer multiples of h_f only.  The interior
    values d_1..d_{N-1} then meet A_{1-N}..A_{N-1} and B_1..B_{2N-1}
    alone, so both sums are one spectral correlation (A minus B against
    the reversed input) at an FFT length of at least 2N - 1.

    K is sampled only on the band of ``band`` = B = ceil(R / h) cells,
    |y| <= B h, with R = kernel.radius(ROUNDING_TAIL); B is at most 2N,
    the widest offset the Hankel term reaches.  Every other sample is 0,
    and each column is a windowed dot product over the rows that reach
    the band only.  ``dropped_mass``, the kernel mass beyond B h (0 when
    the band spans 2L), is at most 2^-56, so the plan moves by rounding
    only; kernels of exact support drop nothing.  ``tail_mass`` is the
    kernel mass beyond L/2: at most TAIL_TOL (the plan refuses more), and
    at most SOLVER_TAIL_TOL on the domains the wave solver picks.  Each
    Hankel sample keeps its float argument -2L + (S r + k) h_f.  The
    Toeplitz row holds the same offsets in exact arithmetic, but not in
    floats: where a density jump lies within an ulp of a sample, the two
    roundings read different values.  The exact row 1 - 2 Phi(x_i) rounds to exactly 1 where
    x_i < -R, and Phi is evaluated only inside.
    """

    def __init__(self, kernel: Kernel, grid: HalfLineGrid,
                 refine: int = REFINE_DEFAULT):
        if not isinstance(refine, (int, np.integer)) or refine < 1:
            raise ValueError(f"refine must be a positive integer, got {refine!r}")
        tail = kernel.tail_mass(0.5 * grid.length)
        if tail > TAIL_TOL:
            raise GridKernelError(
                f"kernel mass {tail:.3e} beyond L/2 = {0.5 * grid.length:.6g} "
                f"exceeds {TAIL_TOL:.0e}; enlarge the domain"
            )
        self.kernel = kernel
        self.grid = grid
        self.refine = int(refine)
        self.tail_mass = tail

        n, r = grid.n, self.refine
        m = n * r
        hf = grid.h / r
        radius = kernel.radius(ROUNDING_TAIL)
        # offsets reach 2L (the Hankel term's x_0 + y_0), so B <= 2N
        b = min(2 * n, int(np.ceil(radius / grid.h)))
        self.band = b
        self.dropped_mass = kernel.tail_mass(b * grid.h) if b < 2 * n else 0.0
        # K(p hf) and K(-2L + (p + m) hf) at index p + m, p = -m..m: every
        # fine offset x_i -/+ y_q that a hat reaches.  Only the offsets
        # |y| <= B h are sampled; the others stay 0
        reach = b * r
        kt, kh = np.zeros(2 * m + 1), np.zeros(2 * m + 1)
        pt = min(reach, m)
        kt[m - pt:m + pt + 1] = kernel.density(np.arange(-pt, pt + 1.0) * hf)
        ph = min(reach, 2 * m)
        kh[2 * m - ph:] = kernel.density(-2.0 * grid.length
                                         + np.arange(2 * m - ph, 2 * m + 1.0) * hf)
        band_t, band_h = (m - pt, m + pt + 1), (2 * m - ph, 2 * m + 1)
        hat = hf * (1.0 - np.abs(np.arange(1 - r, r)) / r)
        # A_{1-N}..A_{N-1} and B_1..B_{2N-1}: A_D reads the 2r - 1 samples
        # from p = D r - (r - 1), so row D = 1 - N starts at index 1; B_S
        # reads the same indices.  The valid window [V - 1, G) keeps the rows
        # where every input meets c[0..G-1]
        self._correlation = _Toeplitz(
            _band_rows(kt, band_t, hat, 1, r, 2 * n - 1), n - 1,
            window=(n - 2, 2 * n - 1),
            hankel=_band_rows(kh, band_h, hat, 1, r, 2 * n - 1))
        self._nfft = self._correlation.nfft   # plan size, read by benchmark tracing

        # half hats at j = 0 (fine k = 0..r-1) and j = N (k = -(r-1)..0),
        # as weights on increasing sample index: row i reads kt at
        # i r - k + m and kh at i r + k for node 0, and the mirror for node N
        end = hat[r - 1:].copy()
        end[0] *= 0.5
        self._end0 = (_band_rows(kt, band_t, end[::-1], m - r + 1, r, n + 1)
                      - _band_rows(kh, band_h, end, 0, r, n + 1))
        self._endn = (_band_rows(kt, band_t, end, 0, r, n + 1)
                      - _band_rows(kh, band_h, end[::-1], m - r + 1, r, n + 1))

        # exact row integral: int_{-inf}^{inf} [K(x-y) - K(x+y)] 1_{y<0} dy,
        # which rounds to 1 where x < -R (there 2 Phi(x) <= 2^-56)
        x = grid.nodes()
        self._exact_row = np.ones(n + 1)
        inside = int(np.searchsorted(x, -radius))
        self._exact_row[inside:] = 1.0 - 2.0 * kernel.cdf(x[inside:])

    # -- fast path ------------------------------------------------------

    def apply_values(self, values: np.ndarray, far_value: float) -> np.ndarray:
        """K*u at the nodes for samples u_i = u(x_i), u = far_value on x <= -L.

        FieldError unless there is one sample per node."""
        if np.shape(values) != (self.grid.n + 1,):
            raise FieldError("need one sample per grid node")
        d = values - far_value
        out = self._correlation(d[1:-1])
        out += d[0] * self._end0 + d[-1] * self._endn + far_value * self._exact_row
        out[-1] = 0.0  # odd function against an even kernel vanishes at 0
        return np.maximum(out, 0.0)


# ----------------------------------------------------------------------
# full-line convolution with constant far fields
# ----------------------------------------------------------------------


class FullLineConvolver:
    """K*u on uniform samples of [a, b] with constant states outside.

    Quadrature is trapezoid on the sample points themselves, over the
    offsets |y| <= R with R = kernel.radius(ROUNDING_TAIL): the band of
    B = min(m, ceil(R / dx)) cells on either side of each sample.  The
    kernel mass beyond it is below float64 rounding of a unit-mass row, so
    the band changes results by rounding only; kernels of exact support
    (uniform, triangular, tabulated) drop nothing.  A band-limited
    generator of 2B + 1 samples against m + 1 inputs needs m + 1 + B FFT
    points, not 2m + 1; a band that covers the span gives the full plan.
    Rows are normalized to unit sum (banded trapezoid weights plus the two
    CDF tail terms), so constants are reproduced exactly: K*c = c.  The far
    states u_left and u_right are the plan's: it sums their tail terms once.
    """

    def __init__(self, kernel: Kernel, x: np.ndarray, u_left: float, u_right: float):
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
        self.x = x

        m = x.size - 1
        b = min(m, int(np.ceil(kernel.radius(ROUNDING_TAIL) / dx[0])))
        self.band = b
        # kernel mass beyond the band, at most ROUNDING_TAIL; none when the
        # band spans the domain, whose outside the CDF tails carry
        self.dropped_mass = kernel.tail_mass(b * dx[0]) if b < m else 0.0
        self._weights = trapezoid_weights(m, dx[0])
        # K at offsets -B..B; output i is product entry i + B
        self._toeplitz = _Toeplitz(kernel.density((np.arange(2 * b + 1) - b) * dx[0]),
                                   m + 1, window=(b, b + m + 1))
        # plan size, read by the simulator's run report and benchmark tracing
        self._nfft = self._toeplitz.nfft

        tail_left = 1.0 - kernel.cdf(x - x[0])
        tail_right = kernel.cdf(x - x[-1])
        self._row = self._toeplitz(self._weights) + tail_left + tail_right
        self._far_field = u_left * tail_left + u_right * tail_right

    def apply(self, values: np.ndarray) -> np.ndarray:
        """K*u at the sample points for u = values on [a, b]."""
        values = np.asarray(values, dtype=float)
        if values.shape != self.x.shape:
            raise FieldError("need one sample per node")
        out = self._toeplitz(self._weights * values)
        out += self._far_field
        out /= self._row
        return out
