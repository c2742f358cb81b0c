"""Traveling-wave profiles by descending monotone iteration.

For far-field states u_- > u_+ the wave is U = s + u with speed
s = (u_- + u_+)/2 and an odd, nonincreasing component u solving

    u u' = K*u - u,   u(-inf) = u_c = (u_- - u_+)/2,

on the half line.  The scheme starts from the step supersolution u_c and
repeatedly solves the linear problem

    w + u_n w' = K*u_n,   w(-inf) = u_c,

whose bounded solution is w(x) = int_{-inf}^x e^{A(x)-A(t)} F(t) dt with
A(t) = int_t^0 dr/u_n(r) and F = (K*u_n)/u_n.  Every exponent is <= 0, so
the marching form of this integral is unconditionally stable.  Each cell
is integrated exactly for piecewise-linear u_n and K*u_n (a product rule),
by one closed form that holds at every cell slope; that exactness is what
keeps the recurrence well behaved when u_n(0) decays toward zero on
profiles without a sub-shock.

The iterates decrease pointwise, stay nonincreasing in x, and remain
pinched between the arctan subsolution and u_c.  These rules are stated
once, in _check, which names the first one an array breaks; the solver
checks each iterate once, right after the sweep that made it, at 1e-10,
and treats a broken rule as a discretization bug, not a data point.

The plain iteration converges linearly, at a rate that nears 1 for small
amplitudes.  After two consecutive sweeps v_{k-1} -> v_k -> v_{k+1} whose
sup changes satisfy d_k > d_{k+1} > 0, the solver extrapolates along the
last descent step (Brezinski & Redivo-Zaglia, Extrapolation Methods, 1991):
with rho = d_{k+1}/d_k the candidate is

    v_{k+1} - theta rho/(1 - rho) (v_k - v_{k+1}),   theta = 0.7,

which takes most of the geometric tail of the dominant error mode in one
step.  The previous sweep's check proved v_k - v_{k+1} >= 0, so the
candidate moves down only; its origin sample is clamped at 0, the value
the march's origin limit gives an underflowed sample, so a step that
overshoots there alone does not cost the candidate.  A candidate is swept
only if it passes the iterate check against v_{k+1}; one that fails is
formed again at theta/2 and then theta/4 (EXTRAPOLATION_HALVINGS) before
the sweep runs plainly from v_{k+1}.  A swept candidate is kept only if
its sweep's output passes the same check against it; otherwise the
candidate and its sweep are discarded, the next sweep runs plainly from
v_{k+1}, and the next candidate starts one halving below the discarded
one, at theta/4 at the lowest.  An accepted candidate puts theta back at
0.7.  So every accepted iterate still descends and stays inside the
bracket at 1e-10, and every swept candidate counts as a sweep.

Each sweep's march is the recurrence w_{i+1} = r_i w_i + b_i with
r_i = exp(-theta_i).  When the decay of the interior cells, sum theta, is
at most PRODUCT_DECAY = 400, it runs on running products (one cumprod and
one cumsum); otherwise it runs by recursive doubling.  Waves of moderate
amplitude have a decay of tens to a few hundred and take the products;
weak waves, whose decay runs to thousands, keep the doubling, because their
products would fall through the subnormals (several times slower per
element) and then to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .convolve import (
    REFINE_DEFAULT,
    SOLVER_TAIL_TOL,
    FieldError,
    HalfLineGrid,
    OddConvolver,
    _fast_length,
    snap_length,
    trapezoid_weights,
)
from .kernels import Kernel, KernelError, validate_kernel

#: hard floor for iterate samples; a breach means the scheme collapsed
FLOOR_DELTA = 1e-12

#: tolerance for the per-sweep ordering checks
INVARIANT_TOL = 1e-10

#: largest interior decay sum(theta) that the march runs on running
#: products; they then stay >= e^-400 ~ 2^-577, far above the subnormals
PRODUCT_DECAY = 400.0

#: the iterate rules in the order _check tests them; each reads after "samples"
RULE_FINITE = "are finite"
RULE_NONINCREASING = "are nonincreasing"
RULE_CEILING = "do not exceed u_c"
RULE_POSITIVE = "are positive"
RULE_FLOOR = "stay above the subsolution"
RULE_DESCENT = "do not rise above the previous array"

#: share of the geometric tail an extrapolated candidate takes; see the
#: module docstring
EXTRAPOLATION_THETA = 0.7

#: halvings of EXTRAPOLATION_THETA a refused or discarded candidate's
#: retries go down to
EXTRAPOLATION_HALVINGS = 2

#: kinds of trace row: a plain sweep, a sweep from an accepted candidate,
#: and a discarded candidate's sweep
PLAIN_SWEEP, CANDIDATE_SWEEP, DISCARDED_CANDIDATE = 0, 1, 2

# refinement-ratio thresholds for the jump classifier; a discontinuous tag
# additionally requires the jump to clear this many quadrature cells
RATIO_CONTINUOUS = 0.6
RATIO_DISCONTINUOUS = 0.9
JUMP_GRID_FACTOR = 10.0

# subsolution search: probe count on [-L, 0) and the cap on eps halvings
SUBSOLUTION_PROBES = 1024
SUBSOLUTION_MAX_HALVINGS = 40

#: probe-window overlap Q = ceil((2m + 1)/p) from which g's correlation
#: runs polyphase by FFT rather than as strided dot products, and the fine
#: samples per block of phases on that path; see _g_profile
POLYPHASE_MIN_TAPS = 40
POLYPHASE_BLOCK_SAMPLES = 2**14

#: (center, width) of the weak residual's smooth test functions; one
#: straddles 0, and all must fit inside (-L, L)
WEAK_BUMPS = ((-5.0, 3.0), (0.0, 2.0), (4.0, 3.0))


class ParamsError(ValueError):
    """Far-field states do not define a decreasing wave."""


class SchemeInvariantError(RuntimeError):
    """A monotonicity or ordering invariant failed beyond tolerance."""


class IterateCollapseError(RuntimeError):
    """An iterate fell below the positivity floor."""


class SubsolutionError(RuntimeError):
    """No epsilon made the arctan comparison function a subsolution."""


# ----------------------------------------------------------------------
# parameters and results
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class WaveParams:
    """Far-field states with the derived speed and half-amplitude."""

    u_minus: float
    u_plus: float

    def __post_init__(self):
        object.__setattr__(self, "u_minus", float(self.u_minus))
        object.__setattr__(self, "u_plus", float(self.u_plus))
        if not (np.isfinite(self.u_minus) and np.isfinite(self.u_plus)):
            raise ParamsError("far-field states must be finite")
        if not self.u_minus > self.u_plus:
            raise ParamsError("u_minus must exceed u_plus")

    @property
    def s(self) -> float:
        return 0.5 * (self.u_minus + self.u_plus)

    @property
    def u_c(self) -> float:
        return 0.5 * (self.u_minus - self.u_plus)

    @property
    def amplitude(self) -> float:
        return self.u_minus - self.u_plus


@dataclass(frozen=True)
class SubsolutionSpec:
    """arctan comparison function s_sub(x) = -(2 u_c / pi) arctan(eps x).

    The certificate g <= 1 depends on the kernel, u_c and L alone, which
    it records; it holds no samples, and ``samples(grid)`` takes them on
    any grid of [-L, 0].  It is the epsilon decision alone: a solve given
    it still validates the kernel.
    """

    epsilon: float
    g_sup: float             # max of g over the probe grid
    g_limit: float           # x -> 0 limit of g, from the closed form
    halvings: int
    kernel: Kernel
    u_c: float
    length: float

    def samples(self, grid: HalfLineGrid) -> np.ndarray:
        """s_sub at the grid nodes."""
        return (2.0 * self.u_c / np.pi) * np.arctan(-self.epsilon * grid.nodes())


@dataclass
class IterationTrace:
    """Per-sweep diagnostics of the descending iteration: one row per
    computed sweep, its kind PLAIN_SWEEP, CANDIDATE_SWEEP or
    DISCARDED_CANDIDATE.  Both violation counts are always 0 (a broken rule
    raises, or discards a candidate); they keep the CSV layout."""

    sup_diffs: list = field(default_factory=list)
    u_at_zero: list = field(default_factory=list)
    monotone_violations: list = field(default_factory=list)
    ordering_violations: list = field(default_factory=list)
    kinds: list = field(default_factory=list)

    def record(self, sup_diff, u0, kind):
        self.sup_diffs.append(float(sup_diff))
        self.u_at_zero.append(float(u0))
        self.monotone_violations.append(0)
        self.ordering_violations.append(0)
        self.kinds.append(int(kind))

    @property
    def iterations(self) -> int:
        return len(self.sup_diffs)


@dataclass
class WaveProfile:
    """Converged half-line component with its full-line view.

    values[i] = u(x_i) on [-L, 0]; U(x) = s + u(x) for x < 0, U(0) = s and
    U(x) = s - u(-x) for x > 0, so U(x) + U(-x) = 2 s by construction.
    The jump estimate is J = 2 u(0-).
    """

    grid: HalfLineGrid
    values: np.ndarray
    params: WaveParams
    converged: bool
    iterations: int
    final_sup_diff: float
    classification: str = "indeterminate"
    # the solve's grid-free certificate and plan, kept for reuse by the caller
    subsolution: Optional[SubsolutionSpec] = field(default=None, repr=False,
                                                   compare=False)
    convolver: Optional[OddConvolver] = field(default=None, repr=False,
                                              compare=False)

    @property
    def jump(self) -> float:
        return 2.0 * float(self.values[-1])

    def full_line(self):
        """(x, U) on the symmetric grid of 2N+1 nodes."""
        return self.grid.full_nodes(), self.params.s + self.odd_component()

    def odd_component(self) -> np.ndarray:
        """Odd extension of the wave component; 0 at the origin node."""
        return _odd_extension(self.values)

    def magnitude(self) -> np.ndarray:
        """|u| on the full-line grid, with u(0-) kept at the origin node."""
        v = self.values
        return np.concatenate([v, v[-2::-1]])

    def interp_full(self, x) -> np.ndarray:
        """U sampled anywhere, constant u_-/u_+ beyond the grid."""
        xs, big_u = self.full_line()
        return np.interp(x, xs, big_u,
                         left=self.params.u_minus, right=self.params.u_plus)


def _odd_extension(v: np.ndarray) -> np.ndarray:
    """Half-line samples on [-L, 0] extended oddly to the 2N+1 full-line
    nodes, with 0 at the origin node."""
    return np.concatenate([v[:-1], [0.0], -v[-2::-1]])


# ----------------------------------------------------------------------
# super- and subsolution
# ----------------------------------------------------------------------


def supersolution(params: WaveParams, grid: HalfLineGrid) -> np.ndarray:
    """The step u_0 = u_c: the iteration always starts here."""
    return np.full(grid.n + 1, params.u_c)


def _z_quadrature(kernel: Kernel, length: float):
    """(probes, z nodes, z weights, p) of g; see _g_profile."""
    r = kernel.radius(1e-13)
    p = int(np.ceil(length * 4096.0 / (SUBSOLUTION_PROBES * r)))
    dz = length / (SUBSOLUTION_PROBES * p)
    m = int(np.ceil(r / dz)) - 1
    inner = np.nextafter(r, 0.0)
    z = np.append(dz * np.arange(-m, m + 1), [-r, r])
    w = kernel.density(np.clip(z, -inner, inner))
    cell = max(r - m * dz, 0.0)
    w[:-2] *= dz
    w[[0, -3]] *= 0.5 * (1.0 + cell / dz)
    w[-2:] *= 0.5 * cell
    return -length + dz * (p * np.arange(SUBSOLUTION_PROBES)), z, w, p


def _g_profile(quad, u_c: float, eps: float):
    """g(x, eps) on the probes plus its x -> 0 limit.

    g is the ratio of the convolution increment of arctan(eps x) to the
    derivative expression of the candidate subsolution; g <= 1 on (-L, 0)
    is the sufficient inequality.

    The z-sum runs on nodes k dz, where dz = (L/1024)/p divides the probe
    spacing and is at most 2r/8192 (r the 1e-13 mass radius), plus two
    partial end cells that reach +-r with the density's inner one-sided
    limit, so a density that jumps at +-r keeps its mass.  The sum is then
    a correlation with f(t) = arctan(eps t) - c eps t on one fine grid: the
    linear part cancels since sum w_z z = 0, and the secant slope c, taken
    over T = L + r, keeps f as small as the increment at any eps L.

    Neighbouring probe windows overlap in Q = ceil((2m + 1)/p) probe
    spacings.  From Q = POLYPHASE_MIN_TAPS up the correlation runs
    polyphase by FFT (_polyphase_correlation); below it, where windows
    barely overlap, as strided dot products (_strided_correlation).
    """
    x, z, w, p = quad
    m = (z.size - 3) // 2
    dz, r = z[m + 1], z[-1]

    def f(t):
        return np.arctan(eps * t) - t * np.arctan(eps * (r - x[0])) / (r - x[0])

    taps = -(-(2 * m + 1) // p)
    correlate = (_polyphase_correlation if taps >= POLYPHASE_MIN_TAPS
                 else _strided_correlation)
    corr = correlate(f, x, dz, w[:-2], p)
    num = np.sum(w) * f(x) - corr - w[-1] * (f(x - r) + f(x + r))
    den = (2.0 * u_c / np.pi) * np.arctan(eps * x) * eps / (1.0 + (eps * x) ** 2)
    limit = (np.pi * eps / (2.0 * u_c)) * float(np.sum(z * z * w / (1.0 + (eps * z) ** 2)))
    return num / den, limit


def _strided_correlation(f, x, dz, w, p):
    """sum_j w_j f(x_i + (j - m) dz) for every probe x_i, with 2m + 1 = w.size.

    Each block of about five window widths evaluates f once on its fine
    samples and reads each probe's window as a strided view.
    """
    m = w.size // 2
    # the last block may run past x = 0; its extra windows are dropped
    block = min(1 + 8 * m // p, x.size)
    offsets = dz * np.arange(-m, (block - 1) * p + m + 1)
    windows = (sliding_window_view(f(x[i0] + offsets), w.size)[::p]
               for i0 in range(0, x.size, block))
    return np.concatenate([np.einsum("ij,j->i", v, w) for v in windows])[:x.size]


def _polyphase_correlation(f, x, dz, w, p):
    """The sum of _strided_correlation by polyphase FFT correlation
    (Crochiere & Rabiner, Multirate Digital Signal Processing, 1983).

    Probe i reads the fine samples i p + j - m, j = 0..2m.  With j = q p + phi
    the sum splits into p phases, each a Q-tap correlation along the probe
    axis of the samples s p + phi - m (s = 0..N + Q - 2) with the weights
    w_{q p + phi}.  A block of phases takes one batched rfft of its samples
    and of its weights; the products accumulate over all phases, and one
    irfft returns the N sums.  Only the lags the probes read are computed,
    and a block holds about POLYPHASE_BLOCK_SAMPLES fine samples.
    """
    m = w.size // 2
    taps = -(-w.size // p)
    rows = x.size + taps - 1
    nfft = _fast_length(rows)
    phases = np.zeros(taps * p)
    phases[:w.size] = w
    phases = phases.reshape(taps, p).T
    # fine-sample indices as exact floating-point integers
    starts = np.arange(-m, rows * p - m, p, dtype=float)
    block = max(1, POLYPHASE_BLOCK_SAMPLES // rows)
    acc = np.zeros(nfft // 2 + 1, dtype=complex)
    for phi in range(0, p, block):
        stop = min(phi + block, p)
        k = np.arange(phi, stop, dtype=float)[:, None] + starts
        spectra = np.fft.rfft(f(x[0] + dz * k), nfft)
        spectra *= np.conj(np.fft.rfft(phases[phi:stop], nfft))
        acc += spectra.sum(axis=0)
    return np.fft.irfft(acc, nfft)[:x.size]


def subsolution(params: WaveParams, kernel: Kernel,
                grid: HalfLineGrid) -> SubsolutionSpec:
    """Pick eps so the arctan profile is a verified subsolution.

    Starting candidate eps_0 = u_c / (pi M2) puts the x -> 0 limit of g at
    1/2 or below; eps is halved until g <= 1 holds on the whole probe grid.
    """
    u_c = params.u_c
    if not (np.isfinite(kernel.m2) and kernel.m2 > 0.0):
        raise SubsolutionError("kernel lacks a finite second moment")
    quad = _z_quadrature(kernel, grid.length)
    eps0 = u_c / (np.pi * kernel.m2)
    for halvings in range(SUBSOLUTION_MAX_HALVINGS + 1):
        eps = eps0 * 0.5**halvings
        g, g_limit = _g_profile(quad, u_c, eps)
        g_sup = float(np.max(g))
        if max(g_sup, g_limit) <= 1.0:
            return SubsolutionSpec(
                epsilon=eps, g_sup=g_sup, g_limit=g_limit, halvings=halvings,
                kernel=kernel, u_c=u_c, length=grid.length)
    raise SubsolutionError(
        f"g(x, eps) stayed above 1 after {SUBSOLUTION_MAX_HALVINGS} halvings "
        f"(u_c = {u_c:.3e}, last eps = {eps:.3e}, g_sup = {g_sup:.3e}): either "
        "the kernel tail is too heavy for the finite-second-moment hypothesis, "
        "or u_c is so small that g is at the rounding level of its sums"
    )


# ----------------------------------------------------------------------
# one sweep of the iteration
# ----------------------------------------------------------------------


def _advance(u: np.ndarray, g: np.ndarray, h: float, left_value: float) -> np.ndarray:
    """March w + u w' = g rightward from w(-L) = left_value.

    Per cell, with u and g linear, the update is
        w_{i+1} = r_i w_i + w0_i g_i + w1_i g_{i+1}.
    With u0 = u_i, u1 = u_{i+1} and du = u0 - u1, the cell's decay is
        theta = int dt/u = h q / du,   q = log1p(du / u1)
    (h / u1 when du = 0), and r = exp(-theta).  E(t) = exp(-int_t^{x_{i+1}}
    ds/u) has cell mean m = (u1 theta / h) (e^z - 1)/z with z = q - theta
    (1 at z = 0), so w1 = 1 - m and w0 = 1 - r - w1.  This one
    form is exact at every slope, flat cells and slope -1 included.  Where
    u1 underflows to zero or to a denormal that overflows du / u1, theta is
    infinite and (r, w0, w1) = (0, 0, 1), the analytic limit.  All three
    weights are nonnegative and w0 + w1 = 1 - r, so the update is a
    convex-type combination: positivity and upper bounds of g are
    inherited exactly.

    The recurrence runs on running products (_product_scan) when the
    interior cells' decay, the sum of theta over all but the origin cell,
    is at most PRODUCT_DECAY, and by doubling (_scan) otherwise, a
    non-finite sum included.  The sum is taken before any product is
    formed: a cumprod that passes through the subnormals takes about eight
    times as long, and a products scan broken into blocks at each
    underflow needs hundreds of blocks on weak waves.
    """
    u0, u1 = u[:-1], u[1:]
    du = u0 - u1
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        q = np.log1p(du / u1)
        theta = h * q / du
        flat = np.flatnonzero(du == 0.0)
        theta[flat] = h / u1[flat]
        # only the last cell's u1 can underflow: _check keeps interior
        # samples >= FLOOR_DELTA
        origin = not np.isfinite(theta[-1])
        if origin:
            theta[-1] = np.inf
        r = np.exp(-theta)
        z = q - theta
        m = np.expm1(z) / z
        m[z == 0.0] = 1.0
        m *= u1 * theta / h
        w1 = np.maximum(1.0 - m, 0.0)
        w0 = np.maximum(1.0 - r - w1, 0.0)
    if origin:
        w1[-1], w0[-1] = 1.0, 0.0
    b = w0 * g[:-1] + w1 * g[1:]
    # a NaN decay compares false and takes the doubling
    if r.size >= 2 and theta[:-1].sum() <= PRODUCT_DECAY:
        return _product_scan(r, b, left_value)
    return _scan(r, b, left_value)


def _product_scan(r: np.ndarray, b: np.ndarray, x0: float) -> np.ndarray:
    """x_{i+1} = r_i x_i + b_i from x_0 = x0 on running products, the
    prefix-sum form of a first-order linear recurrence (Blelloch 1990).

    With p_k = r_0 ... r_k, x_{k+1} = p_k (x0 + sum_{j<=k} b_j / p_j) for
    the cells k <= n - 2: one cumprod, one cumsum and two elementwise
    passes.  The caller takes this path only when the decay of those cells
    is at most PRODUCT_DECAY, so every p_k >= e^-400 is a normal float.
    The last cell, whose r is 0 on continuous waves, is one scalar step.
    For b >= 0 the running sums are nondecreasing, so the last one bounds
    them all.  Where it overflows, which takes n max(b) e^PRODUCT_DECAY
    beyond the float range (b ~ 1e131 at n = 4096), the doubling runs
    instead, so the result is finite wherever the recurrence is.
    """
    n = r.size
    out = np.empty(n + 1)
    out[0] = x0
    p = np.cumprod(r[:-1])
    c = out[1:n]
    with np.errstate(over="ignore"):
        np.divide(b[:-1], p, out=c)
        c[0] += x0
        np.cumsum(c, out=c)
    if not math.isfinite(c[-1]):
        return _scan(r, b, x0)
    c *= p
    out[n] = r[-1] * out[n - 1] + b[-1]
    return out


def _scan(r: np.ndarray, b: np.ndarray, x0: float) -> np.ndarray:
    """x_{i+1} = r_i x_i + b_i from x_0 = x0, by recursive doubling
    (Kogge & Stone 1973).

    Cell i is the map x -> r_i x + b_i; folding x0 into cell 0 makes its
    map constant.  The round with stride k composes each cell i >= k with
    the one k before it, c_i += a_i c_{i-k}; cells i < 2k have then reached
    cell 0, so only a_i with i >= 2k, which later rounds read, take
    a_i *= a_{i-k}.  After ceil(log2 n) rounds c_i = x_{i+1}.  The march
    has 0 <= r_i <= 1 and b_i >= 0, so every term is nonnegative: nothing
    overflows or cancels, and a cell with r_i = 0 just cuts off everything
    before it.  No running product spans the whole domain, so weak waves,
    whose decay exceeds PRODUCT_DECAY and whose running products would
    underflow, take this path (see _advance).
    """
    n = r.size
    out = np.empty(n + 1)
    out[0] = x0
    out[1:] = b
    out[1] += r[0] * x0
    a, c = r.copy(), out[1:]
    # one work array: it takes each round's products a_i c_{i-k}, then
    # the new a_i, and trades places with a (whose cells i < 2k no later
    # round reads)
    tmp = np.empty(n)
    k = 1
    while k < n:
        np.multiply(a[k:], c[:-k], out=tmp[k:])
        c[k:] += tmp[k:]
        np.multiply(a[2 * k:], a[k:-k], out=tmp[2 * k:])
        a, tmp = tmp, a
        k *= 2
    return out


def iterate_once(values: np.ndarray, params: WaveParams,
                 convolver: OddConvolver) -> np.ndarray:
    """One checked sweep on the plan's grid: the samples of u_{n+1} from
    those of u_n, solving w + u_n w' = K*u_n with w(-L) = u_c and u_n = u_c
    on x <= -L.

    FieldError unless the samples are one per node, finite, nonincreasing,
    at most u_c and positive, tested in _check's order and named in the
    message.  The origin sample alone may be zero: on profiles without a
    sub-shock it decays below the smallest positive float, and the marching
    rule never divides by it.  IterateCollapseError for an interior sample
    in (0, 1e-12): pinned above the subsolution, such an iterate means the
    scheme collapsed.  solve_wave checks its own iterates and calls _sweep.
    """
    grid = convolver.grid
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.n + 1,):
        raise FieldError("need one sample per grid node")
    rule, _ = _check(values, values, -np.inf, params.u_c + INVARIANT_TOL)
    if rule == RULE_POSITIVE and np.min(values[:-1]) > 0.0 and values[-1] >= 0.0:
        raise _collapse(values, grid)
    if rule is not None:
        raise FieldError(f"admissible fields {rule}")
    out = _sweep(values, params.u_c, convolver)
    if not np.all(np.isfinite(out)):
        raise SchemeInvariantError("non-finite intermediate in the sweep")
    return out


def _sweep(values: np.ndarray, u_c: float, convolver: OddConvolver) -> np.ndarray:
    """iterate_once without its input checks or its finiteness check on
    the output, for checked samples."""
    g = convolver.apply_values(values, u_c)
    return _advance(values, g, convolver.grid.h, u_c)


def _collapse(values: np.ndarray, grid: HalfLineGrid) -> IterateCollapseError:
    return IterateCollapseError(
        f"iterate fell below the positivity floor {FLOOR_DELTA:.0e} (min interior "
        f"sample {np.min(values[:-1]):.3e}, origin sample {values[-1]:.3e}, "
        f"n={grid.n}, L={grid.length:.6g}); the scheme collapsed")


# ----------------------------------------------------------------------
# the solver
# ----------------------------------------------------------------------


def _check(w: np.ndarray, above: np.ndarray, floor, ceiling: float):
    """(rule, sup_diff): the first RULE_* that w breaks as the array after
    ``above``, or None, and max |w - above|.  In that order, samples must
    be finite; nonincreasing, none more than INVARIANT_TOL above its left
    neighbour; at most ``ceiling``; at least FLOOR_DELTA inside and 0 at
    the origin; at least ``floor``; at most ``above`` + INVARIANT_TOL.
    A non-finite sample makes sup_diff non-finite when ``above`` is finite
    or is w itself."""
    d = w - above
    rise = d.max()
    sup_diff = abs(float(max(rise, -d.min())))
    if not math.isfinite(sup_diff):
        return RULE_FINITE, sup_diff
    steps = w[1:] - w[:-1]
    top = steps.max()
    if not top <= INVARIANT_TOL:
        return RULE_NONINCREASING, sup_diff
    # a nonincreasing w has its max at the first sample and the min of its
    # interior at the last interior one
    high, low = (w[0], w[-2]) if top <= 0.0 else (w.max(), w[:-1].min())
    if not high <= ceiling:
        return RULE_CEILING, sup_diff
    if not (low >= FLOOR_DELTA and w[-1] >= 0.0):
        return RULE_POSITIVE, sup_diff
    if np.count_nonzero(w < floor):
        return RULE_FLOOR, sup_diff
    # w_i - a_i <= 0 means w_i <= a_i <= a_i + INVARIANT_TOL
    if rise > 0.0 and np.count_nonzero(w > above + INVARIANT_TOL):
        return RULE_DESCENT, sup_diff
    return None, sup_diff


def default_length(kernel: Kernel, params: WaveParams, n: int = 4096,
                   refine: int = REFINE_DEFAULT) -> float:
    """Truncation length: 25 max(1, sqrt(M2), u_c), enlarged so the kernel
    mass beyond L/2 stays below SOLVER_TAIL_TOL, then snapped so density
    breakpoints land on quadrature nodes."""
    base = 25.0 * max(1.0, np.sqrt(kernel.m2), params.u_c)
    base = max(base, 2.0 * kernel.radius(SOLVER_TAIL_TOL))
    return snap_length(kernel, base, n, refine)


def solve_wave(kernel: Kernel, params: WaveParams, *,
               length: Optional[float] = None, n: int = 4096,
               tol_iter: float = 1e-8, max_iter: int = 5000,
               refine: int = REFINE_DEFAULT,
               certificate: Optional[SubsolutionSpec] = None):
    """Iterate from the supersolution to the wave; returns (profile, trace).

    The kernel is validated on every call.  The profile keeps the
    convolution plan built for its grid and the subsolution certificate.  A
    ``certificate`` from an earlier solve or a subsolution call with the
    same kernel object, u_c and L is reused in place of a new subsolution
    search; it holds no samples: they are taken on this grid.

    Sweeps from extrapolated candidates (see the module docstring) count
    toward ``max_iter`` and the trace like plain sweeps; a discarded
    candidate's sweep has a trace row of kind DISCARDED_CANDIDATE and never
    becomes an iterate.  A candidate refused before its sweep is retried
    at theta/2 and theta/4 and costs no sweep; after a discard the next
    candidate starts one halving lower, and after an accepted one at
    theta again.  _check checks each candidate before its sweep and each
    sweep's output after it; sweeps run unchecked (_sweep) on the
    supersolution or checked arrays.

    Raises KernelError if the kernel fails its hypothesis checks, and for a
    sweep output that breaks a rule of _check IterateCollapseError (the
    positivity rule) or SchemeInvariantError naming the sweep and the rule:
    a discretization bug, not a property of the problem.  Hitting max_iter
    is not an error; the best iterate comes back with converged=False.
    Classification is left to classify_shock.  ValueError if max_iter < 1
    (no sweep leaves no measured sup_diff), unless 0 <= tol_iter < inf (inf
    converges after one sweep, NaN or a negative tolerance never does), and
    for a certificate made for another kernel object, u_c or L.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if not 0.0 <= tol_iter < np.inf:
        raise ValueError(f"tol_iter must be finite and nonnegative, got {tol_iter}")
    report = validate_kernel(kernel)
    if not report.all_passed:
        bad = [k for k, c in report.checks.items() if not c.passed]
        raise KernelError(f"kernel fails hypothesis checks: {', '.join(bad)}")
    if length is None:
        length = default_length(kernel, params, n, refine)
    else:
        length = snap_length(kernel, float(length), n, refine)
    if certificate is not None:
        if certificate.kernel is not kernel:
            raise ValueError("subsolution certificate was made for another kernel")
        if certificate.u_c != params.u_c:
            raise ValueError(f"subsolution certificate was made for u_c = "
                             f"{certificate.u_c!r}, not {params.u_c!r}")
        if certificate.length != length:
            raise ValueError(f"subsolution certificate was made for L = "
                             f"{certificate.length!r}, not {length!r}")

    grid = HalfLineGrid(length, n)
    convolver = OddConvolver(kernel, grid, refine)
    if certificate is None:
        certificate = subsolution(params, kernel, grid)
    floor, ceiling = certificate.samples(grid) - INVARIANT_TOL, params.u_c + INVARIANT_TOL

    trace = IterationTrace()
    # sup_diff is the change of the sweep that made v, back that sweep's
    # input and back_diff the change of the sweep that made back; both
    # diffs are None where no sweep made the array (the supersolution, a
    # candidate)
    v, sup_diff = supersolution(params, grid), None
    back, back_diff = None, None
    # halvings of theta the next candidate starts at
    lowered = 0
    converged = False
    while trace.iterations < max_iter:
        start, kind = v, PLAIN_SWEEP
        if back_diff is not None and back_diff > sup_diff > 0.0:
            rho, descent = sup_diff / back_diff, back - v
            for halvings in range(lowered, EXTRAPOLATION_HALVINGS + 1):
                theta = EXTRAPOLATION_THETA * 0.5**halvings
                candidate = v - (theta * rho / (1.0 - rho)) * descent
                candidate[-1] = max(candidate[-1], 0.0)
                if _check(candidate, v, floor, ceiling)[0] is None:
                    start, kind = candidate, CANDIDATE_SWEEP
                    break
        w = _sweep(start, params.u_c, convolver)
        rule, diff = _check(w, start, floor, ceiling)
        if rule == RULE_FINITE:
            raise SchemeInvariantError("non-finite intermediate in the sweep")
        if kind == CANDIDATE_SWEEP and rule is not None:
            # not an iterate: v stays, the next sweep is plain from it, and
            # the next candidate starts one halving lower
            trace.record(diff, w[-1], DISCARDED_CANDIDATE)
            back_diff = None
            lowered = min(halvings + 1, EXTRAPOLATION_HALVINGS)
            continue
        if kind == CANDIDATE_SWEEP:
            lowered = 0
        if rule == RULE_POSITIVE:
            raise _collapse(w, grid)
        if rule is not None:
            raise SchemeInvariantError(f"sweep {trace.iterations + 1} breaks "
                                       f"the iterate rule: samples {rule}")
        trace.record(diff, w[-1], kind)
        back, back_diff = start, (sup_diff if kind == PLAIN_SWEEP else None)
        v, sup_diff = w, diff
        if sup_diff <= tol_iter:
            converged = True
            break

    profile = WaveProfile(grid=grid, values=v, params=params,
                          converged=converged, iterations=trace.iterations,
                          final_sup_diff=sup_diff, subsolution=certificate,
                          convolver=convolver)
    return profile, trace


# ----------------------------------------------------------------------
# classification
# ----------------------------------------------------------------------


@dataclass
class ShockClassification:
    """Theorem prediction next to the measured refinement-ratio verdict."""

    predicted_by_theorem: bool
    measured: str
    jumps: tuple
    ratios: tuple
    grid_sizes: tuple
    length: float
    amplitude: float
    threshold: float
    profile: WaveProfile

    @property
    def consistent(self) -> bool:
        return not (self.predicted_by_theorem and self.measured == "continuous")


def classify_shock(kernel: Kernel, params: WaveParams, *,
                   n: int = 1024, length: Optional[float] = None,
                   tol_iter: float = 1e-8, max_iter: int = 5000,
                   refine: int = REFINE_DEFAULT) -> ShockClassification:
    """Tag the wave by how its jump estimate responds to grid refinement.

    J(N), J(2N), J(4N) at fixed L: ratios below RATIO_CONTINUOUS mean the
    jump is a vanishing discretization artifact; ratios above
    RATIO_DISCONTINUOUS with J(4N) clear of the finest spacing mean a
    genuine sub-shock; anything else stays indeterminate.  The N solve
    resolves L (see solve_wave) and certifies the subsolution; the 2N and
    4N solves reuse both.
    """
    sizes = (n, 2 * n, 4 * n)
    profiles = []
    certificate = None
    for size in sizes:
        prof, _ = solve_wave(kernel, params, length=length, n=size,
                             tol_iter=tol_iter, max_iter=max_iter,
                             refine=refine, certificate=certificate)
        profiles.append(prof)
        length = prof.grid.length
        certificate = prof.subsolution

    jumps = tuple(p.jump for p in profiles)
    ratios = tuple(
        jumps[i + 1] / jumps[i] if jumps[i] > 0.0 else 0.0 for i in range(2)
    )
    finest = profiles[-1]
    if not all(p.converged for p in profiles):
        measured = "indeterminate"
    elif all(r <= RATIO_CONTINUOUS for r in ratios):
        measured = "continuous"
    elif (all(r >= RATIO_DISCONTINUOUS for r in ratios)
          and jumps[-1] > JUMP_GRID_FACTOR * finest.grid.h / refine):
        measured = "discontinuous"
    else:
        measured = "indeterminate"

    finest.classification = measured
    threshold = 4.0 * kernel.m1
    return ShockClassification(
        predicted_by_theorem=params.amplitude > threshold,
        measured=measured,
        jumps=jumps,
        ratios=ratios,
        grid_sizes=sizes,
        length=finest.grid.length,
        amplitude=params.amplitude,
        threshold=threshold,
        profile=finest,
    )


# ----------------------------------------------------------------------
# residuals and identities
# ----------------------------------------------------------------------


def _source(profile: WaveProfile, kernel: Kernel, refine: int) -> np.ndarray:
    """K*u - u at the half-line nodes, the source term of u u' = K*u - u
    that every residual check reads.  K*u comes from the profile's own plan
    when it was built for this kernel object, refine and grid, and from a
    fresh plan otherwise."""
    plan = profile.convolver
    if (plan is None or plan.kernel is not kernel or plan.refine != refine
            or plan.grid != profile.grid):
        plan = OddConvolver(kernel, profile.grid, refine)
    return plan.apply_values(profile.values, profile.params.u_c) - profile.values


def pointwise_residual(profile: WaveProfile, kernel: Kernel,
                       refine: int = REFINE_DEFAULT):
    """max |u u' - (K*u - u)| at interior nodes, a five-node collar at 0
    excluded.

    Returns (residual, grid spacing).  u' is the centered difference; the
    collar isolates the point where the profile may jump.  For kernels
    whose density itself jumps, the profile loses a derivative at the
    images x = -offset of the jump, so those nodes get the same two-node
    collar treatment as the origin.
    """
    grid = profile.grid
    u = profile.values
    h = grid.h
    du = (u[2:] - u[:-2]) / (2.0 * h)
    res = np.abs(u[1:-1] * du - _source(profile, kernel, refine)[1:-1])
    keep = np.ones(res.size, dtype=bool)
    keep[res.size - 5:] = False
    x = grid.nodes()[1:-1]
    for offset in kernel.density_jumps():
        keep &= np.abs(x + offset) > 2.0 * h
    return float(np.max(res[keep])), h


def _bump(x: np.ndarray, center: float, width: float) -> np.ndarray:
    t = (x - center) / width
    out = np.zeros_like(x)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ti * ti))
    return out


def weak_residual(profile: WaveProfile, kernel: Kernel,
                  refine: int = REFINE_DEFAULT) -> float:
    """max | int (U^2/2 - s U) phi' + (K*U - U) phi dx | over WEAK_BUMPS.

    phi' is taken as the centered difference of the sampled bump, so a
    constant state integrates to exactly zero (the sum telescopes).  The
    quadratic term is evaluated through |u|, which is continuous across
    the jump (that is the Rankine-Hugoniot condition), so the origin node
    carries its one-sided limit rather than the midpoint value.
    """
    grid = profile.grid
    length, h = grid.length, grid.h
    for c, w in WEAK_BUMPS:
        if not (-length < c - w and c + w < length):
            raise ValueError(f"bump ({c}, {w}) not supported inside (-L, L)")

    x = grid.full_nodes()
    mag = profile.magnitude()
    quad = 0.5 * mag * mag - 0.5 * profile.params.s ** 2

    source = _odd_extension(_source(profile, kernel, refine))
    weights = trapezoid_weights(x.size - 1, h)

    worst = 0.0
    for c, w in WEAK_BUMPS:
        phi = _bump(x, c, w)
        dphi = np.zeros_like(phi)
        dphi[1:-1] = (phi[2:] - phi[:-2]) / (2.0 * h)
        total = float(np.sum(weights * (quad * dphi + source * phi)))
        worst = max(worst, abs(total))
    return worst


def flux_balance(profile: WaveProfile, kernel: Kernel,
                 refine: int = REFINE_DEFAULT) -> float:
    """| int_{-L}^0 (K*u - u) dx - (u(0-)^2 - u_c^2)/2 |.

    Integrating the profile equation over the half line gives this flux
    identity for continuous and sub-shock waves alike.
    """
    grid = profile.grid
    source = _source(profile, kernel, refine)
    integral = float(np.sum(trapezoid_weights(grid.n, grid.h) * source))
    target = 0.5 * (float(profile.values[-1]) ** 2 - profile.params.u_c ** 2)
    return abs(integral - target)


def jump_identity(profile: WaveProfile, kernel: Kernel) -> float:
    """| int K(y) F(y) dy + u_c^2 / 2 | for continuous waves, F(y) = int_0^y u.

    This is int y K(y) int_0^1 u(y t) dt dy with s = y t.  F is exact for
    the piecewise-linear odd component: a cumulative trapezoid sum at the
    nodes, plus the trapezoid of the cell containing y.  The derivation
    moves the derivative through the convolution, which needs absolute
    continuity across 0; calling this on a sub-shock profile is a
    contract violation.
    """
    if profile.classification != "continuous":
        raise ValueError(
            "jump identity only holds for profiles classified continuous; "
            f"got {profile.classification!r}"
        )
    grid = profile.grid
    u_c = profile.params.u_c
    r = min(kernel.radius(1e-13), grid.length)

    x = grid.full_nodes()
    u = profile.odd_component()
    big_f = np.concatenate(([0.0], np.cumsum(0.5 * np.diff(x) * (u[1:] + u[:-1]))))
    big_f -= big_f[grid.n]   # F(0) = 0 at the origin node

    y = np.linspace(-r, r, 8193)
    j = np.clip(np.searchsorted(x, y, side="right") - 1, 0, x.size - 2)
    f_y = big_f[j] + 0.5 * (y - x[j]) * (u[j] + np.interp(y, x, u))
    wy = trapezoid_weights(y.size - 1, y[1] - y[0])
    return abs(float(np.sum(wy * kernel.density(y) * f_y)) + 0.5 * u_c ** 2)


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------


def format_cells(column) -> list:
    """The cells of one numeric column: the repr of each Python value (never
    of a numpy scalar), which reads back exactly and holds no comma, quote
    or newline to escape."""
    return list(map(repr, np.asarray(column).tolist()))


def write_rows(handle, columns):
    """Equal-length columns of cells as comma-separated lines."""
    text = "\n".join(map(",".join, zip(*columns, strict=True)))
    if text:
        handle.write(text + "\n")


def write_columns(path, header, columns):
    """Equal-length numeric columns as a header line and one row per index."""
    with open(path, "w", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        write_rows(handle, [format_cells(col) for col in columns])


def write_profile_csv(profile: WaveProfile, path):
    """Full-line profile as 'x,U' rows (2N+1 of them)."""
    write_columns(path, ["x", "U"], profile.full_line())


def write_trace_csv(trace: IterationTrace, path):
    """Columns n (sweep number from 1), sup_diff (sup norm of the sweep's
    change), u_at_zero (origin sample of its output), monotone_violations
    and ordering_violations (always 0: an iterate that breaks a rule
    raises; kept for the layout), and kind (0 plain sweep, 1 sweep from an
    accepted candidate, 2 discarded candidate)."""
    write_columns(path, ["n", "sup_diff", "u_at_zero", "monotone_violations",
                         "ordering_violations", "kind"],
                  [range(1, trace.iterations + 1), trace.sup_diffs, trace.u_at_zero,
                   trace.monotone_violations, trace.ordering_violations, trace.kinds])
