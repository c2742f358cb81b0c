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
is integrated exactly for piecewise-linear u_n and K*u_n (a product rule);
that exactness is what keeps the recurrence well behaved when u_n(0)
decays toward zero on profiles without a sub-shock.

The iterates decrease pointwise, stay nonincreasing in x, and remain
pinched between the arctan subsolution and u_c; the solver enforces all
of that at 1e-10 every sweep and treats a violation as a discretization
bug, not a data point.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._quad import trapezoid_weights
from .convolve import (
    REFINE_DEFAULT,
    SOLVER_TAIL_TOL,
    FieldError,
    HalfLineGrid,
    OddConvolver,
    snap_length,
)
from .kernels import Kernel, KernelError, validate_kernel

#: hard floor for iterate samples; a breach means the scheme collapsed
FLOOR_DELTA = 1e-12

#: tolerance for the per-sweep ordering checks
INVARIANT_TOL = 1e-10

# refinement-ratio thresholds for the jump classifier; a discontinuous tag
# additionally requires the jump to clear this many quadrature cells
RATIO_CONTINUOUS = 0.6
RATIO_DISCONTINUOUS = 0.9
JUMP_GRID_FACTOR = 10.0

# subsolution search: probe count on [-L, 0) and the cap on eps halvings
SUBSOLUTION_PROBES = 1024
SUBSOLUTION_MAX_HALVINGS = 40

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


@dataclass
class SubsolutionSpec:
    """arctan comparison function s_sub(x) = -(2 u_c / pi) arctan(eps x)."""

    epsilon: float
    samples: np.ndarray      # s_sub at the grid nodes
    g_sup: float             # max of g over the probe grid
    g_limit: float           # x -> 0 limit of g, from the closed form
    halvings: int


@dataclass
class IterationTrace:
    """Per-sweep diagnostics of the descending iteration."""

    sup_diffs: list = field(default_factory=list)
    u_at_zero: list = field(default_factory=list)
    monotone_violations: list = field(default_factory=list)
    ordering_violations: list = field(default_factory=list)

    def record(self, sup_diff, u0, mono, ordering):
        self.sup_diffs.append(float(sup_diff))
        self.u_at_zero.append(float(u0))
        self.monotone_violations.append(int(mono))
        self.ordering_violations.append(int(ordering))

    @property
    def iterations(self) -> int:
        return len(self.sup_diffs)

    def sup_diffs_nonincreasing(self) -> bool:
        d = np.asarray(self.sup_diffs[1:])
        if d.size < 2:
            return True
        return bool(np.all(np.diff(d) <= 1e-12))

    def rows(self):
        for i in range(self.iterations):
            yield (i + 1, self.sup_diffs[i], self.u_at_zero[i],
                   self.monotone_violations[i], self.ordering_violations[i])


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


def _g_profile(kernel: Kernel, u_c: float, eps: float, probes: np.ndarray):
    """g(x, eps) on the probes plus its x -> 0 limit.

    g is the ratio of the convolution increment of arctan(eps x) to the
    derivative expression of the candidate subsolution; g <= 1 on (-L, 0)
    is the sufficient inequality.
    """
    r = kernel.radius(1e-13)
    z = np.linspace(-r, r, 8193)
    kz = kernel.density(z) * trapezoid_weights(z.size - 1, z[1] - z[0])

    num = np.empty(probes.size)
    chunk = 256
    for i0 in range(0, probes.size, chunk):
        x = probes[i0:i0 + chunk, None]
        diff = np.arctan(eps * (x - z[None, :])) - np.arctan(eps * x)
        num[i0:i0 + chunk] = -(diff @ kz)
    den = (2.0 * u_c / np.pi) * np.arctan(eps * probes) * eps / (1.0 + (eps * probes) ** 2)
    g = num / den

    limit = (np.pi * eps / (2.0 * u_c)) * float(np.sum(z * z * kz / (1.0 + (eps * z) ** 2)))
    return float(np.max(g)), limit


def subsolution(params: WaveParams, kernel: Kernel,
                grid: HalfLineGrid) -> SubsolutionSpec:
    """Pick eps so the arctan profile is a verified subsolution.

    Starting candidate eps_0 = u_c / (pi M2) puts the x -> 0 limit of g at
    1/2 or below; eps is halved until g <= 1 holds on the whole probe grid.
    """
    u_c = params.u_c
    if not (np.isfinite(kernel.m2) and kernel.m2 > 0.0):
        raise SubsolutionError("kernel lacks a finite second moment")
    probes = (-grid.length
              + grid.length * np.arange(SUBSOLUTION_PROBES) / SUBSOLUTION_PROBES)
    eps = u_c / (np.pi * kernel.m2)
    for halvings in range(SUBSOLUTION_MAX_HALVINGS + 1):
        g_sup, g_limit = _g_profile(kernel, u_c, eps, probes)
        if max(g_sup, g_limit) <= 1.0:
            samples = (2.0 * u_c / np.pi) * np.arctan(-eps * grid.nodes())
            return SubsolutionSpec(eps, samples, g_sup, g_limit, halvings)
        eps *= 0.5
    raise SubsolutionError(
        f"g(x, eps) stayed above 1 after {SUBSOLUTION_MAX_HALVINGS} halvings; "
        "the kernel violates the finite-second-moment hypothesis in practice"
    )


# ----------------------------------------------------------------------
# one sweep of the iteration
# ----------------------------------------------------------------------


def _advance(u: np.ndarray, g: np.ndarray, h: float, left_value: float) -> np.ndarray:
    """March w + u w' = g rightward from w(-L) = left_value.

    Per cell, with u and g linear, the update is
        w_{i+1} = r_i w_i + w0_i g_i + w1_i g_{i+1},
    where r_i = exp(dA_i) uses the exact cell decrement of A for linear u
    (the log-mean rule) and (w0, w1) integrate e^{A_{i+1}-A(t)} g(t)/u(t)
    in closed form.  All three weights are nonnegative and w0 + w1 = 1 - r,
    so the update is a convex-type combination: positivity and upper bounds
    of g are inherited exactly.
    """
    u0, u1 = u[:-1], u[1:]
    g0, g1 = g[:-1], g[1:]
    du = u1 - u0
    # u may underflow to exact zero at the origin node; log(0) = -inf makes
    # the weights below degrade to (r, w0, w1) = (0, 0, 1) there, which is
    # their analytic limit
    with np.errstate(divide="ignore"):
        q = np.log(u0) - np.log(u1)
    q = np.maximum(q, 0.0)

    small_q = q <= 1e-8
    safe_du = np.where(small_q, -1.0, du)
    da = np.where(small_q, -2.0 * h / (u0 + u1), h * q / safe_du)
    r = np.exp(da)

    sigma = du / h
    one_p = 1.0 + sigma
    degenerate = np.abs(one_p) <= 1e-6

    # general closed form for the g-weights
    safe_one_p = np.where(degenerate, 1.0, one_p)
    w1_gen = ((u1 - u0 * r) / safe_one_p - u0 * (1.0 - r)) / safe_du

    # u nearly constant on the cell: classic exponential-integrator weights
    theta = -da
    safe_theta = np.where(theta > 0, theta, 1.0)
    w1_const = 1.0 - (1.0 - r) / safe_theta

    # slope near -1: first-order expansion of the degenerate exponent
    u1q = u1 * np.where(u1 > 0.0, q, 0.0)
    w1_slope = 1.0 - u1q / np.where(small_q, 1.0, u0 - u1)

    w1 = np.where(small_q, w1_const, np.where(degenerate, w1_slope, w1_gen))
    w1 = np.clip(w1, 0.0, None)
    w0 = np.clip((1.0 - r) - w1, 0.0, None)

    b = w0 * g0 + w1 * g1
    return _scan(r, b, -da, left_value)


def _scan(r: np.ndarray, b: np.ndarray, decay: np.ndarray, x0: float) -> np.ndarray:
    """Evaluate x_{i+1} = r_i x_i + b_i with r_i = exp(-decay_i), blocked so
    no intermediate exponential overflows."""
    n = r.size
    out = np.empty(n + 1)
    out[0] = x0
    cap = 400.0
    # extended precision keeps rounding of the running sum out of the
    # exponent arguments below
    cum = np.cumsum(decay.astype(np.longdouble))
    start = 0
    base = np.longdouble(0.0)
    while start < n:
        if decay[start] >= cap:
            out[start + 1] = r[start] * out[start] + b[start]
            start += 1
            base = cum[start - 1]
            continue
        end = int(np.searchsorted(cum, base + cap, side="right"))
        end = min(max(end, start + 1), n)
        t = (cum[start:end] - base).astype(float)
        pref = np.cumsum(np.exp(t) * b[start:end])
        out[start + 1:end + 1] = np.exp(-t) * (out[start] + pref)
        start = end
        base = cum[end - 1]
    return out


def iterate_once(values: np.ndarray, params: WaveParams,
                 convolver: OddConvolver) -> np.ndarray:
    """One sweep on the plan's grid: the samples of u_{n+1} from those of
    u_n, solving w + u_n w' = K*u_n with w(-L) = u_c and u_n = u_c on
    x <= -L.

    FieldError unless the samples are one per node, finite, positive, at
    most u_c and nonincreasing.  The origin sample alone may be zero: on
    profiles without a sub-shock it decays below the smallest positive
    float, and the marching rule never divides by it.  The positivity
    floor guards the interior nodes only: there the iterate is pinned
    above the subsolution, so dropping below 1e-12 means the scheme
    collapsed.
    """
    grid = convolver.grid
    u_c = params.u_c
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.n + 1,):
        raise FieldError("need one sample per grid node")
    if not np.all(np.isfinite(values)):
        raise FieldError("field samples must be finite")
    interior_min = float(np.min(values[:-1]))
    if interior_min <= 0.0 or values[-1] < 0.0:
        raise FieldError("admissible fields are positive")
    if np.max(values) > u_c + INVARIANT_TOL:
        raise FieldError("admissible fields do not exceed u_c")
    if np.max(np.diff(values)) > INVARIANT_TOL:
        raise FieldError("admissible fields are nonincreasing")
    if interior_min < FLOOR_DELTA:
        raise IterateCollapseError(
            f"iterate fell below the positivity floor {FLOOR_DELTA:.0e} "
            f"(min interior sample {interior_min:.3e}, n={grid.n}, "
            f"L={grid.length:.6g}); the scheme collapsed"
        )
    g = convolver.apply_values(values, u_c)
    out = _advance(values, g, grid.h, u_c)
    if not np.all(np.isfinite(out)):
        raise SchemeInvariantError("non-finite intermediate in the sweep")
    return out


# ----------------------------------------------------------------------
# the solver
# ----------------------------------------------------------------------


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
               refine: int = REFINE_DEFAULT):
    """Iterate from the supersolution to the wave; returns (profile, trace).

    Raises KernelError if the kernel fails its hypothesis checks, and
    SchemeInvariantError if any ordering invariant fails beyond
    1e-10: that indicates a discretization bug, not a property of the
    problem.  Hitting max_iter is not an error; the best iterate comes
    back with converged=False and classification 'indeterminate'.
    ValueError if max_iter < 1: no sweep would leave no measured sup_diff.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    report = validate_kernel(kernel)
    if not report.all_passed:
        bad = [k for k, c in report.checks.items() if not c.passed]
        raise KernelError(f"kernel fails hypothesis checks: {', '.join(bad)}")
    if length is None:
        length = default_length(kernel, params, n, refine)
    else:
        length = snap_length(kernel, float(length), n, refine)

    grid = HalfLineGrid(length, n)
    convolver = OddConvolver(kernel, grid, refine)
    sub = subsolution(params, kernel, grid)
    u_c = params.u_c

    trace = IterationTrace()
    v = supersolution(params, grid)
    converged = False
    sup_diff = np.inf
    for _ in range(max_iter):
        w = iterate_once(v, params, convolver)

        mono = int(np.count_nonzero(w > v + INVARIANT_TOL))
        mono += int(np.count_nonzero(np.diff(w) > INVARIANT_TOL))
        ordering = int(np.count_nonzero(w < sub.samples - INVARIANT_TOL))
        ordering += int(np.count_nonzero(w > u_c + INVARIANT_TOL))
        if np.min(w[:-1]) <= 0.0 or w[-1] < 0.0:
            raise IterateCollapseError("iterate lost positivity")

        sup_diff = float(np.max(np.abs(w - v)))
        trace.record(sup_diff, w[-1], mono, ordering)
        if mono or ordering:
            raise SchemeInvariantError(
                f"sweep {trace.iterations}: {mono} monotonicity and "
                f"{ordering} ordering violations above {INVARIANT_TOL:.0e}"
            )
        v = w
        if sup_diff <= tol_iter:
            converged = True
            break

    profile = WaveProfile(grid=grid, values=v, params=params,
                          converged=converged, iterations=trace.iterations,
                          final_sup_diff=sup_diff)
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
    resolves L (see solve_wave); the 2N and 4N solves reuse it.
    """
    sizes = (n, 2 * n, 4 * n)
    profiles = []
    for size in sizes:
        prof, _ = solve_wave(kernel, params, length=length, n=size,
                             tol_iter=tol_iter, max_iter=max_iter,
                             refine=refine)
        profiles.append(prof)
        length = prof.grid.length

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
    g = OddConvolver(kernel, grid, refine).apply_values(u, profile.params.u_c)
    h = grid.h
    du = (u[2:] - u[:-2]) / (2.0 * h)
    res = np.abs(u[1:-1] * du - (g[1:-1] - u[1:-1]))
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

    g = OddConvolver(kernel, grid, refine).apply_values(
        profile.values, profile.params.u_c)
    source = _odd_extension(g) - profile.odd_component()
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
    u = profile.values
    u_c = profile.params.u_c
    g = OddConvolver(kernel, grid, refine).apply_values(u, u_c)
    integral = float(np.sum(trapezoid_weights(grid.n, grid.h) * (g - u)))
    target = 0.5 * (float(u[-1]) ** 2 - u_c ** 2)
    return abs(integral - target)


def jump_identity(profile: WaveProfile, kernel: Kernel) -> float:
    """| int y K(y) int_0^1 u(y t) dt dy + u_c^2 / 2 | for continuous waves.

    The derivation moves the derivative through the convolution, which
    needs absolute continuity across 0; calling this on a sub-shock
    profile is a contract violation.
    """
    if profile.classification != "continuous":
        raise ValueError(
            "jump identity only holds for profiles classified continuous; "
            f"got {profile.classification!r}"
        )
    grid = profile.grid
    u_c = profile.params.u_c
    r = min(kernel.radius(1e-13), grid.length)

    x_full = grid.full_nodes()
    u_full = profile.odd_component()

    y = np.linspace(-r, r, 8193)
    t = np.linspace(0.0, 1.0, 257)
    wy = trapezoid_weights(y.size - 1, y[1] - y[0])
    wt = trapezoid_weights(t.size - 1, t[1] - t[0])

    z = y[:, None] * t[None, :]
    u_z = np.interp(z.ravel(), x_full, u_full, left=u_c, right=-u_c)
    inner = (u_z.reshape(z.shape) * wt).sum(axis=1)
    outer = float(np.sum(wy * y * kernel.density(y) * inner))
    return abs(outer + 0.5 * u_c ** 2)


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------


def write_profile_csv(profile: WaveProfile, path):
    """Full-line profile as 'x,U' rows (2N+1 of them)."""
    x, big_u = profile.full_line()
    with open(path, "w", newline="\n") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["x", "U"])
        for xi, ui in zip(x, big_u):
            writer.writerow([repr(float(xi)), repr(float(ui))])


def write_trace_csv(trace: IterationTrace, path):
    with open(path, "w", newline="\n") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["n", "sup_diff", "u_at_zero",
                         "monotone_violations", "ordering_violations"])
        for row in trace.rows():
            writer.writerow([row[0], repr(row[1]), repr(row[2]), row[3], row[4]])
