"""Adaptive quadrature and finite-volume step oracles for the test suite.

The package computes every kernel constant from a closed form; these
routines recompute them from the density alone, independently of those
formulas.  ``refine_segments`` refines composite midpoint sums by
repeated interval halving and accelerates them with a Romberg table.  The
midpoint rule is open: segment endpoints are never evaluated, so
integrands may jump at the supplied edges (kernel support boundaries,
interpolation kinks).  Within a segment the integrand must be smooth
enough for an even-power error expansion, which is what makes the
Richardson acceleration valid.

Integrands are expected to be vectorized (ndarray -> ndarray).

The step oracles at the end evaluate the simulator's explicit step as
plain out-of-place array expressions; the package must match them bit
for bit where its full-line sum runs by FFT, and to rounding where it
runs the exponential family's recursion.
"""

import numpy as np
from scipy.fft import next_fast_len


class QuadratureError(RuntimeError):
    """Refinement failed to converge, or the integrand gave a non-finite sum."""


def refine_segments(f, edges, rtol=1e-12, atol=1e-13, max_levels=24):
    """Integrate f over [edges[0], edges[-1]], split at the interior edges.

    All segments are halved in lockstep; the total at each level feeds a
    Romberg table whose diagonal is the returned estimate.  Convergence is
    declared when two successive diagonal entries agree to rtol/atol.  A
    non-finite total raises at once: refining cannot make it finite.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2:
        raise ValueError("need at least two segment edges")
    if np.any(np.diff(edges) < 0):
        raise ValueError("segment edges must be nondecreasing")

    left = edges[:-1]
    width = np.diff(edges)
    keep = width > 0
    left, width = left[keep], width[keep]
    if left.size == 0:
        return 0.0

    diag = []
    row = []
    npts = 1  # subintervals per segment at the current level
    for level in range(max_levels + 1):
        step = width / npts
        offs = (np.arange(npts) + 0.5) * step[:, None]
        mids = left[:, None] + offs
        fm = f(mids.ravel()).reshape(mids.shape)
        total = float(np.sum(step * np.sum(fm, axis=1)))
        if not np.isfinite(total):
            raise QuadratureError(f"non-finite sum {total!r} at level {level}")
        npts *= 2

        # Romberg: R[l][k] = R[l][k-1] + (R[l][k-1] - R[l-1][k-1]) / (4^k - 1)
        new_row = [total]
        factor = 1.0
        for k in range(len(row)):
            factor *= 4.0
            new_row.append(new_row[k] + (new_row[k] - row[k]) / (factor - 1.0))
        row = new_row
        diag.append(row[-1])

        if level >= 2:
            err = abs(diag[-1] - diag[-2])
            if err <= max(atol, rtol * abs(diag[-1])):
                return diag[-1]

    raise QuadratureError(
        f"quadrature did not converge in {max_levels} refinement levels "
        f"(last increment {abs(diag[-1] - diag[-2]):.3e})"
    )


def quadrature_edges(kernel):
    """[0, R] with R the 1e-14 mass radius, split at density breakpoints."""
    r = kernel.radius(1e-14)
    return sorted({0.0, r, *(b for b in kernel.breakpoints() if 0.0 < b < r)})


def moment_quadrature(kernel):
    """m1 and m2 by adaptive quadrature of the density.

    Integrates over the half line up to the 1e-14 mass radius and doubles
    (evenness).  Independent of the closed forms.
    """
    edges = quadrature_edges(kernel)
    m1 = 2.0 * refine_segments(lambda y: y * kernel.density(y), edges)
    m2 = 2.0 * refine_segments(lambda y: y * y * kernel.density(y), edges)
    return m1, m2


def mass_quadrature(kernel):
    """Total mass by adaptive quadrature over the 1e-14 radius."""
    return 2.0 * refine_segments(kernel.density, quadrature_edges(kernel))


def cdf_quadrature(kernel, x):
    """Phi(x) by adaptive quadrature of the density from -R, with the
    kernel's breakpoints (every node of a table) as segment edges."""
    r = kernel.radius(1e-14)
    if x <= -r:
        return 0.0
    cuts = {-r, min(x, r)}
    cuts.update(s * b for b in kernel.breakpoints() for s in (-1.0, 1.0))
    edges = sorted(c for c in cuts if -r <= c <= min(x, r))
    return refine_segments(kernel.density, edges)


# ----------------------------------------------------------------------
# the half-line plan, built over every fine offset
# ----------------------------------------------------------------------


def strided_columns(samples, weights, starts, stride, count):
    """sum_t weights[t] samples[starts[t] + s stride] for s = 0..count-1,
    one strided pass per weight."""
    out = np.zeros(count)
    for w, start in zip(weights, starts):
        out += w * samples[start::stride][:count]
    return out


def odd_plan_parts(kernel, grid, refine, mirror=False):
    """(Toeplitz generator, Hankel generator, node-0 column, node-N column,
    exact row) of OddConvolver, sampling K at every fine offset a hat
    reaches, p = -(m+r-1)..m+r-1, with no band.  The Hankel samples sit at
    -2L + (p + m) h_f; ``mirror`` takes them at (p - m) h_f instead, the
    same offsets in exact arithmetic but not in floats."""
    n, r = grid.n, refine
    m = n * r
    hf = grid.h / r
    p = np.arange(-(m + r - 1), m + r)
    kt = kernel.density(p * hf)
    kh = kernel.density((p - m) * hf if mirror else -2.0 * grid.length + (p + m) * hf)
    hat = hf * (1.0 - np.abs(np.arange(1 - r, r)) / r)
    toeplitz = strided_columns(kt, hat, range(r, 3 * r - 1), r, 2 * n - 1)
    hankel = strided_columns(kh, hat, range(r, 3 * r - 1), r, 2 * n - 1)
    end = hat[r - 1:].copy()
    end[0] *= 0.5
    near = r - 1 + np.arange(r)
    far = m + r - 1 - np.arange(r)
    end0 = (strided_columns(kt, end, far, r, n + 1)
            - strided_columns(kh, end, near, r, n + 1))
    endn = (strided_columns(kt, end, near, r, n + 1)
            - strided_columns(kh, end, far, r, n + 1))
    return toeplitz, hankel, end0, endn, 1.0 - 2.0 * kernel.cdf(grid.nodes())


# ----------------------------------------------------------------------
# the finite-volume step, as plain array expressions
# ----------------------------------------------------------------------


def rusanov_flux_diff(u, u_left, u_right):
    """F_{j+1/2} - F_{j-1/2} with constant ghost states, one expression
    per quantity; the package computes the same operations in place."""
    ext = np.concatenate([[u_left], u, [u_right]])
    size, square = np.abs(ext), ext * ext
    speed = np.maximum(size[:-1], size[1:])
    flux = 0.25 * (square[:-1] + square[1:]) - 0.5 * speed * (ext[1:] - ext[:-1])
    return flux[1:] - flux[:-1]


def full_line_correlation(kernel, x, s, band):
    """sum_j K((i - j) dx) s_j over the offsets |i - j| <= band, by one
    real FFT of the 2 band + 1 kernel samples, wrap-free at the next fast
    length of m + 1 + band points.  With the plan's band this is the
    plan's "fft" method bit for bit; with band m it takes every offset."""
    m, dx = x.size - 1, x[1] - x[0]
    nfft = next_fast_len(m + 1 + band, real=True)
    generator = kernel.density((np.arange(2 * band + 1) - band) * dx)
    spec = np.fft.rfft(s, nfft) * np.fft.rfft(generator, nfft)
    return np.fft.irfft(spec, nfft)[band:band + m + 1]


def geometric_correlation(kernel, x, s):
    """The exponential family's sum as its two first-order recursions,
    F_i = rho F_(i-1) + s_i and G_i = rho G_(i+1) + s_i with
    rho = e^(-k dx), one sample at a time: K(0) (F + G - s)."""
    rho = np.exp(-kernel.param * (x[1] - x[0]))
    forward, backward = np.empty(s.size), np.empty(s.size)
    acc = 0.0
    for i in range(s.size):
        acc = rho * acc + s[i]
        forward[i] = acc
    acc = 0.0
    for i in reversed(range(s.size)):
        acc = rho * acc + s[i]
        backward[i] = acc
    return kernel.density(0.0) * (forward + backward - s)


def full_line_apply(plan, kernel, values, u_left, u_right, correlate=None):
    """FullLineConvolver.apply from the plan's nodes and band alone: the
    weights, rows and far-state tails are taken here from ``kernel``, and
    ``correlate(s)`` forms the sum: by default geometric_correlation for
    the exponential family and full_line_correlation on the plan's band
    otherwise."""
    x = plan.x
    dx = x[1] - x[0]
    weights = np.full(x.size, dx)
    weights[0] = weights[-1] = 0.5 * dx
    if correlate is None and kernel.family == "exponential":
        def correlate(s):
            return geometric_correlation(kernel, x, s)
    elif correlate is None:
        def correlate(s):
            return full_line_correlation(kernel, x, s, plan.band)
    tail_left, tail_right = 1.0 - kernel.cdf(x - x[0]), kernel.cdf(x - x[-1])
    out = correlate(weights * values)
    out += u_left * tail_left + u_right * tail_right
    return out / (correlate(weights) + tail_left + tail_right)


def explicit_step(u, plan, kernel, dt, dx, u_left, u_right):
    """One forward-Euler step: Rusanov advection plus unsplit relaxation."""
    conv = full_line_apply(plan, kernel, u, u_left, u_right)
    return u - (dt / dx) * rusanov_flux_diff(u, u_left, u_right) + dt * (conv - u)
