"""Quadrature helpers: composite trapezoid weights, and the adaptive
routine used by the oracle paths.

The adaptive routine refines composite midpoint sums by repeated interval
halving and accelerates them with a Romberg table.  The midpoint rule is
open: segment endpoints are never evaluated, so integrands may jump at the
supplied edges (kernel support boundaries, interpolation kinks).  Within a
segment the integrand must be smooth enough for an even-power error
expansion, which is what makes the Richardson acceleration valid.

Integrands are expected to be vectorized (ndarray -> ndarray).
"""

from __future__ import annotations

import numpy as np


class QuadratureError(RuntimeError):
    """Refinement failed to converge, or the integrand gave a non-finite sum."""


def trapezoid_weights(m: int, h: float) -> np.ndarray:
    """Composite trapezoid weights on m + 1 nodes spaced h apart."""
    w = np.full(m + 1, h)
    w[0] = w[-1] = 0.5 * h
    return w


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
