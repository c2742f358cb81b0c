"""Convolution kernels for the nonlocal transport term.

A kernel is an even, nonnegative, unit-mass density K(y) together with its
cumulative mass Phi(x) = int_{-inf}^x K and its first absolute / second
moments.  Four analytic families (exponential, gaussian, uniform,
triangular) carry closed-form densities, CDFs and moments.  A tabulated
kernel's density is piecewise linear between its samples, so its constants
are closed forms too: the CDF is quadratic within each cell, and Simpson's
rule per cell gives the moments exactly.  No kernel constant comes from
adaptive quadrature.

The CDF is what makes truncated convolutions cheap: every tail correction
in the convolution module is expressed through Phi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

# input tolerance for tabulated data (evenness / nonnegativity / unit mass)
TABLE_TOL = 1e-8

_libm_erfc = np.frompyfunc(math.erfc, 1, 1)


def _erfc(z):
    """Complementary error function, elementwise, by the C library's erfc."""
    return np.asarray(_libm_erfc(z), dtype=float)


def _erfcinv(t: float) -> float:
    """The z >= 0 with erfc(z) = t, for 0 < t <= 1.

    Newton on log erfc from the tail asymptote sqrt(-log t): log erfc is
    nearly quadratic in z, so at most six steps reach the root for t from
    1e-300 to 1.  Convergence is quadratic, so a step of a few ulps leaves
    only rounding behind.
    """
    z = math.sqrt(-math.log(t))
    for _ in range(30):
        e = math.erfc(z)
        step = math.log(e / t) * e / (2.0 / math.sqrt(math.pi) * math.exp(-z * z))
        z += step
        if abs(step) <= 1e-15 * z:
            break
    return z


class KernelError(ValueError):
    """Invalid kernel parameters or tabulated data."""


class DivergentMomentError(KernelError):
    """Tabulated tail decays too slowly for its moments to be trusted."""


@dataclass(frozen=True, eq=False)
class Kernel:
    """Even unit-mass convolution kernel with closed-form mass and moments.

    family : exponential, gaussian, uniform, triangular or tabulated
    param  : rate k (exponential), scale sigma (gaussian) or half-width a
             (uniform / triangular); 0.0 for tabulated kernels
    m1, m2 : first absolute and second moments of the density
    table_y, table_k : sample table for the tabulated family (uniform,
             symmetric, strictly increasing y), None otherwise
    """

    family: str
    param: float
    m1: float
    m2: float
    table_y: Optional[np.ndarray] = None
    table_k: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # pointwise data
    # ------------------------------------------------------------------

    def density(self, y):
        """Mass per unit length K(y); vectorized."""
        y = np.asarray(y, dtype=float)
        a = self.param
        if self.family == "exponential":
            return 0.5 * a * np.exp(-a * np.abs(y))
        if self.family == "gaussian":
            return np.exp(-0.5 * (y / a) ** 2) / (a * np.sqrt(2.0 * np.pi))
        if self.family == "uniform":
            inside = np.abs(y) < a
            edge = np.abs(y) == a
            # mean of the one-sided limits at the jump keeps node-aligned
            # trapezoid sums clean
            return inside * (0.5 / a) + edge * (0.25 / a)
        if self.family == "triangular":
            return np.maximum(a - np.abs(y), 0.0) / (a * a)
        return np.interp(y, self.table_y, self.table_k, left=0.0, right=0.0)

    def cdf(self, x):
        """Cumulative mass Phi(x) = int_{-inf}^{x} K(y) dy, in [0, 1]."""
        x = np.asarray(x, dtype=float)
        a = self.param
        if self.family == "exponential":
            return np.where(x < 0.0, 0.5 * np.exp(a * np.minimum(x, 0.0)),
                            1.0 - 0.5 * np.exp(-a * np.maximum(x, 0.0)))
        if self.family == "gaussian":
            return 0.5 * _erfc(-x / (a * np.sqrt(2.0)))
        if self.family == "uniform":
            return np.clip((x + a) / (2.0 * a), 0.0, 1.0)
        if self.family == "triangular":
            xc = np.clip(x, -a, a)
            neg = (a + np.minimum(xc, 0.0)) ** 2 / (2.0 * a * a)
            pos = 1.0 - (a - np.maximum(xc, 0.0)) ** 2 / (2.0 * a * a)
            return np.where(xc <= 0.0, neg, pos)
        # exact for the piecewise-linear density: within cell j, at
        # t = x - y_j, Phi = Phi_j + k_j t + (k_{j+1} - k_j) t^2 / (2 dy_j)
        y, k = self.table_y, self.table_k
        dy = np.diff(y)
        nodes = np.concatenate(([0.0], np.cumsum(0.5 * (k[1:] + k[:-1]) * dy)))
        j = np.clip(np.searchsorted(y, x, side="right") - 1, 0, y.size - 2)
        t = np.clip(x - y[j], 0.0, dy[j])
        out = nodes[j] + t * (k[j] + (k[j + 1] - k[j]) * t / (2.0 * dy[j]))
        return np.clip(out, 0.0, 1.0)

    # ------------------------------------------------------------------
    # derived geometry
    # ------------------------------------------------------------------

    def tail_mass(self, r: float) -> float:
        """Mass outside [-r, r]; equals 2 Phi(-r) by evenness."""
        return float(2.0 * self.cdf(-abs(r)))

    def radius(self, tail: float = 1e-12) -> float:
        """Smallest r with mass outside [-r, r] at most ``tail``."""
        a = self.param
        if self.family == "exponential":
            return float(np.log(1.0 / tail) / a)
        if self.family == "gaussian":
            return float(a * np.sqrt(2.0) * _erfcinv(tail))
        if self.family in ("uniform", "triangular"):
            return float(a)
        return float(self.table_y[-1])

    def breakpoints(self):
        """Nonnegative offsets |y| where the density is not smooth."""
        a = self.param
        if self.family == "exponential":
            return (0.0,)
        if self.family == "gaussian":
            return ()
        if self.family == "uniform":
            return (a,)
        if self.family == "triangular":
            return (0.0, a)
        # piecewise-linear density: kinks at every node
        return tuple(float(v) for v in self.table_y[self.table_y >= 0.0])

    def density_jumps(self):
        """Offsets |y| where the density itself is discontinuous.

        A profile with a sub-shock loses a derivative at the images of
        these offsets, which residual checks need to know about.  A table
        whose end rows are nonzero drops to 0 at its edge y_max.
        """
        if self.family == "uniform":
            return (self.param,)
        if self.family == "tabulated" and (self.table_k[0] or self.table_k[-1]):
            return (float(self.table_y[-1]),)
        return ()


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------


def _require_positive(name: str, value: float) -> float:
    value = float(value)
    if not np.isfinite(value) or value <= 0.0:
        raise KernelError(f"{name} must be a positive finite number, got {value!r}")
    return value


def exponential_kernel(k: float) -> Kernel:
    """K(y) = (k/2) exp(-k |y|)."""
    k = _require_positive("rate k", k)
    return Kernel("exponential", k, 1.0 / k, 2.0 / k**2)


def gaussian_kernel(sigma: float) -> Kernel:
    """Centered normal density with standard deviation sigma."""
    sigma = _require_positive("scale sigma", sigma)
    m1 = float(sigma * np.sqrt(2.0 / np.pi))
    return Kernel("gaussian", sigma, m1, sigma**2)


def uniform_kernel(a: float) -> Kernel:
    """Top-hat density 1/(2a) on [-a, a]."""
    a = _require_positive("half-width a", a)
    return Kernel("uniform", a, 0.5 * a, a * a / 3.0)


def triangular_kernel(a: float) -> Kernel:
    """Hat density (a - |y|)/a^2 on [-a, a]."""
    a = _require_positive("half-width a", a)
    return Kernel("triangular", a, a / 3.0, a * a / 6.0)


def tabulated_kernel(y, k, renormalize: bool = False) -> Kernel:
    """Kernel from a sample table (uniform symmetric y grid, even values).

    The density is piecewise linear between samples and zero outside the
    table.  Mass defects beyond TABLE_TOL are rejected unless the caller
    explicitly opts into renormalization.
    """
    y = np.asarray(y, dtype=float)
    k = np.asarray(k, dtype=float)
    if y.ndim != 1 or y.shape != k.shape or y.size < 3:
        raise KernelError("table needs matching 1-d y and K(y) columns, >= 3 rows")
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(k))):
        raise KernelError("table entries must be finite")
    dy = np.diff(y)
    if np.any(dy <= 0.0):
        raise KernelError("table y column must be strictly increasing")
    h = (y[-1] - y[0]) / (y.size - 1)
    if np.max(np.abs(dy - h)) > 1e-12 * max(1.0, abs(y[-1] - y[0])):
        raise KernelError("table y column must be uniformly spaced")
    if np.max(np.abs(y + y[::-1])) > 1e-12 * max(1.0, y[-1]):
        raise KernelError("table y column must be symmetric about 0")
    if np.max(np.abs(k - k[::-1])) > TABLE_TOL * max(1.0, np.max(np.abs(k))):
        raise KernelError(f"table values break evenness beyond {TABLE_TOL}")
    if np.min(k) < -TABLE_TOL:
        raise KernelError(f"table values are negative beyond {TABLE_TOL}")

    mass = float(np.trapezoid(k, y))
    if renormalize:
        if mass <= 0.0:
            raise KernelError("cannot renormalize a table with nonpositive mass")
        k = k / mass
        mass = float(np.trapezoid(k, y))
    elif abs(mass - 1.0) > TABLE_TOL:
        raise KernelError(
            f"table mass {mass:.12g} deviates from 1 beyond {TABLE_TOL}; "
            "pass renormalize=True to consent to rescaling"
        )

    # non-convergent tail sum: y^2 K(y) still not decaying at the table edge
    m2_density = y * y * k
    half = m2_density[y >= 0.0]
    if half.size >= 4 and np.max(half) > 0.0:
        q3 = half[int(0.75 * (half.size - 1))]
        edge = half[-1]
        if edge > 1e-12 * np.max(half) and edge >= 0.999 * q3:
            raise DivergentMomentError(
                "y^2 K(y) has not decayed by the table edge; the second "
                "moment of the underlying kernel is not trustworthy"
            )

    m1, m2 = _table_moments(y, k)
    return Kernel("tabulated", 0.0, m1, m2, table_y=y, table_k=k)


def _table_moments(y, k):
    """m1 and m2 of the piecewise-linear density through (y, k).

    Simpson's rule per cell is exact for the cubic y^2 K, and for the
    quadratic |y| K on every cell that does not straddle 0.  With an even
    row count the middle cell does, so it is split there.
    """
    if y.size % 2 == 0:
        mid = y.size // 2
        y = np.insert(y, mid, 0.0)
        k = np.insert(k, mid, 0.5 * (k[mid - 1] + k[mid]))
    ym, km = 0.5 * (y[1:] + y[:-1]), 0.5 * (k[1:] + k[:-1])

    def simpson(power):
        f, fm = np.abs(y) ** power * k, np.abs(ym) ** power * km
        return float(np.sum(np.diff(y) * (f[:-1] + 4.0 * fm + f[1:])) / 6.0)

    return simpson(1), simpson(2)


#: spellings of the one-parameter families: (builder, parameter name)
SPELLINGS = {
    "exponential": (exponential_kernel, "k"), "exp": (exponential_kernel, "k"),
    "gaussian": (gaussian_kernel, "sigma"), "gauss": (gaussian_kernel, "sigma"),
    "uniform": (uniform_kernel, "a"),
    "triangular": (triangular_kernel, "a"), "tri": (triangular_kernel, "a"),
}

#: spellings of the tabulated family, built from (y, k[, renormalize])
TABLE_SPELLINGS = ("tabulated", "table")


def build_kernel(family: str, **params) -> Kernel:
    """Dispatch on the family name; see the individual builders.  The
    keywords must be the family's parameter alone; a table takes y, k and,
    optionally, renormalize."""
    if family in TABLE_SPELLINGS:
        if not {"y", "k"} <= set(params) <= {"y", "k", "renormalize"}:
            raise KernelError(f"family {family!r} takes parameters 'y', 'k' "
                              f"and optionally 'renormalize', got {sorted(params)}")
        return tabulated_kernel(**params)
    if family not in SPELLINGS:
        raise KernelError(f"unknown kernel family {family!r}")
    builder, name = SPELLINGS[family]
    if set(params) != {name}:
        raise KernelError(
            f"family {family!r} takes parameter {name!r}, got {sorted(params)}")
    return builder(params[name])


# ----------------------------------------------------------------------
# operations
# ----------------------------------------------------------------------


@dataclass
class CheckResult:
    passed: bool
    worst: float


@dataclass
class KernelValidation:
    """Hypothesis checks for the existence theory, with observed defects."""

    checks: dict
    probe_count: int
    density_continuous: bool
    total_variation: float

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks.values())


def validate_kernel(kernel: Kernel, probe_count: int = 256) -> KernelValidation:
    """Check evenness, nonnegativity, unit mass, monotone decay, finite M2.

    Failures are reported with their worst observed magnitude, never
    raised.  A density with declared jumps (Kernel.density_jumps: the
    uniform family, a table with nonzero end rows) is flagged via
    ``density_continuous`` but is not a failure: bounded variation on the
    probe grid is the working substitute for the W^{1,1} hypothesis.
    """
    if probe_count < 16:
        raise ValueError("probe_count must be at least 16")
    r = kernel.radius(1e-12)
    y = np.linspace(0.0, r, probe_count)
    ky = kernel.density(y)
    kny = kernel.density(-y)

    even_worst = float(np.max(np.abs(ky - kny)))
    scale = max(float(np.max(ky)), 1e-300)
    nonneg_worst = float(max(0.0, -min(np.min(ky), np.min(kny))))

    # both exact; a table's CDF is clipped to 1, so its span would hide
    # excess mass, while the trapezoid sum integrates the density itself
    if kernel.family == "tabulated":
        mass = float(np.trapezoid(kernel.table_k, kernel.table_y))
    else:
        mass = float(kernel.cdf(r) - kernel.cdf(-r))
    mass_worst = float(abs(mass + kernel.tail_mass(r) - 1.0))

    # y[1:] are the positive probes, since y[0] = 0 < r
    decay_worst = float(max(0.0, np.max(np.diff(ky[1:]))))

    m2_ok = np.isfinite(kernel.m2) and kernel.m2 > 0.0

    tv = float(np.sum(np.abs(np.diff(ky[1:]))))

    checks = {
        "evenness": CheckResult(bool(even_worst <= 1e-12 * scale), even_worst),
        "nonnegativity": CheckResult(bool(nonneg_worst <= 0.0), nonneg_worst),
        "unit_mass": CheckResult(bool(mass_worst <= 1e-8), mass_worst),
        "monotone_decay": CheckResult(bool(decay_worst <= 1e-12 * scale), decay_worst),
        "finite_m2": CheckResult(bool(m2_ok), 0.0 if m2_ok else float(kernel.m2)),
        "bounded_variation": CheckResult(bool(np.isfinite(tv)), tv),
    }
    return KernelValidation(checks=checks, probe_count=probe_count,
                            density_continuous=not kernel.density_jumps(),
                            total_variation=tv)


# ----------------------------------------------------------------------
# table I/O
# ----------------------------------------------------------------------


def read_kernel_table(path):
    """Two-column CSV (y, K(y)); strictly increasing uniform y expected."""
    data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    if data.shape[1] != 2:
        raise KernelError(f"{path}: expected exactly two columns (y, K)")
    return data[:, 0], data[:, 1]
