"""Kernel families and tables: closed forms vs the quadrature oracle,
hypotheses checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from nlburgers import kernels as kk
from oracles import (
    QuadratureError,
    cdf_quadrature,
    mass_quadrature,
    moment_quadrature,
    quadrature_edges,
    refine_segments,
)


def family_suite():
    return [
        kk.exponential_kernel(1.0),
        kk.exponential_kernel(2.0),
        kk.gaussian_kernel(1.0),
        kk.gaussian_kernel(2.0),
        kk.uniform_kernel(1.0),
        kk.triangular_kernel(1.0),
    ]


class TestLibmErfc:
    """The Gaussian CDF and radius rest on the C library's erfc alone."""

    TINY = np.finfo(float).tiny

    def test_gaussian_cdf_agrees_with_scipy(self):
        x = np.linspace(-40.0, 40.0, 8001)
        z = -x / np.sqrt(2.0)
        ref = 0.5 * special.erfc(z)
        got = kk.gaussian_kernel(1.0).cdf(x)
        normal = ref >= self.TINY
        rel = np.abs(got[normal] - ref[normal]) / ref[normal]
        assert np.all(rel[np.abs(x[normal]) <= 5.0] <= 2e-15)
        # SciPy's erfc rounds exp(-z^2), so it drifts by up to ~2.5 z^2 ulps
        # in the far tail; libm does not (see the high-precision check)
        eps = np.finfo(float).eps
        assert np.all(rel <= 2e-15 + 3.0 * z[normal] ** 2 * eps)
        np.testing.assert_allclose(got[~normal], ref[~normal], rtol=0,
                                   atol=self.TINY)

    def test_erfc_matches_high_precision(self):
        mpmath = pytest.importorskip("mpmath")
        # covers the Gaussian CDF's argument on [-40, 40] sigma
        z = np.linspace(-28.0, 28.0, 2241)
        with mpmath.workdps(40):
            ref = np.array([float(mpmath.erfc(mpmath.mpf(float(t)))) for t in z])
        got = kk._erfc(z)
        normal = ref >= self.TINY
        rel = np.abs(got[normal] - ref[normal]) / ref[normal]
        assert rel.max() <= 1e-15
        np.testing.assert_allclose(got[~normal], ref[~normal], rtol=0,
                                   atol=self.TINY)

    def test_gaussian_radius_agrees_with_scipy(self):
        tails = np.logspace(-16.0, np.log10(0.5), 401)
        for sigma in (1.0, 2.5):
            ker = kk.gaussian_kernel(sigma)
            got = np.array([ker.radius(float(t)) for t in tails])
            ref = sigma * np.sqrt(2.0) * special.erfcinv(tails)
            # SciPy's erfcinv is itself up to ~6e-16 from the true root
            np.testing.assert_allclose(got, ref, rtol=1e-15, atol=0)

    def test_erfcinv_matches_high_precision(self):
        mpmath = pytest.importorskip("mpmath")
        tails = np.concatenate([np.logspace(-16.0, np.log10(0.5), 401),
                                np.logspace(-300.0, 0.0, 61)])
        got = np.array([kk._erfcinv(float(t)) for t in tails])
        assert got[-1] == 0.0   # erfc(0) = 1
        with mpmath.workdps(40):
            ref = np.array([float(mpmath.findroot(
                lambda z, t=mpmath.mpf(float(t)): mpmath.erfc(z) - t, start))
                for t, start in zip(tails[:-1], got[:-1])])
        np.testing.assert_allclose(got[:-1], ref, rtol=4e-16, atol=0)


class TestClosedForms:
    def test_exponential_peak(self):
        assert kk.exponential_kernel(1.0).density(0.0) == pytest.approx(0.5, abs=0)

    def test_exponential_moments(self):
        k1 = kk.exponential_kernel(1.0)
        assert k1.m1 == pytest.approx(1.0, abs=1e-15)
        assert k1.m2 == pytest.approx(2.0, abs=1e-15)
        assert kk.exponential_kernel(2.0).m1 == pytest.approx(0.5, abs=1e-15)

    def test_exponential_criterion_constant(self):
        # the discontinuity criterion constant 4 M1 equals 4/k
        for k in (0.5, 1.0, 2.0, 3.7):
            ker = kk.exponential_kernel(k)
            assert abs(4.0 * ker.m1 - 4.0 / k) <= 1e-12

    def test_gaussian_second_moment(self):
        assert kk.gaussian_kernel(2.0).m2 == pytest.approx(4.0, rel=1e-14)

    def test_uniform_second_moment_vs_oracle(self):
        ker = kk.uniform_kernel(1.0)
        m1q, m2q = moment_quadrature(ker)
        assert ker.m2 == pytest.approx(1.0 / 3.0, rel=1e-13)
        assert m2q == pytest.approx(ker.m2, rel=1e-10)

    @pytest.mark.parametrize("ker", family_suite(), ids=lambda k: f"{k.family}-{k.param}")
    def test_moments_match_quadrature(self, ker):
        m1q, m2q = moment_quadrature(ker)
        assert m1q == pytest.approx(ker.m1, rel=1e-10)
        assert m2q == pytest.approx(ker.m2, rel=1e-10)

    @pytest.mark.parametrize("ker", family_suite(), ids=lambda k: f"{k.family}-{k.param}")
    def test_mass_quadrature_consistency(self, ker):
        r = ker.radius(1e-13)
        mass = mass_quadrature(ker)
        span = float(ker.cdf(r) - ker.cdf(-r))
        assert abs(mass - span) <= 1e-10


class TestCdf:
    def test_uniform_cdf_value(self):
        assert kk.uniform_kernel(1.0).cdf(0.5) == pytest.approx(0.75, abs=0)

    def test_gaussian_far_tail(self):
        assert kk.gaussian_kernel(1.0).cdf(-8.0) <= 1e-14

    def test_half_mass_at_origin(self):
        for ker in family_suite():
            assert float(ker.cdf(0.0)) == pytest.approx(0.5, abs=1e-14)

    @pytest.mark.parametrize("ker", family_suite(), ids=lambda k: f"{k.family}-{k.param}")
    def test_cdf_monotone_and_limits(self, ker):
        x = np.linspace(-ker.radius(1e-13) - 1.0, ker.radius(1e-13) + 1.0, 501)
        phi = ker.cdf(x)
        assert np.all(np.diff(phi) >= -1e-15)
        assert phi[0] <= 1e-12 and abs(phi[-1] - 1.0) <= 1e-12

    @given(x=st.floats(-50, 50), k=st.floats(0.3, 4.0))
    @settings(max_examples=60, deadline=None)
    def test_cdf_symmetry_exponential(self, x, k):
        ker = kk.exponential_kernel(k)
        assert abs(float(ker.cdf(x) + ker.cdf(-x)) - 1.0) <= 1e-12

    @given(x=st.floats(-10, 10), a=st.floats(0.2, 5.0))
    @settings(max_examples=60, deadline=None)
    def test_cdf_symmetry_triangular(self, x, a):
        ker = kk.triangular_kernel(a)
        assert abs(float(ker.cdf(x) + ker.cdf(-x)) - 1.0) <= 1e-12


class TestValidation:
    @pytest.mark.parametrize("ker", family_suite(), ids=lambda k: f"{k.family}-{k.param}")
    def test_families_pass(self, ker):
        report = kk.validate_kernel(ker, 256)
        assert report.all_passed
        # the mass is the CDF span, so only rounding is left
        assert report.checks["unit_mass"].worst <= 4.0 * np.finfo(float).eps

    def test_probe_count_floor(self):
        with pytest.raises(ValueError):
            kk.validate_kernel(kk.exponential_kernel(1.0), 8)

    def test_planted_negative_entry(self):
        y = np.linspace(-6.0, 6.0, 601)
        vals = 0.5 * np.exp(-np.abs(y))
        vals[300] = -1e-3  # defect at y = 0, symmetric by construction
        bad = kk.Kernel("tabulated", 0.0, 1.0, 2.0, table_y=y, table_k=vals)
        report = kk.validate_kernel(bad, 256)
        check = report.checks["nonnegativity"]
        assert not check.passed
        assert check.worst == pytest.approx(1e-3, rel=1e-6)

    def test_uniform_constant_counts_as_nonincreasing(self):
        report = kk.validate_kernel(kk.uniform_kernel(1.0), 256)
        assert report.checks["monotone_decay"].passed
        assert not report.density_continuous

    def test_smooth_families_flagged_continuous(self):
        for ker in (kk.exponential_kernel(1.0), kk.gaussian_kernel(1.0),
                    kk.triangular_kernel(1.0)):
            assert kk.validate_kernel(ker, 256).density_continuous

    def test_table_with_nonzero_end_rows_jumps_at_its_edge(self):
        y = np.linspace(-1.0, 1.0, 21)
        ker = kk.tabulated_kernel(y, (1.2 - np.abs(y)) / 1.4)
        assert ker.density_jumps() == (1.0,)
        report = kk.validate_kernel(ker, 256)
        assert report.all_passed and not report.density_continuous

    def test_steep_continuous_table_reads_continuous(self):
        # about 0.5 on |y| <= 0.99, 0 from |y| = 1: steep but continuous
        y = np.linspace(-20.0, 20.0, 4001)
        ker = kk.tabulated_kernel(y, np.clip((1.0 - np.abs(y)) / 0.01, 0.0, 1.0),
                                  renormalize=True)
        assert ker.density_jumps() == ()
        report = kk.validate_kernel(ker, 256)
        assert report.all_passed and report.density_continuous

    def test_mass_defect_of_a_direct_table_is_reported(self):
        # tabulated_kernel refuses this table; a Kernel built directly is
        # caught by validation, through the exact trapezoid mass
        y = np.linspace(-1.0, 1.0, 21)
        bad = kk.Kernel("tabulated", 0.0, 1.0 / 3.0, 1.0 / 6.0, table_y=y,
                        table_k=1.05 * (1.0 - np.abs(y)))
        check = kk.validate_kernel(bad, 256).checks["unit_mass"]
        assert not check.passed
        assert check.worst == pytest.approx(0.05, rel=1e-12)


class TestBuilders:
    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_nonpositive_parameters(self, bad):
        for builder in (kk.exponential_kernel, kk.gaussian_kernel,
                        kk.uniform_kernel, kk.triangular_kernel):
            with pytest.raises(kk.KernelError):
                builder(bad)

    def test_build_kernel_dispatch(self):
        assert kk.build_kernel("exp", k=2.0).family == "exponential"
        assert kk.build_kernel("gauss", sigma=1.0).family == "gaussian"
        assert kk.build_kernel("tri", a=1.0).family == "triangular"
        y = np.linspace(-1.0, 1.0, 21)
        table = kk.build_kernel("table", y=y, k=np.maximum(1.0 - np.abs(y), 0.0),
                                renormalize=True)
        assert table.family == "tabulated"
        with pytest.raises(kk.KernelError):
            kk.build_kernel("cauchy", gamma=1.0)

    @pytest.mark.parametrize("family, params, named", [
        ("gaussian", {"sigma": 1.0, "k": 3.0}, "'sigma'"),
        ("exp", {"sigma": 1.0}, "'k'"),
        ("uniform", {}, "'a'"),
        ("table", {"y": [-1.0, 0.0, 1.0]}, "'k'"),
        ("table", {"y": [-1.0, 0.0, 1.0], "k": [0.0, 1.0, 0.0], "renorm": True},
         "'renormalize'"),
    ])
    def test_build_kernel_keywords_must_match(self, family, params, named):
        # unknown or missing keywords: a KernelError naming the parameters
        with pytest.raises(kk.KernelError, match=named):
            kk.build_kernel(family, **params)


class TestTabulated:
    def make_table(self, n=2001, r=8.0):
        y = np.linspace(-r, r, n)
        return y, 0.5 * np.exp(-np.abs(y))

    def test_renormalization_consent(self):
        y, vals = self.make_table()
        with pytest.raises(kk.KernelError, match="renormalize"):
            kk.tabulated_kernel(y, 1.05 * vals)
        ker = kk.tabulated_kernel(y, 1.05 * vals, renormalize=True)
        assert abs(float(ker.cdf(y[-1])) - 1.0) <= 1e-12

    def test_moments_close_to_exponential(self):
        # truncation at r leaves (r+1)e^-r and (r^2+2r+2)e^-r tails
        y, vals = self.make_table(n=8001, r=16.0)
        ker = kk.tabulated_kernel(y, vals, renormalize=True)
        assert ker.m1 == pytest.approx(1.0, abs=1e-5)
        assert ker.m2 == pytest.approx(2.0, abs=1e-4)

    def test_evenness_rejected(self):
        y, vals = self.make_table()
        vals = vals.copy()
        vals[10] += 1e-3
        with pytest.raises(kk.KernelError, match="evenness"):
            kk.tabulated_kernel(y, vals, renormalize=True)

    def test_nonuniform_spacing_rejected(self):
        y, vals = self.make_table()
        y = y.copy()
        y[5] += 1e-3
        with pytest.raises(kk.KernelError, match="spaced"):
            kk.tabulated_kernel(y, vals, renormalize=True)

    @pytest.mark.parametrize("column", ["y", "k"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_rejected(self, column, bad):
        # NaN fails no comparison, so without this check the table would
        # build with NaN moments and send validation through every level
        y, vals = self.make_table()
        table = {"y": y.copy(), "k": vals.copy()}
        table[column][[0, -1]] = bad
        with pytest.raises(kk.KernelError, match="finite"):
            kk.tabulated_kernel(table["y"], table["k"])

    def test_breakpoints_are_the_nodes(self):
        y, vals = self.make_table(n=801)
        ker = kk.tabulated_kernel(y, vals, renormalize=True)
        nodes = y[y >= 0.0]
        assert ker.breakpoints() == tuple(nodes)
        assert quadrature_edges(ker) == sorted({0.0, *nodes})

    def test_divergent_tail_rejected(self):
        y = np.linspace(-50.0, 50.0, 4001)
        with pytest.raises(kk.DivergentMomentError):
            kk.tabulated_kernel(y, 1.0 / (np.pi * (1.0 + y * y)), renormalize=True)

    def test_read_table_roundtrip(self, tmp_path):
        y, vals = self.make_table(n=801)
        path = tmp_path / "kernel.csv"
        np.savetxt(path, np.column_stack([y, vals]), delimiter=",")
        y2, v2 = kk.read_kernel_table(path)
        np.testing.assert_allclose(y2, y, rtol=0, atol=1e-15)
        np.testing.assert_allclose(v2, vals, rtol=1e-15)
        ker = kk.tabulated_kernel(y2, v2, renormalize=True)
        assert kk.validate_kernel(ker, 128).all_passed


def triangle_table(rows=21, half_width=1.0):
    """The hat (1 - |y|)^+ sampled on [-w, w], with kinks on the nodes."""
    y = np.linspace(-half_width, half_width, rows)
    return y, np.maximum(1.0 - np.abs(y), 0.0)


@st.composite
def decaying_tables(draw):
    """Even tables, nonincreasing in |y| and zero at the edge, of either
    row parity; renormalized to unit mass by the caller."""
    count = draw(st.integers(2, 12))         # samples on y > 0 (or y >= 0)
    levels = draw(st.lists(st.floats(0.0, 1.0), min_size=count - 1,
                           max_size=count - 1))
    half = np.append(np.sort(levels)[::-1], 0.0)
    half[0] += 0.1                            # a positive peak
    dy = draw(st.floats(0.05, 2.0))
    if draw(st.booleans()):                   # odd: a node at y = 0
        k = np.concatenate([half[:0:-1], half])
    else:
        k = np.concatenate([half[::-1], half])
    y = (np.arange(k.size) - 0.5 * (k.size - 1)) * dy
    return y, k


class TestExactTable:
    """A table's density is piecewise linear, so its CDF and moments are
    closed forms; the quadrature oracle and the triangular family agree."""

    TRI = kk.triangular_kernel(1.0)

    @pytest.mark.parametrize("rows, half_width", [(21, 1.0), (41, 2.0), (7, 1.5)])
    def test_triangle_table_is_the_triangular_family(self, rows, half_width):
        ker = kk.tabulated_kernel(*triangle_table(rows, half_width))
        x = np.linspace(-2.5, 2.5, 5001)
        np.testing.assert_allclose(ker.cdf(x), self.TRI.cdf(x), rtol=0, atol=4e-16)
        assert ker.m1 == pytest.approx(1.0 / 3.0, rel=4e-16)
        assert ker.m2 == pytest.approx(1.0 / 6.0, rel=4e-16)

    def test_even_row_count_splits_the_middle_cell(self):
        # 0 is not a node, and |y| K has its kink inside the middle cell
        y = (np.arange(8) - 3.5) * 0.5
        k = np.maximum(2.0 - np.abs(y), 0.0)
        ker = kk.tabulated_kernel(y, k, renormalize=True)
        m1, m2 = moment_quadrature(ker)
        assert ker.m1 == pytest.approx(m1, rel=1e-12)
        assert ker.m2 == pytest.approx(m2, rel=1e-12)

    @given(table=decaying_tables(), probes=st.lists(st.floats(-1.2, 1.2),
                                                    min_size=1, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_random_decaying_tables_match_the_oracle(self, table, probes):
        y, k = table
        ker = kk.tabulated_kernel(y, k, renormalize=True)
        m1, m2 = moment_quadrature(ker)
        assert ker.m1 == pytest.approx(m1, rel=1e-10)
        assert ker.m2 == pytest.approx(m2, rel=1e-10)
        for t in probes:
            x = t * y[-1]
            assert abs(float(ker.cdf(x)) - cdf_quadrature(ker, x)) <= 1e-12
        assert kk.validate_kernel(ker, 64).checks["unit_mass"].passed


class TestAdaptiveQuadrature:
    def test_non_finite_sum_raises_at_once(self):
        calls = []

        def nan_integrand(y):
            calls.append(y.size)
            return np.full_like(y, np.nan)

        with pytest.raises(QuadratureError, match="non-finite"):
            refine_segments(nan_integrand, [0.0, 1.0, 2.0], max_levels=8)
        assert len(calls) == 1
