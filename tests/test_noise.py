import math

import numpy as np
import pytest
from scipy import special, stats

from cumvol import DomainError, NoiseModel, gaussian, lorentzian, parse_noise_spec, tabulated
from cumvol.noise import _ERFC_TWO_UPTO, _ERFC_ZERO_FROM, TAIL_TOL, load_tabulated_csv
from helpers import pdf_at


def draw(noise, count, seed):
    """``count`` draws from a generator seeded with ``seed``."""
    return noise.sample_with(np.random.default_rng(seed), (count,))


def test_gaussian_density_at_zero():
    assert pdf_at(gaussian(1.0), 0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-12)


def test_lorentzian_density_values():
    n = lorentzian(1.0)
    assert pdf_at(n, 0.0) == pytest.approx(1.0 / math.pi, abs=1e-12)
    assert pdf_at(n, 1.0) == pytest.approx(1.0 / (2 * math.pi), abs=1e-12)


def test_tabulated_renormalisation():
    # trapezoid mass of the raw table is 1.5, so densities scale by 1/1.5
    n = tabulated([(-1.0, 0.5), (0.0, 1.0), (1.0, 0.5)])
    assert pdf_at(n, 0.0) == pytest.approx(1.0 / 1.5)
    assert np.trapezoid(n.ys, n.xs) == pytest.approx(1.0, abs=1e-9)


def test_tabulated_outside_support_is_zero():
    n = tabulated([(-1.0, 0.5), (0.0, 1.0), (1.0, 0.5)])
    assert pdf_at(n, 2.0) == 0.0
    assert pdf_at(n, -5.0) == 0.0


@pytest.mark.parametrize("bad", [
    dict(kind="gaussian", sigma=0.0),
    dict(kind="gaussian", sigma=-1.0),
    dict(kind="lorentzian", gamma=0.0),
    dict(kind="gaussian", sigma=math.inf),
    dict(kind="gaussian", sigma=math.nan),
    dict(kind="lorentzian", gamma=math.inf),
])
def test_invalid_widths_rejected(bad):
    with pytest.raises(ValueError):
        NoiseModel(**bad)


def test_invalid_tables_rejected():
    with pytest.raises(ValueError):
        tabulated([(0.0, 1.0)])  # one point
    with pytest.raises(ValueError):
        tabulated([(0.0, 1.0), (0.0, 1.0)])  # not increasing
    with pytest.raises(ValueError):
        tabulated([(0.0, 1.0), (1.0, -0.5)])  # negative density
    with pytest.raises(ValueError, match="finite"):
        tabulated([(0.0, 1.0), (math.inf, 1.0)])
    with pytest.raises(ValueError, match="finite"):
        tabulated([(0.0, 1.0), (1.0, math.inf)])
    with pytest.raises(ValueError, match="finite"):
        tabulated([(0.0, 1.0), (1.0, math.nan)])
    with pytest.raises(ValueError):
        tabulated([(0.0, 0.0), (1.0, 0.0)])  # zero mass


def test_mirror_is_pointwise_reflection_and_involution():
    n = tabulated([(0.0, 0.2), (0.5, 1.0), (2.0, 0.1)])
    m = n.mirror()
    xs = np.linspace(-3, 3, 301)
    assert np.allclose(pdf_at(m, xs), pdf_at(n, -xs))
    back = m.mirror()
    assert np.allclose(pdf_at(back, xs), pdf_at(n, xs))


def test_mirror_gaussian_is_even():
    n = gaussian(0.7)
    xs = np.linspace(-4, 4, 101)
    assert np.allclose(pdf_at(n.mirror(), xs), pdf_at(n, xs))


def test_mirror_preserves_mass_and_negates_mean():
    n = tabulated([(-0.5, 0.1), (0.0, 1.0), (2.0, 0.4)])
    m = n.mirror()
    assert np.trapezoid(m.ys, m.xs) == pytest.approx(1.0, abs=1e-12)
    assert m.mean() == pytest.approx(-n.mean(), abs=1e-12)


@pytest.mark.parametrize("points, mean, variance", [
    ([(-0.8, 0.5), (-0.6, 1.0), (0.2, 0.8), (0.8, 0.9)], 0.0, 0.2094),
    ([(-3.0, 0.0), (-1.0, 0.2), (0.0, 1.0), (2.0, 0.0)], 0.0556, 0.7747),
], ids=["asymmetric", "zero-ends"])
def test_tabulated_moments_are_the_interpolated_densitys(points, mean, variance):
    # the density that cdf_at and sample_with use, integrated on 2,000,001
    # points; a trapezoid on the table's own nodes gives -0.0087, 0.2950 and
    # -0.167, 0.139 instead
    n = tabulated(points)
    x = np.linspace(n.xs[0], n.xs[-1], 2_000_001)
    density = np.interp(x, n.xs, n.ys)
    quad_mean = np.trapezoid(x * density, x)
    quad_variance = np.trapezoid((x - quad_mean) ** 2 * density, x)
    assert n.mean() == pytest.approx(quad_mean, abs=1e-10)
    assert n.variance() == pytest.approx(quad_variance, rel=1e-10)
    assert (n.mean(), n.variance()) == pytest.approx((mean, variance), abs=1e-4)
    m = n.mirror()
    assert (m.mean(), m.variance()) == pytest.approx((-n.mean(), n.variance()), abs=1e-14)


def test_cdf_matches_density_integral():
    rng = np.random.default_rng(5)
    tab = tabulated([(-1.0, 0.3), (0.2, 1.1), (0.9, 0.2), (2.0, 0.6)])
    for n, tol in ((gaussian(0.8), 5e-7), (lorentzian(0.5), 5e-7), (tab, 1e-4)):
        # the tabulated density jumps to zero at its support edges, which the
        # trapezoid oracle resolves only to O(h); the CDF itself is exact
        xs = np.sort(rng.uniform(-3, 3, 7))
        for a, b in zip(xs[:-1], xs[1:]):
            grid = np.linspace(a, b, 4001)
            quad = np.trapezoid(pdf_at(n, grid), grid)
            assert np.diff(n.cdf_at(np.array([a, b])))[0] == pytest.approx(quad, abs=tol)


@pytest.mark.parametrize("sigma", [1.0, 0.1, 0.3, 2.5])
def test_gaussian_cdf_matches_scipy_ndtr(sigma):
    x = np.linspace(-38.0, 9.0, 200_001) * sigma
    z = x / sigma
    got = gaussian(sigma).cdf_at(x)
    ref = special.ndtr(z)
    assert got.shape == z.shape and np.all(np.isfinite(got))
    # Phi's relative condition number is about z^2 in the left tail, so one
    # rounding of the argument moves both functions by up to z^2 * eps there
    # (each is about 1e-13 from the exact value near z = -37)
    rtol = np.maximum(2e-14, 4.0 * np.finfo(float).eps * z * z)
    live, core = ref > 0.0, z >= -20.0
    assert np.all(np.abs(got[live] - ref[live]) <= rtol[live] * ref[live])
    assert np.all(np.abs(got[core] - ref[core]) <= 2e-14 * ref[core])
    # below z = -37.68 ndtr underflows to 0; the exact value is subnormal
    assert np.all((got[~live] >= 0.0) & (got[~live] < 1e-307))
    assert list(gaussian(sigma).cdf_at(np.array([-np.inf, np.inf]))) == [0.0, 1.0]


def test_erfc_is_saturated_at_and_beyond_the_constant_bounds():
    # the Gaussian CDF skips math.erfc at and below -6, where it is exactly
    # 2.0, and at and above 28, where it is exactly 0.0: the bounds and both
    # of their nextafter neighbours are saturated
    assert (_ERFC_TWO_UPTO, _ERFC_ZERO_FROM) == (-6.0, 28.0)
    for bound, value in ((_ERFC_TWO_UPTO, 2.0), (_ERFC_ZERO_FROM, 0.0)):
        for x in (math.nextafter(bound, -math.inf), bound, math.nextafter(bound, math.inf)):
            assert math.erfc(x) == value
    assert all(math.erfc(x) == 2.0 for x in np.linspace(-600.0, -6.0, 10_001))
    assert all(math.erfc(x) == 0.0 for x in np.linspace(28.0, 600.0, 10_001))
    assert math.erfc(-math.inf) == 2.0 and math.erfc(math.inf) == 0.0


@pytest.mark.parametrize("sigma", [1.0, 0.37, 2.5])
def test_gaussian_cdf_is_the_plain_erfc_map_bit_for_bit(sigma):
    # skipping the saturated arguments leaves every value as the map over
    # all of them gives it, at and beyond both bounds too
    x = np.concatenate([np.linspace(-60.0, 60.0, 200_001) * sigma, [-np.inf, np.inf]])
    t = (x / sigma) * -math.sqrt(0.5)
    plain = 0.5 * np.fromiter(map(math.erfc, t.tolist()), float, t.size)
    got = gaussian(sigma).cdf_at(x)
    assert got.tobytes() == plain.tobytes()
    assert np.isnan(gaussian(sigma).cdf_at(np.array([np.nan]))).all()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_variance_of_a_table_past_float64_is_inf():
    # the closed form's centred square overflows and used to give inf - inf:
    # three RuntimeWarnings and nan, where the true variance, 3.3e399, is inf
    wide = tabulated([(-1e200, 1.0), (1e200, 1.0)])
    assert (wide.mean(), wide.variance()) == (0.0, math.inf)
    assert wide.mirror().variance() == math.inf


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("noise", [gaussian(5e-324), lorentzian(1e-308)])
def test_cdf_of_subnormal_width_saturates_without_warning(noise):
    # x / width overflows to +-inf at |x| = 2, which lands on the CDF's limits
    x = np.array([-np.inf, -2.0, 0.0, 2.0, np.inf])
    assert list(noise.cdf_at(x)) == [0.0, 0.0, 0.5, 1.0, 1.0]


@pytest.mark.parametrize("sigma", [1e-12, 0.1, 1.0, 7.3])
def test_gaussian_tail_halfwidth_matches_scipy_ndtri(sigma):
    ref = sigma * float(special.ndtri(1.0 - 0.5 * TAIL_TOL))
    assert gaussian(sigma).tail_halfwidth() == pytest.approx(ref, rel=1e-14)


def test_sampling_is_deterministic_per_seed():
    for n in (gaussian(1.0), lorentzian(1.0), tabulated([(-1.0, 0.5), (1.0, 0.5)])):
        a = draw(n, 1000, 42)
        b = draw(n, 1000, 42)
        assert np.array_equal(a, b)
        c = draw(n, 1000, 43)
        assert not np.array_equal(a, c)


def test_gaussian_sample_mean_clt_bound():
    draws = draw(gaussian(1.0), 1_000_000, 7)
    assert abs(draws.mean()) < 4.0 / math.sqrt(1_000_000)


def test_lorentzian_sample_median_bound():
    # median standard error ~ pi*gamma/(2 sqrt(n)) ~ 0.005 at n=1e5
    draws = draw(lorentzian(1.0), 100_000, 11)
    assert abs(np.median(draws)) < 0.02


def test_tabulated_sampling_stays_in_support():
    n = tabulated([(0.5, 1.0), (1.0, 2.0), (1.5, 1.0)])
    draws = draw(n, 10_000, 3)
    assert draws.min() >= 0.5 and draws.max() <= 1.5


def test_sampling_matches_density_chi_square():
    n = gaussian(1.0)
    draws = draw(n, 1_000_000, 123)
    edges = np.linspace(-5, 5, 51)
    counts, _ = np.histogram(draws, bins=edges)
    probs = np.diff(n.cdf_at(edges))
    # condition on the binned range so expected counts sum to the observations
    inside = counts.sum()
    expected = probs / probs.sum() * inside
    stat, pvalue = stats.chisquare(counts, expected)
    assert pvalue > 0.001


def test_tabulated_sampling_matches_density_chi_square():
    # coarse asymmetric table: draws must follow the interpolated density,
    # not a per-cell-uniform approximation of it
    n = tabulated([(-0.8, 0.2), (-0.1, 1.0), (0.3, 0.7), (1.2, 0.05)])
    draws = draw(n, 200_000, 31)
    edges = np.linspace(-0.8, 1.2, 41)
    counts, _ = np.histogram(draws, bins=edges)
    probs = np.diff(n.cdf_at(edges))
    expected = probs / probs.sum() * counts.sum()
    _, pvalue = stats.chisquare(counts, expected)
    assert pvalue > 0.001


def test_unit_mass_on_wide_grid():
    grid = np.linspace(-10, 10, 20001)
    assert np.trapezoid(pdf_at(gaussian(1.0), grid), grid) == pytest.approx(1.0, abs=1e-6)

    glor = np.linspace(-50, 50, 40001)
    inside = np.trapezoid(pdf_at(lorentzian(1.0), glor), glor)
    analytic_outside = 1.0 - (2.0 / math.pi) * math.atan(50.0)
    assert inside + analytic_outside == pytest.approx(1.0, abs=1e-6)


def test_cell_masses_cover_unit_mass_and_report_clip():
    n = lorentzian(1.0)
    kern = n.cell_masses(0.01, max_halfwidth=30.0)
    assert kern.capped
    covered = kern.masses.sum() + kern.clip_left + kern.clip_right
    assert covered == pytest.approx(1.0, abs=1e-12)
    assert kern.clip_left + kern.clip_right == pytest.approx(
        1.0 - (2.0 / math.pi) * math.atan(30.0), rel=1e-3)

    g = gaussian(1.0).cell_masses(0.01)
    assert not g.capped
    assert g.clip_left + g.clip_right <= 1.2e-8


def test_cell_masses_spike_limit_lands_in_center_cell():
    kern = gaussian(1e-12).cell_masses(0.01)
    assert kern.masses[kern.halfcells] == pytest.approx(1.0, abs=1e-15)


def test_cell_masses_refuses_a_kernel_over_the_cap_before_allocating_it():
    # 2 m + 1 cells with m = ceil(halfwidth/step - 1/2): 2**22 - 1 cells is
    # the most, one step of m more is refused, and so is a ratio that
    # overflows float64
    cauchy = lorentzian(1.0)
    assert cauchy.cell_masses(1.0, max_halfwidth=2**21 - 0.5).masses.size == 2**22 - 1
    with pytest.raises(DomainError, match=r"^lorentzian\(gamma=1\) needs a kernel of "
                                          r"4\.194e\+06 cells at grid spacing 1, more than "
                                          r"4194304$"):
        cauchy.cell_masses(1.0, max_halfwidth=2**21 - 0.5 + 1e-6)
    with pytest.raises(DomainError, match="a kernel of inf cells at grid spacing 4.941e-324"):
        gaussian(1.0).cell_masses(5e-324)


def test_parse_noise_spec_and_csv(tmp_path):
    assert parse_noise_spec("gaussian:sigma=1.5").sigma == 1.5
    assert parse_noise_spec("lorentzian:gamma=0.25").gamma == 0.25
    path = tmp_path / "noise.csv"
    path.write_text("x,density\n-1,0.5\n0,1.0\n1,0.5\n", encoding="utf-8")
    n = parse_noise_spec(f"table:{path}")
    assert n.kind == "tabulated"
    assert pdf_at(n, 0.0) == pytest.approx(1.0 / 1.5)
    headerless = tmp_path / "bare.csv"
    headerless.write_text("-1,0.5\n0,1.0\n1,0.5\n", encoding="utf-8")
    assert pdf_at(load_tabulated_csv(headerless), 0.0) == pytest.approx(1.0 / 1.5)
    with pytest.raises(ValueError):
        parse_noise_spec("gaussian:width=1")
    with pytest.raises(ValueError):
        parse_noise_spec("pareto:alpha=2")
