import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

import cumvol.pdfgrid as pdfgrid
from cumvol import GriddedPdf, GridSpec, NoiseModel, cell_grid
from cumvol import gaussian, lorentzian
from cumvol.pdfgrid import _CSV_BLOCK_VALUES, write_csv
from helpers import interp_at, ks_distance, normalized, pdf_at


def gauss_fn(sigma, mu=0.0):
    return lambda x: np.exp(-0.5 * ((x - mu) / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))


def from_function(grid: GridSpec, source, truncated_mass: float | None = None) -> GriddedPdf:
    """Sample a density on the grid and normalise.

    ``source`` is either a vectorised callable or a ``NoiseModel``. For a
    noise model the mass outside [x_min, x_max] is computed from its closed
    form and recorded as truncated; for a bare callable it is 0 unless given.
    """
    pts = grid.points()
    if isinstance(source, NoiseModel):
        values = pdf_at(source, pts)
        if truncated_mass is None:
            covered = np.diff(source.cdf_at(np.array([grid.x_min, grid.x_max])))[0]
            truncated_mass = float(min(max(1.0 - covered, 0.0), 1.0 - 1e-15))
    else:
        values = np.asarray(source(pts), dtype=float)
        if truncated_mass is None:
            truncated_mass = 0.0
    if values.shape != pts.shape:
        raise ValueError("source must return one density value per grid point")
    if np.any(values < 0):
        raise ValueError("density function must be non-negative on the grid")
    total = np.trapezoid(values, pts)
    if not total > 0.0:
        raise ValueError("sampled density is identically zero on the grid")
    return GriddedPdf(grid, values / total, truncated_mass)


def convolve(p: GriddedPdf, noise: NoiseModel, max_halfwidth: float | None = None) -> GriddedPdf:
    """Density of (noise + p-distributed variable) on the widened grid.

    The noise's exact cell masses at the grid step (the kernel of the
    engine's step operator) are convolved directly with p's node masses; the
    mass beyond a capped kernel window is added to ``truncated_mass``.
    """
    h = p.grid.h
    kern = noise.cell_masses(h, max_halfwidth=max_halfwidth)
    m = kern.halfcells
    grid = GridSpec(p.grid.x_min - m * h, h, p.grid.n_points + 2 * m)
    masses = np.convolve(p.node_masses(), kern.masses)
    clip = kern.clip_left + kern.clip_right
    return GriddedPdf(grid, masses / grid.node_weights(),
                      1.0 - (1.0 - p.truncated_mass) * (1.0 - clip))


def test_grid_spec_validation():
    for h in (0.0, -0.01, math.nan, math.inf):
        with pytest.raises(ValueError):
            GridSpec(1.0, h, 100)
    with pytest.raises(ValueError):
        GridSpec(0.0, 1.0, 8)
    with pytest.raises(ValueError):
        GridSpec(0.0, 1e307, 100)  # x_max overflows
    g = GridSpec(0.0, 0.01, 101)
    assert g.h == 0.01 and g.x_max == pytest.approx(1.0)
    assert g.cell_edges()[0] == pytest.approx(-0.005)
    assert g.node_weights().sum() == pytest.approx(1.0)


def test_grid_points_computed_once_and_read_only():
    g = GridSpec(-1.0, 0.01, 301)
    pts = g.points()
    assert g.points() is pts
    assert np.array_equal(pts, -1.0 + 0.01 * np.arange(301))
    with pytest.raises(ValueError):
        pts[0] = 0.0
    assert g == GridSpec(-1.0, 0.01, 301)  # the cached array is not a field


def test_cell_grid_tiles_domain_exactly():
    g = cell_grid(2.0, 400)
    assert g.h == pytest.approx(0.005)
    edges = g.cell_edges()
    assert edges[0] == 0.0
    assert edges[-1] == pytest.approx(2.0)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(upper=st.floats(1e-6, 1e6), n=st.integers(16, 100_000), k=st.integers(16, 100_000))
def test_grids_store_their_spacing_exactly(upper, n, k):
    # the first cell edge is 0, a prefix shares its parent's nodes and edges,
    # and doubling the cells halves the spacing, all bit for bit
    g = cell_grid(upper, n)
    assert g.cell_edges()[0] == 0.0
    assert g.x_min == 0.5 * g.h == 0.5 * (upper / n)
    prefix = GridSpec(g.x_min, g.h, min(k, n))
    assert np.array_equal(prefix.points(), g.points()[:prefix.n_points])
    assert np.array_equal(prefix.cell_edges(), g.cell_edges()[:prefix.n_points + 1])
    assert 2 * cell_grid(upper, 2 * n).h == g.h


def test_from_function_gaussian_truncation_negligible():
    p = from_function(GridSpec(-10.0, 0.005, 4001), gaussian(1.0))
    assert p.integral() == pytest.approx(1.0, abs=1e-6)
    assert p.truncated_mass < 1e-20


def test_from_function_lorentzian_records_truncation():
    p = from_function(GridSpec(-50.0, 0.005, 20001), lorentzian(1.0))
    expected = 1.0 - (2.0 / math.pi) * math.atan(50.0)
    assert p.truncated_mass == pytest.approx(expected, rel=1e-9)
    assert expected == pytest.approx(0.0127, abs=2e-4)


def test_from_function_constant_is_uniform():
    p = from_function(GridSpec(0.0, 0.01, 101), lambda x: np.ones_like(x))
    assert np.allclose(p.values, 1.0)


def test_from_function_rejects_zero_and_negative():
    with pytest.raises(ValueError):
        from_function(GridSpec(0.0, 1 / 63, 64), lambda x: np.zeros_like(x))
    with pytest.raises(ValueError):
        from_function(GridSpec(0.0, 1 / 63, 64), lambda x: x - 0.5)


def test_normalize_idempotent():
    p = from_function(GridSpec(-5.0, 0.02, 501), gauss_fn(1.3))
    q = normalized(p)
    assert np.allclose(q.values, normalized(q).values)


def test_moments_examples():
    p = from_function(GridSpec(-10.0, 0.005, 4001), gauss_fn(1.0))
    assert p.mean() == pytest.approx(0.0, abs=1e-10)
    assert p.variance() == pytest.approx(1.0, abs=1e-6)
    u = from_function(GridSpec(0.0, 0.01, 101), lambda x: np.ones_like(x))
    assert u.mean() == pytest.approx(0.5, abs=1e-12)


def test_mean_computed_once(monkeypatch):
    p = from_function(GridSpec(-2.0, 0.01, 1001), gauss_fn(1.5, mu=3.0))
    x = p.grid.points()
    mean = float(np.trapezoid(x * p.values, x))
    variance = float(np.trapezoid((x - mean) ** 2 * p.values, x))
    calls = []
    trapezoid = np.trapezoid
    monkeypatch.setattr(np, "trapezoid", lambda y, x: calls.append(y) or trapezoid(y, x))
    assert (p.mean(), p.variance(), p.std(), p.mean()) == (mean, variance, math.sqrt(variance),
                                                           mean)
    # one integral each for the mean, the variance and the std: the variance's
    # centring and the second mean reuse the first
    assert len(calls) == 3


def test_quantiles_examples():
    g = from_function(GridSpec(-6.0, 0.01, 1601), gauss_fn(1.0, mu=2.0))
    h = g.grid.h
    assert g.quantiles([0.5])[0] == pytest.approx(2.0, abs=h)
    u = from_function(GridSpec(0.0, 0.01, 101), lambda x: np.ones_like(x))
    q = u.quantiles([0.25, 0.75])
    assert q[0] == pytest.approx(0.25, abs=u.grid.h)
    assert q[1] == pytest.approx(0.75, abs=u.grid.h)
    lor = from_function(GridSpec(-40.0, 0.01, 8001), lorentzian(1.0))
    assert lor.quantiles([0.5])[0] == pytest.approx(0.0, abs=lor.grid.h)
    with pytest.raises(ValueError):
        u.quantiles([0.0, 0.5])


def test_distance_identity_and_disjoint_spikes():
    p = from_function(GridSpec(-5.0, 0.02, 501), gauss_fn(1.0))
    assert p.distance(p) == 0.0
    assert ks_distance(p, p) == 0.0

    grid = GridSpec(0.0, 0.01, 101)
    a = np.zeros(101)
    b = np.zeros(101)
    a[20] = 1.0
    b[80] = 1.0
    pa = normalized(GriddedPdf(grid, a))
    pb = normalized(GriddedPdf(grid, b))
    assert pa.distance(pb) == pytest.approx(2.0, rel=1e-9)
    assert ks_distance(pa, pb) == pytest.approx(1.0, rel=1e-9)


def test_distance_ks_shifted_gaussian():
    # max_x Phi(x) - Phi(x - 0.1) = 2 Phi(0.05) - 1
    grid = GridSpec(-8.0, 0.005, 3201)
    p = from_function(grid, gauss_fn(1.0, mu=0.0))
    q = from_function(grid, gauss_fn(1.0, mu=0.1))
    expected = 2.0 * special.ndtr(0.05) - 1.0
    assert ks_distance(p, q) == pytest.approx(expected, abs=1e-5)
    assert expected == pytest.approx(0.0399, abs=1e-4)


def test_distance_requires_same_grid():
    p = from_function(GridSpec(-5.0, 0.02, 501), gauss_fn(1.0))
    q = from_function(GridSpec(-5.0, 1 / 60, 601), gauss_fn(1.0))
    with pytest.raises(ValueError):
        p.distance(q)


def test_convolve_with_spike_noise_is_identity():
    p = from_function(GridSpec(0.0, 0.005, 801), gauss_fn(0.5, mu=2.0))
    c = convolve(p, gaussian(1e-12))
    # interior nodes are reproduced exactly; the two original boundary nodes
    # carry the half-weight edge convention and move by one cell's mass
    inner = p.grid.points()[1:-1]
    assert np.max(np.abs(interp_at(c, inner) - p.values[1:-1])) < 1e-12
    assert abs(c.mean() - p.mean()) < p.grid.h


def test_convolve_gaussians_gives_root_sum_square_width():
    h = 0.005
    p = from_function(GridSpec(-4.0, 0.005, 1601), gauss_fn(0.4))
    c = normalized(convolve(p, gaussian(0.3)))
    target = gauss_fn(0.5)(c.grid.points())
    l1 = np.trapezoid(np.abs(c.values - target), c.grid.points())
    assert l1 < 1e-4


def test_convolve_adds_variance():
    p = from_function(GridSpec(-4.0, 0.005, 1601), gauss_fn(0.4))
    c = normalized(convolve(p, gaussian(0.3)))
    assert c.variance() == pytest.approx(0.4**2 + 0.3**2, rel=1e-4)


def test_convolve_preserves_mean_under_symmetric_noise():
    p = from_function(GridSpec(-2.0, 0.005, 1601), gauss_fn(0.5, mu=1.7))
    c = normalized(convolve(p, gaussian(0.3)))
    assert c.mean() == pytest.approx(p.mean(), abs=1e-6)


def test_convolve_records_heavy_tail_clip():
    p = from_function(GridSpec(-2.0, 0.005, 801), gauss_fn(0.5))
    c = convolve(p, lorentzian(1.0), max_halfwidth=20.0)
    expected_clip = 1.0 - (2.0 / math.pi) * math.atan(20.0)
    assert c.truncated_mass == pytest.approx(expected_clip, rel=5e-3)


def test_outputs_always_non_negative():
    rng = np.random.default_rng(3)
    grid = GridSpec(0.0, 1 / 127, 128)
    for _ in range(20):
        vals = rng.random(128)
        p = normalized(GriddedPdf(grid, vals))
        c = convolve(p, gaussian(0.05))
        assert np.all(c.values >= 0.0)
        assert np.all(p.quantiles([0.1, 0.5, 0.9]) >= 0.0)


def test_truncated_mass_validation_and_immutability():
    grid = GridSpec(0.0, 1 / 63, 64)
    with pytest.raises(ValueError):
        GriddedPdf(grid, np.ones(64), truncated_mass=1.5)
    with pytest.raises(ValueError):
        GriddedPdf(grid, -np.ones(64))
    p = GriddedPdf(grid, np.ones(64))
    with pytest.raises(ValueError):
        p.values[0] = 2.0


def test_csv_round_trip(tmp_path):
    p = from_function(GridSpec(-3.0, 0.01, 601), gauss_fn(0.8))
    path = tmp_path / "density.csv"
    p.to_csv(path)
    q = GriddedPdf.from_csv(path, p.grid, truncated_mass=0.25)
    assert q.grid == p.grid
    assert np.array_equal(q.values, p.values)  # 17 significant digits round-trip exactly
    assert q.truncated_mass == 0.25
    text = path.read_text(encoding="utf-8")
    assert text.splitlines()[0] == "x,density"

    # the text is the row-by-row "%.17g" of each node and value, also for
    # zeros, subnormals and values that need all 17 digits
    values = np.linspace(0.0, 1.0, 64)
    values[:4] = (0.0, 5e-324, 1e-300, 0.1)
    r = GriddedPdf(cell_grid(3.0, 64), values)
    r.to_csv(path)
    rows = [f"{x:.17g},{v:.17g}\n" for x, v in zip(r.grid.points(), r.values)]
    # bytes, not str: pytest diffs two long strings line by line for minutes
    assert path.read_bytes() == ("x,density\n" + "".join(rows)).encode("utf-8")
    assert np.array_equal(GriddedPdf.from_csv(path, r.grid).values, r.values)

    # the x column must be a prefix of the grid's nodes, bit for bit
    x = r.grid.points().tolist()
    off = list(x)
    off[20] = math.nextafter(off[20], math.inf)
    longer = GridSpec(r.grid.x_min, r.grid.h, 65).points().tolist()
    bad = {"short": "x,density\n" + "".join(f"{v!r},1\n" for v in x[:15]),
           "wide": "x,density,extra\n" + "".join(f"{v!r},1,2\n" for v in x[:20]),
           "uneven": "x,density\n" + "".join(f"{i * i},1\n" for i in range(20)),
           "one ulp off": "x,density\n" + "".join(f"{v!r},1\n" for v in off),
           "longer than the grid": "x,density\n" + "".join(f"{v!r},1\n" for v in longer)}
    for name, body in bad.items():
        path.write_text(body, encoding="utf-8")
        with pytest.raises(ValueError):
            GriddedPdf.from_csv(path, r.grid)
    path.write_text("x,density\n" + "".join(f"{v!r},1\n" for v in x[:20]), encoding="utf-8")
    assert GriddedPdf.from_csv(path, r.grid).grid == GridSpec(r.grid.x_min, r.grid.h, 20)


# A density whose support (last positive value) ends at node ``len(support) - 1``,
# followed by ``trailing`` exact zeros.
_support = st.lists(st.floats(0.0, 1e3), min_size=0, max_size=150).map(
    lambda v: v + [1.0])


@settings(derandomize=True, max_examples=150, deadline=None)
@given(support=_support, trailing=st.integers(0, 150), upper=st.floats(0.5, 100.0))
@example(support=[0.5] * 40, trailing=0, upper=3.0)         # no trailing zero
@example(support=[0.5] * 40, trailing=1, upper=3.0)         # one
@example(support=[0.5] * 40, trailing=500, upper=3.0)       # many
@example(support=[2.0, 0.0, 1e-300], trailing=61, upper=1.0)  # support in 3 cells: 16 rows
def test_to_csv_ends_one_zero_past_the_support(tmp_path_factory, support, trailing, upper):
    values = np.array(support + [0.0] * trailing)
    n = max(values.size, 16)
    values = np.pad(values, (0, n - values.size))
    pdf = GriddedPdf(cell_grid(upper, n), values)
    path = tmp_path_factory.mktemp("trim") / "density.csv"
    write_csv(path, "x,density", np.column_stack((pdf.grid.points(), values)))
    full = path.read_bytes()
    pdf.to_csv(path)
    text = path.read_bytes()

    rows = text.count(b"\n") - 1
    last = np.flatnonzero(values)[-1]
    assert rows == min(n, max(16, last + 2))
    assert full.startswith(text)
    dropped = full[len(text):].splitlines()
    assert len(dropped) == n - rows
    assert all(line.endswith(b",0") for line in dropped)
    q = GriddedPdf.from_csv(path, pdf.grid)
    assert q.grid == GridSpec(pdf.grid.x_min, pdf.grid.h, rows)
    assert np.array_equal(q.values, values[:rows])
    x, v = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).T
    assert math.isclose(np.trapezoid(v, x), pdf.integral(), rel_tol=1e-15)


@pytest.mark.parametrize("upper, n", [(7.0, 2 * _CSV_BLOCK_VALUES + 5), (1e-28, 40)],
                         ids=["across-blocks", "percent-fallback"])
def test_to_csv_writes_the_grids_x_text_formatted_once(tmp_path, upper, n):
    # a grid formats each node's text once and every density on it shares
    # it: a short and a long density written in turn, in either order, give
    # the files that formatting the node and value columns gives; below
    # 1e-29 the nodes' text comes from '%'
    long = np.linspace(1.0, 2.0, n)
    short = long * (np.arange(n) < n // 3)
    path, ref = tmp_path / "pdf.csv", tmp_path / "ref.csv"
    for first, second in ((short, long), (long, short)):
        grid = cell_grid(upper, n)
        written = []
        with mock.patch.object(pdfgrid, "_g17_fields", wraps=pdfgrid._g17_fields) as fmt:
            for values in (first, second):
                GriddedPdf(grid, values).to_csv(path)
                text = path.read_bytes()
                rows = text.count(b"\n") - 1
                assert rows == (n if values is long else max(16, n // 3 + 1))
                written.append(rows)
                write_csv(ref, "x,density",
                          np.column_stack((grid.points()[:rows], values[:rows])))
                assert text == ref.read_bytes()
        formatted = sum(c.args[0].size for c in fmt.call_args_list)
        # the reference files format 2 numbers a row, the density files 1,
        # and the grid each node once
        assert formatted == 3 * sum(written) + max(written)
    lines = [f"{x:.17g},{v:.17g}\n" for x, v in zip(grid.points(), long)]
    GriddedPdf(grid, long).to_csv(path)
    assert path.read_text(encoding="utf-8") == "x,density\n" + "".join(lines)


# ----------------------------------------------------------------------
# CSV text: every number exactly as "%.17g" writes it
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("g17") / "table.csv"


def assert_g17(path, values, cols=1):
    """write_csv's lines are the "%.17g" of each number, comma-separated."""
    table = np.reshape(np.asarray(values, dtype=float), (-1, cols))
    write_csv(path, "h", table)
    assert b"\0" not in path.read_bytes()  # the fields' NUL padding is all dropped
    got = path.read_text(encoding="utf-8")
    line = ",".join(["%.17g"] * cols) + "\n"
    want = "h\n" + (line * table.shape[0]) % tuple(table.ravel().tolist())
    if got != want:
        bad = [(g, w) for g, w in zip(got.splitlines(), want.splitlines()) if g != w]
        pytest.fail(f"{len(bad)} lines differ from '%.17g', first {bad[:5]}")


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=64))
def test_write_csv_matches_percent_g17_on_any_double(csv_path, values):
    assert_g17(csv_path, values)


def test_write_csv_matches_percent_g17_on_every_decade(csv_path):
    # 1e6 numbers: every decade 1e-320 .. 1e308, densest where the text is
    # built from whole-array arithmetic (1e-29 .. 1e17), and random bits
    rng = np.random.default_rng(20240917)
    decades = np.arange(-320, 309)
    per_decade = np.where((decades >= -30) & (decades <= 17), 19_000, 100)
    decades = np.repeat(decades, per_decade)
    mantissas = rng.uniform(1.0, 10.0, decades.size) * rng.choice([-1.0, 1.0], decades.size)
    with np.errstate(over="ignore"):
        values = mantissas * 10.0 ** decades
    values = values[np.isfinite(values)]
    bits = rng.integers(0, 1 << 62, 20_000).view(np.float64)
    values = np.concatenate([values, bits, -bits])
    assert values.size > 1_000_000
    assert_g17(csv_path, values[:values.size // 3 * 3], cols=3)


def test_write_csv_rounds_exact_ties_to_even(csv_path):
    # odd / 2**(17 - X) with X = 0..14 lies halfway between two 17-digit
    # numbers: "%.17g" rounds it to the even one
    rng = np.random.default_rng(7)
    ties = []
    for x in range(15):
        shift = 17 - x
        odd = 2 * rng.integers(10 ** x << shift >> 1, 10 ** (x + 1) << shift >> 1, 2000) + 1
        tie = odd / 2.0 ** shift
        assert np.all(tie * 2.0 ** shift == odd)  # exact
        ties.append(tie)
    # the only ties below 1e-6, where 10**(16 - X) is not a double
    ties.append([odd * 2.0 ** -24 for odd in range(3, 17, 2)] + [2.0 ** -25, 3 * 2.0 ** -25])
    ties = np.concatenate(ties)
    assert_g17(csv_path, np.concatenate([ties, -ties]), cols=2)


def test_write_csv_matches_percent_g17_next_to_ties_below_1e_minus_6(csv_path):
    # v = m 2**s with v 10**k (k = 16 - X) within d / 2**n of a tie, where
    # 10**k is not a double: m 5**k = 2**(n - 1) + d (mod 2**n), n = -(k + s)
    near = []
    for x in range(-29, -6):
        k = 16 - x
        for s in range(-160, -40):
            n = -(k + s)
            in_decade = 2.0 ** (52 + s) < 10.0 ** (x + 1) and 2.0 ** (53 + s) > 10.0 ** x
            if n <= 1 or not in_decade:
                continue
            inverse = pow(5 ** k, -1, 1 << n)
            for d in [d for d in range(-40, 41) if d]:
                m = ((1 << (n - 1)) + d) * inverse % (1 << n)
                # the least m' = m (mod 2**n) with 53 bits
                m += max(0, -(-((1 << 52) - m) >> n)) << n
                if m < 1 << 53:
                    near.append(m * 2.0 ** s)
    assert len(near) > 300
    assert_g17(csv_path, np.concatenate([near, np.negative(near)]))


def test_write_csv_matches_percent_g17_at_decade_edges(csv_path):
    edges = [1e-6, 1e-4, 1e16, 1e17, 1e-29, 1e-5] + [10.0 ** k for k in range(-323, 309)]
    near = []
    for edge in edges:
        x = edge
        for _ in range(4):
            x = np.nextafter(x, 0.0)
        for _ in range(9):
            near.append(x)
            x = np.nextafter(x, np.inf)
    # a 10**k that rounds below the power, such as 1e-4, rounds back up a
    # decade at 17 digits ("0.0001"); then zeros, subnormals and the extremes
    specials = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
                99999999999999999.0, 9.9999999999999995e-5, 9.99999999999999999e-7,
                1.7976931348623157e308, -1.7976931348623157e308, 0.1, -0.5, 1.0]
    values = np.array(near + specials)
    assert_g17(csv_path, np.concatenate([values, -values]), cols=1)


def test_write_csv_longest_fields_across_a_block_boundary(csv_path):
    # the 25-byte '%' fields, the non-finite ones and signed zeros fill both
    # columns of the last rows of one 8192-value block and the first rows of
    # the next, so every byte of their 32-byte lanes is either text or padding
    longest = [-2.2250738585072014e-308, -4.9406564584124654e-324, -1.7976931348623157e+308,
               np.nan, np.inf, -np.inf, -0.0, 0.0]
    assert max(len(b"%.17g," % v) for v in longest) == 25
    values = np.full(3 * _CSV_BLOCK_VALUES, 0.25)
    for edge in (_CSV_BLOCK_VALUES, 2 * _CSV_BLOCK_VALUES):
        values[edge - 16:edge + 16] = np.resize(longest, 32)
    assert_g17(csv_path, values, cols=2)


def test_write_csv_tables_of_many_columns(csv_path):
    # paths.csv: a path index, then one column per step, across blocks;
    # saddle_ratio.csv: a list of rows
    rng = np.random.default_rng(11)
    paths = np.column_stack((np.arange(700.0), rng.normal(0.2, 1.0, (700, 31)).cumsum(axis=1)))
    assert_g17(csv_path, paths, cols=32)
    sweep = [[0.01, 1.0002712, 0.0024979, 0.0024972, 1.1e-8],
             [1.0, 0.94916, 0.2237, 0.2357, 3.7e-9]]
    assert_g17(csv_path, sweep, cols=5)


def test_to_csv_over_many_blocks(tmp_path):
    rng = np.random.default_rng(3)
    n = 70_001
    values = rng.exponential(1.0, n) * np.where(rng.random(n) < 0.3, 0.0, 1.0)
    values *= 10.0 ** rng.integers(-40, 3, n)
    pdf = GriddedPdf(cell_grid(50.0, n), values)
    path = tmp_path / "many.csv"
    pdf.to_csv(path)
    rows = [f"{x:.17g},{v:.17g}\n" for x, v in zip(pdf.grid.points(), pdf.values)]
    # bytes, not str: pytest diffs two long strings line by line for minutes
    assert path.read_bytes() == ("x,density\n" + "".join(rows)).encode("utf-8")
