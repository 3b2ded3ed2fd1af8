"""Gridded one-dimensional densities: grids, statistics and CSV text.

A ``GriddedPdf`` stores density values on a uniform node grid. Quadrature is
trapezoidal throughout, interpolation is linear, and every density carries a
``truncated_mass`` field recording the probability discarded so far by
restricting to a finite domain (essential for heavy-tailed runs, where the
domain cannot hold all the mass). Statistics are methods, computed when
called; the convolve-then-warp step that produces the densities lives in
``evolution.StepOperator``.

CSV text holds every number exactly as ``'%.17g' % v``; ``csv_text`` builds
it by whole-array numpy arithmetic (see its section below) and writes no
file. A grid formats each node's text once, for every density on it.

Node/cell convention used by the evolution engine: nodes are the centres of
equal cells of width h, so a grid built by ``cell_grid(upper, n)`` has its
first node at h/2 and its cells tile [0, upper] exactly. Because trapezoidal
quadrature gives the two boundary nodes only half weight, conservative
operations store cell mass divided by the node's quadrature weight; all
integrals and moments then see the full mass. A density has one CDF,
``cdf()``, its node masses summed at the cell edges, which its quantiles
invert (a cell's mass read as uniform across it) and the KS oracle and the dz
grid's sizing read. Arrays derived from a grid or density are kept read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridSpec",
    "GriddedPdf",
    "cell_grid",
    "csv_text",
]


@dataclass(frozen=True)
class GridSpec:
    """Uniform node grid x_min + h*i, i < n_points. A prefix ``GridSpec(x_min,
    h, k)`` has its parent's first k nodes and k + 1 cell edges, bit for bit."""

    x_min: float
    h: float
    n_points: int

    def __post_init__(self):
        if int(self.n_points) != self.n_points or self.n_points < 16:
            raise ValueError("grid requires an integer n_points >= 16")
        object.__setattr__(self, "n_points", int(self.n_points))
        if not (self.h > 0.0 and math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise ValueError("grid requires a spacing h > 0 and finite x_min, x_max")

    @property
    def x_max(self) -> float:
        return self.x_min + self.h * (self.n_points - 1)

    def points(self) -> np.ndarray:
        """The nodes, computed once per grid and returned read-only."""
        return _once(self, "_points", lambda: self.x_min + self.h * np.arange(self.n_points))

    def csv_fields(self, rows: int) -> np.ndarray:
        """The first ``rows`` nodes' ``'%.17g,'`` text as NUL-padded 'S32'
        fields, the first column of ``GriddedPdf.csv_bytes``, returned
        read-only. Each node is formatted once per grid: the grid keeps the
        longest prefix asked for so far, 32 bytes a node."""
        done = self.__dict__.get("_csv_fields", _NO_FIELDS)
        if done.size < rows:
            pts = self.points()
            blocks = [pts[lo:min(lo + _CSV_BLOCK_VALUES, rows)]
                      for lo in range(done.size, rows, _CSV_BLOCK_VALUES)]
            done = np.concatenate([done, *(_g17_fields(b, _NO_NEWLINE[:b.size])
                                           for b in blocks)])
            done.setflags(write=False)
            object.__setattr__(self, "_csv_fields", done)
        return done[:rows]

    def cell_edges(self) -> np.ndarray:
        """n_points + 1 edges of the cells whose centres are the nodes,
        computed once per grid and returned read-only."""
        return _once(self, "_edges",
                     lambda: self.x_min + self.h * (np.arange(self.n_points + 1) - 0.5))

    def node_weights(self) -> np.ndarray:
        """Trapezoidal quadrature weights (h/2 at the ends, h inside),
        computed once per grid and returned read-only."""
        end = [0.5 * self.h]
        return _once(self, "_weights",
                     lambda: np.concatenate((end, np.full(self.n_points - 2, self.h), end)))


def _once(obj, name: str, build):
    """Attribute ``name`` of a frozen ``obj``, built once by ``build()`` (arrays read-only)."""
    value = obj.__dict__.get(name)
    if value is None:
        value = build()
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(obj, name, value)
    return value


def cell_grid(upper: float, n_points: int) -> GridSpec:
    """Node grid whose n cells of width upper/n tile [0, upper] exactly."""
    if not upper > 0.0:
        raise ValueError("upper must be positive")
    h = upper / n_points
    return GridSpec(0.5 * h, h, n_points)


@dataclass(frozen=True)
class GriddedPdf:
    """Density values on a uniform grid, plus truncation bookkeeping."""

    grid: GridSpec
    values: np.ndarray
    truncated_mass: float = 0.0

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=float)
        if vals.shape != (self.grid.n_points,):
            raise ValueError("values must match the grid size")
        if not np.all(np.isfinite(vals)):
            raise ValueError("density values must be finite")
        lo = vals.min()
        if lo < 0.0:
            if lo < -1e-9 * max(vals.max(), 1.0):
                raise ValueError("density values must be non-negative")
            vals = np.maximum(vals, 0.0)
        if not 0.0 <= self.truncated_mass < 1.0:
            raise ValueError("truncated_mass must lie in [0, 1)")
        object.__setattr__(self, "values", vals)
        vals.setflags(write=False)

    # ------------------------------------------------------------------
    # mass accounting
    # ------------------------------------------------------------------

    def integral(self) -> float:
        """Trapezoidal integral over the grid."""
        return float(np.trapezoid(self.values, self.grid.points()))

    def node_masses(self) -> np.ndarray:
        """Per-node mass = value * quadrature weight, kept read-only; sums to integral()."""
        return _once(self, "_masses", lambda: self.values * self.grid.node_weights())

    def cdf(self) -> np.ndarray:
        """The CDF at the n + 1 cell edges: the node masses accumulated from 0 to
        the density's mass, exact for conservative (cell-mass) densities; kept read-only."""
        return _once(self, "_cdf", lambda: np.concatenate(([0.0], np.cumsum(self.node_masses()))))

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------

    def mean(self) -> float:
        """Trapezoidal mean, computed once per density."""
        def mean():
            x = self.grid.points()
            with np.errstate(over="ignore", invalid="ignore"):  # non-finite moments fail at output
                return float(np.trapezoid(x * self.values, x))
        return _once(self, "_mean", mean)

    def variance(self) -> float:
        """Trapezoidal central second moment."""
        x = self.grid.points()
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.trapezoid((x - self.mean())**2 * self.values, x))

    def std(self) -> float:
        return math.sqrt(max(self.variance(), 0.0))

    def quantiles(self, probs) -> np.ndarray:
        """Inverse of ``cdf()``, linear between cell edges (a cell's mass read
        as uniform across it, as conservative transport stores it), at probs
        strictly inside (0, 1) taken relative to the density's own mass."""
        probs = np.atleast_1d(np.asarray(probs, dtype=float))
        if np.any(probs <= 0.0) or np.any(probs >= 1.0):
            raise ValueError("probs must lie strictly inside (0, 1)")
        cdf = self.cdf()
        targets = probs * cdf[-1]
        k = np.searchsorted(cdf, targets).clip(1, cdf.size - 1)  # cdf[k - 1] < target <= cdf[k]
        gap = cdf[k] - cdf[k - 1]  # positive unless the density has no mass
        w = (targets - cdf[k - 1]) / np.where(gap > 0.0, gap, np.inf)
        return self.grid.x_min + self.grid.h * (k - 1.5 + w)  # edge k at w = 1, bit for bit

    def distance(self, other: "GriddedPdf") -> float:
        """L1 distance: the trapezoidal integral of |p - q|."""
        if self.grid != other.grid:
            raise ValueError("distance requires both densities on the same grid")
        return float(np.trapezoid(np.abs(self.values - other.values), self.grid.points()))

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------

    def csv_bytes(self) -> bytes:
        """The text of a CSV file of (x, density) rows at full double precision.

        The rows end at the first zero after the last positive value (at
        least 16 rows, at most the whole grid): the density is 0 at every
        later node, so the file's trapezoid is still ``integral()``. The
        full grid is recorded by the caller, e.g. in a manifest.
        """
        positive = np.flatnonzero(self.values > 0.0)
        end = positive[-1] + 2 if positive.size else 0
        rows = min(self.grid.n_points, max(16, end))
        return csv_text("x,density", self.values[:rows, None], self.grid.csv_fields(rows))

    @classmethod
    def from_csv(cls, path, grid: GridSpec, truncated_mass: float = 0.0) -> "GriddedPdf":
        """Read a file of ``csv_bytes`` text for a density on ``grid``: the
        density on the prefix of ``grid`` that the file's rows cover (0 at
        every node past it). The x column must be those nodes bit for bit."""
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if data.shape[1] != 2 or not 16 <= data.shape[0] <= grid.n_points:
            raise ValueError(f"{path}: expected two-column CSV with 16..{grid.n_points} rows")
        x, v = data[:, 0], data[:, 1]
        if not np.array_equal(x, grid.points()[:x.size]):
            raise ValueError(f"{path}: x column is not the nodes of {grid}")
        return cls(GridSpec(grid.x_min, grid.h, x.size), v, truncated_mass)


# ----------------------------------------------------------------------
# CSV text
# ----------------------------------------------------------------------
#
# csv_text writes each number exactly as '%.17g' % v does, but for whole
# arrays. For 1e-29 <= |v| < 1e17 (and for zeros):
#
# * Digits. With X the decimal exponent of v, S = 10**(16 - X) is a double
#   plus an exact double remainder R (R = 0 for X >= -6, where S is exact).
#   Dekker's TwoProduct gives |v| S = hi + lo exactly, and hi >= 1e16 > 2**53
#   is an even integer, so the 17 correctly rounded digits are
#   hi + rint(lo + |v| R), with rint's ties to even: the rounding of
#   Gay's '%' conversion. Where R != 0 the sum carries an error below
#   2**-47, so a value that lands within 2**-40 of a tie goes to '%'.
# * Text. The digits, the '.', the '0.000' of small fixed-point values, the
#   sign, an 'e-XX' exponent and the separator are placed by byte masks and
#   shifts on three little-endian uint64 lanes per number (24 bytes, the
#   longest such field). Trailing zeros are masked off.
#
# Every other value (and one that rounds up to 1e17) is written by '%'
# itself. Each number's text sits in a 32-byte field of four lanes, padded
# with NUL bytes.
#
# Padding is the only NUL. No text holds a NUL byte of its own (it is digits,
# sign, '.', 'e', '+', '-', 'nan', 'inf', ',' and '\n'), so a block's text is
# its fields viewed as bytes with every NUL dropped: one byte mask per 4096
# values, not one Python bytes object per number.

# Numbers formatted per pass: transient memory stays bounded whatever the
# table size. A pass of 4096 holds about 0.8 MB of temporaries, half of
# what 8192 held, and formatted 20 density files of 30,000 rows about 18%
# faster on a core with 2 MB of L2 cache.
_CSV_BLOCK_VALUES = 4096

_NO_FIELDS = np.zeros(0, dtype="S32")
_NO_NEWLINE = np.zeros(_CSV_BLOCK_VALUES, dtype=np.int64)  # newline flags of a ',' block

_SPLITTER = 134217729.0  # 2**27 + 1, Veltkamp's splitter for doubles


def _veltkamp(a):
    """Split doubles into halves of at most 26 bits: a == hi + lo exactly."""
    t = a * _SPLITTER
    hi = t - (t - a)
    return hi, a - hi


def _lanes(strings) -> tuple:
    """Byte strings of up to 24 bytes as three uint64 lane tables."""
    table = np.array(strings, dtype="S24").view("<u8").reshape(-1, 3)
    return tuple(np.ascontiguousarray(table[:, j]) for j in range(3))


# Tables over e = X + 29 in 0..45.
_TENS = [10 ** (45 - e) for e in range(46)]                      # 10**(16 - X)
_SCALE = np.array([float(t) for t in _TENS])
_SCALE_REST = np.array([float(t - int(float(t))) for t in _TENS])  # exact: 5**45 < 2**106
_SCALE_HI, _SCALE_LO = _veltkamp(_SCALE)
_TIE_MARGIN = np.where(_SCALE_REST == 0.0, 0.5, 0.5 - 2.0 ** -40)


def _group_tables() -> tuple[np.ndarray, list[np.ndarray]]:
    """Text of the 4-digit groups 0000..9999, in order from the low byte, and
    ends[j][g]: how many of the 17 digits to keep when group j (digits 1 + 4j
    .. 4 + 4j) holds g and no later group has a nonzero digit; 1 (the
    leading digit) when g == 0."""
    g = np.arange(10_000)
    text = sum((g // 10 ** (3 - j) % 10 + 48).astype(np.uint64) << np.uint64(8 * j)
               for j in range(4))
    trailing_zeros = sum((g % 10 ** j == 0).astype(np.int8) for j in (1, 2, 3))
    ends = [np.where(g > 0, 5 + 4 * j - trailing_zeros, 1).astype(np.int8) for j in range(4)]
    return text, ends


_GROUP_TEXT, _GROUP_END = _group_tables()
_DIGIT_TEXT = np.arange(48, 58, dtype=np.uint64)

_FIRST_BYTES = _lanes([b"\xff" * n for n in range(25)])  # masks of the first n bytes
# one byte after the leading digits: '.' at 0..23, nothing at 24, '0' at 25..48
_INSERT = _lanes([b"\0" * n + b"." for n in range(24)] + [b""]
                 + [b"\0" * n + b"0" for n in range(24)])
_ENDINGS = [exp + sep for exp in [b""] + [b"e-%02d" % x for x in range(5, 30)]
            for sep in (b",", b"\n")]
_ENDING = _lanes([(b"\0" * n + end)[:24] for end in _ENDINGS for n in range(25)])

# Per class c = 4 e + 2 negative + newline. With the 17 digits d:
#   X >= 0:        sign, d[:X + 1], '.', rest of d
#   -4 <= X < 0:   sign, '0.000'[:-X], '.' (X = -1) or '0', d
#   X < -4:        sign, d[0], '.', rest of d, 'e-XX'
# followed by the separator; the '.' goes when no nonzero digit follows it.
_X = np.arange(-29, 17)
_lead = [b"-" * neg + (b"0.000"[:-x] if -4 <= x < 0 else b"")
         for x in _X.tolist() for neg in (0, 1) for _ in (0, 1)]
_LEAD = _lanes(_lead)[0]
_LEAD_LEN = np.array([len(b) for b in _lead])
_LEAD_BITS = (8 * _LEAD_LEN).astype(np.uint64)
_cut = np.where(_X >= 0, _X + 1, np.where(_X >= -4, 0, 1))  # digits before the insert
_CUT = np.repeat(_cut, 4)
_INSERT_AT = np.repeat(_cut + np.where((-4 <= _X) & (_X < -1), 25, 0), 4)
_exp_ending = 2 * np.where(_X < -4, -4 - _X, 0)
_ENDING_AT = 25 * (np.repeat(_exp_ending, 4) + np.tile([0, 1], 2 * _X.size)) + _LEAD_LEN

_BITS8, _BITS24, _BITS40, _BITS56 = (np.uint64(n) for n in (8, 24, 40, 56))


def csv_text(header: str, table, first_fields=None) -> bytes:
    """The text of a CSV file: a header line and the rows of a 2-D table.

    Numbers are comma-separated and written exactly as ``'%.17g' % v``.
    ``first_fields``, when given, is a first column already in text, one
    ``'%.17g,'`` field per row as ``GridSpec.csv_fields`` returns them, and
    ``table`` holds the columns after it.
    """
    table = np.asarray(table, dtype=float)
    rows, cols = table.shape
    step = max(1, _CSV_BLOCK_VALUES // cols)
    newline = np.tile(np.arange(cols) == cols - 1, step).astype(np.int64)
    parts = [header.encode("utf-8") + b"\n"]
    for lo in range(0, rows, step):
        values = np.ravel(table[lo:lo + step])
        fields = _g17_fields(values, newline[:values.size]).reshape(-1, cols)
        if first_fields is not None:
            fields = np.column_stack((first_fields[lo:lo + step], fields))
        text = fields.view(np.uint8)
        parts.append(text[text != 0].tobytes())  # padding is the only NUL
        del fields, text  # before the next block's temporaries
    return b"".join(parts)


def _g17_fields(values, newline):
    """'%.17g' % v of each value, then ',' (newline 0) or '\\n' (newline 1), as
    an 'S32' array of NUL-padded fields."""
    n, e, fallback = _decimal(values)
    s0, s1, s2, keep = _digit_text(n)
    c = 4 * e
    c += np.signbit(values) * 2
    c += newline
    cut = _CUT[c]
    np.maximum(keep, cut, out=keep)
    insert = keep > cut
    at = np.where(insert, _INSERT_AT[c], 24)  # row 24 inserts nothing

    # digits [0, cut), the inserted byte, digits [cut, keep) one byte later
    s0 &= _FIRST_BYTES[0][keep]
    s1 &= _FIRST_BYTES[1][keep]
    s2 &= _FIRST_BYTES[2][keep]
    l0 = s0 & _FIRST_BYTES[0][cut]
    l1 = s1 & _FIRST_BYTES[1][cut]
    l2 = s2 & _FIRST_BYTES[2][cut]
    s0 ^= l0
    s1 ^= l1
    s2 ^= l2
    b0 = l0 | (s0 << _BITS8) | _INSERT[0][at]
    b1 = l1 | (s1 << _BITS8) | (s0 >> _BITS56) | _INSERT[1][at]
    b2 = l2 | (s2 << _BITS8) | (s1 >> _BITS56) | _INSERT[2][at]
    # after the sign and lead, then the exponent and separator
    end = _ENDING_AT[c] + keep + insert
    up = _LEAD_BITS[c]
    down = np.uint64(63) - up  # (x >> 1) >> down: no shift by 64
    # a fourth, zero lane leaves room for the 25 bytes of a '%' fallback
    # such as "-2.2250738585072014e-308,"
    out = np.zeros((values.size, 4), dtype="<u8")
    out[:, 0] = (b0 << up) | _LEAD[c] | _ENDING[0][end]
    out[:, 1] = (b1 << up) | ((b0 >> np.uint64(1)) >> down) | _ENDING[1][end]
    out[:, 2] = (b2 << up) | ((b1 >> np.uint64(1)) >> down) | _ENDING[2][end]
    fields = out.view("S32")[:, 0]
    where = np.flatnonzero(fallback)
    if where.size:
        fields[where] = [b"%.17g" % v + (b"\n" if nl else b",")
                         for v, nl in zip(values[where].tolist(), newline[where].tolist())]
    return fields


def _decimal(values):
    """(n, e, fallback): |v| rounded to the 17-digit integer n (0 for zeros)
    times 10**(X - 16), e = X + 29, and where '%' must format v instead."""
    a = np.abs(values)
    nonzero = a != 0.0
    kernel = (a > 1e-29) & (a < 1e17)  # 1e-29 rounds below 10**-29
    a = np.where(kernel, a, 2.0)
    # from log10, which may be one off next to a power of ten
    e = np.clip(np.floor(np.log10(a)) + 29.0, 0.0, 45.0).astype(np.int64)
    hi, lo = _scaled(a, e)
    unsure = np.zeros(a.size, dtype=bool)
    off = np.flatnonzero((hi <= 1e16) | (hi >= 1e17))
    if off.size:
        h, l, eo = hi[off], lo[off], e[off]
        below, above = (h - 1e16) + l, (h - 1e17) + l
        unsure[off] = ((np.minimum(np.abs(below), np.abs(above)) < 2.0 ** -40)
                       & (_SCALE_REST[eo] != 0.0))
        e[off] = eo + (above >= 0.0) - (below < 0.0).astype(np.int64)
        hi[off], lo[off] = _scaled(a[off], e[off])
    r = np.rint(lo)
    unsure |= np.abs(lo - r) > _TIE_MARGIN[e]
    n = hi.astype(np.int64)
    n += r.astype(np.int64)
    n *= nonzero
    carry = n == 10 ** 17
    n -= carry * (9 * 10 ** 16)
    e += carry
    fallback = (nonzero & ~kernel) | unsure | (e > 45)
    np.minimum(e, 45, out=e)
    return n, e, fallback


def _scaled(a, e):
    """(hi, lo): hi + lo is a * 10**(16 - X) exactly (a * rest rounded)."""
    hi = a * _SCALE[e]
    ah, al = _veltkamp(a)
    sh, sl = _SCALE_HI[e], _SCALE_LO[e]
    lo = ((ah * sh - hi) + ah * sl + al * sh) + al * sl
    lo += a * _SCALE_REST[e]
    return hi, lo


def _digit_text(n):
    """The 17 digits of n as text in three lanes, and how many to keep
    before trailing zeros (at least 1)."""
    d0 = n // 10 ** 16
    n = n - d0 * 10 ** 16
    upper = n // 10 ** 8
    n -= upper * 10 ** 8
    g0 = upper // 10 ** 4
    g1 = upper - g0 * 10 ** 4
    g2 = n // 10 ** 4
    g3 = n - g2 * 10 ** 4
    t0, t1, t2, t3 = (_GROUP_TEXT[g] for g in (g0, g1, g2, g3))
    s0 = _DIGIT_TEXT[d0] | (t0 << _BITS8) | (t1 << _BITS40)
    s1 = (t1 >> _BITS24) | (t2 << _BITS8) | (t3 << _BITS40)
    s2 = t3 >> _BITS24
    keep = np.maximum(np.maximum(_GROUP_END[0][g0], _GROUP_END[1][g1]),
                      np.maximum(_GROUP_END[2][g2], _GROUP_END[3][g3]))
    return s0, s1, s2, keep.astype(np.int64)
