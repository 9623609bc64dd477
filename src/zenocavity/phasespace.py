"""Wigner-function evaluation and raster export.

Convention: W(xi) = (2/pi) Tr[rho D(xi) P D(-xi)] with P the photon-number
parity operator, so W is real, bounded by +-2/pi, and a coherent state
|alpha> peaks at xi = alpha with W = 2/pi. Grayscale exports map
[-2/pi, 2/pi] linearly onto [0, 255]; figures therefore depend on this
convention and it is fixed here once.

Evaluation uses the position representation, with q = sqrt(2) Re xi and
p = sqrt(2) Im xi:

    W(xi) = (2/pi) Int conj(psi(q + u)) psi(q - u) exp(2ipu) du

(Hillery, O'Connell, Scully & Wigner, Phys. Rep. 106, 121 (1984)) for a
pure state. psi(q) = sum_n c_n phi_n(q) is built from the normalised Hermite functions phi_n, so the value is exact
for the truncated state wherever it is evaluated: nothing is displaced and
no basis is padded. The integrand is band-limited by the basis size and
the window, so the trapezoid rule on a fine enough u grid converges to
machine precision. The u spacing divides sqrt(2) dx, hence every q +- u of
a raster lies on one sampled position grid and a whole raster is one
gather and one matrix product. The integrand at -u is the conjugate of the
one at u, so only u >= 0 is summed, by a real kernel. That layout (table,
gathers, kernel) depends only on (dim, bounds, sizes) and is cached, so
the snapshots of a run share one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import IO

import numpy as np

from .fock import FieldState

W_MAX = 2.0 / math.pi

_SQRT2 = math.sqrt(2.0)


def _hermite_functions(dim: int, q: np.ndarray) -> np.ndarray:
    """Rows phi_0(q)..phi_{dim-1}(q) of the normalised Hermite functions."""
    phi = np.empty((dim, len(q)))
    phi[0] = math.pi ** -0.25 * np.exp(-0.5 * q * q)
    if dim > 1:
        phi[1] = _SQRT2 * q * phi[0]
    for n in range(2, dim):
        phi[n] = math.sqrt(2.0 / n) * q * phi[n - 1] - math.sqrt((n - 1) / n) * phi[n - 2]
    return phi


def _h_max(dim: int, y_min: float, y_max: float) -> float:
    """Widest u spacing at which the trapezoid rule is exact (see _geometry)."""
    y_abs = max(abs(y_min), abs(y_max))
    return math.pi / (2.0 * math.sqrt(2.0 * dim + 1.0) + 2.0 * _SQRT2 * y_abs)


@functools.lru_cache(maxsize=4)
def _geometry(
    dim: int, x_min: float, x_step: float, nx: int, y_min: float, y_max: float, ny: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read-only Hermite table, u >= 0 gathers and real kernel of a raster.

    |psi(q)| and its spectrum both fade beyond sqrt(2 dim + 1), so the
    integrand lives on |u| < sqrt(2 dim + 1) + 7 and its frequencies stay
    below 2 sqrt(2 dim + 1) + 2 sqrt(2) |y|. The trapezoid rule of spacing
    h is exact to rounding while 2 pi / h, the first frequency it aliases
    onto zero, is at least twice that band edge. The weight is h at u = 0
    and 2h beyond, where u also stands for -u.
    """
    h_max = _h_max(dim, y_min, y_max)
    per_column = math.ceil(_SQRT2 * x_step / h_max) if nx > 1 else 1
    h = _SQRT2 * x_step / per_column if nx > 1 else h_max
    k_max = math.ceil((math.sqrt(2.0 * dim + 1.0) + 7.0) / h)
    offsets = np.arange(k_max + 1)
    # sample m sits at sqrt(2) x_min + (m - k_max) h; column i at m = i * per_column + k_max
    samples = _SQRT2 * x_min + h * np.arange(-k_max, (nx - 1) * per_column + k_max + 1)
    table = _hermite_functions(dim, samples)
    centre = per_column * np.arange(nx)[:, None] + k_max
    angle = 2.0 * _SQRT2 * np.outer(np.linspace(y_min, y_max, ny), h * offsets)
    weights = np.where(offsets == 0, h, 2.0 * h)
    kernel = np.hstack([np.cos(angle) * weights, -np.sin(angle) * weights])
    layout = (table, centre + offsets, centre - offsets, kernel)
    for arr in layout:
        arr.flags.writeable = False
    return layout


def _raster(
    amps: np.ndarray,
    x_min: float, x_step: float, nx: int, y_min: float, y_max: float, ny: int,
) -> np.ndarray:
    """values[j, i] = W(x_min + i x_step + 1j y_j), y = linspace(y_min, y_max, ny),
    of the pure state with amplitudes amps."""
    dim = len(amps)
    h_max = _h_max(dim, y_min, y_max)
    if nx > 1 and _SQRT2 * x_step < h_max:
        # columns closer than h: evaluate interleaved sub-rasters whose
        # spacing clears h, so the sampled grid stays O(sqrt(dim) / h) long
        stride = math.ceil(h_max / (_SQRT2 * x_step))
        values = np.empty((ny, nx))
        for r in range(min(stride, nx)):
            values[:, r::stride] = _raster(
                amps, x_min + r * x_step, stride * x_step, len(range(r, nx, stride)),
                y_min, y_max, ny,
            )
        return values
    table, plus, minus, kernel = _geometry(dim, x_min, x_step, nx, y_min, y_max, ny)
    psi = amps @ table
    integrand = psi[plus].conj() * psi[minus]
    return W_MAX * (kernel @ np.vstack([integrand.real.T, integrand.imag.T]))


@dataclass(frozen=True)
class WignerGrid:
    """Rectangular raster of W over [x_min, x_max] x [y_min, y_max].

    values[j, i] = W(x_i + 1j * y_j) with both axes ascending.
    """

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    nx: int
    ny: int
    values: np.ndarray

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ValueError("grid needs at least 2 points per axis")
        if not (self.x_max > self.x_min and self.y_max > self.y_min):
            raise ValueError("empty grid bounds")
        if self.values.shape != (self.ny, self.nx):
            raise ValueError("values shape must be (ny, nx)")

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)

    @property
    def ys(self) -> np.ndarray:
        return np.linspace(self.y_min, self.y_max, self.ny)


def wigner_grid(
    state: FieldState,
    bounds: tuple[float, float, float, float],
    nx: int = 121,
    ny: int = 121,
) -> WignerGrid:
    """Raster W of a pure state over bounds = (x_min, x_max, y_min, y_max)."""
    x_min, x_max, y_min, y_max = (float(b) for b in bounds)
    # the grid checks its bounds and sizes before anything is evaluated
    grid = WignerGrid(
        x_min=x_min, x_max=x_max, y_min=y_min, y_max=y_max, nx=nx, ny=ny,
        values=np.empty((ny, nx)),
    )
    grid.values[:] = _raster(
        state.amps, x_min, (x_max - x_min) / (nx - 1), nx, y_min, y_max, ny
    )
    return grid


#: blocks of w smaller than this keep the per-row `%.17g` template. With
#: one BLAS thread on a 2-core Xeon they cross at 240-256 values: numpy takes
#: 1.05 times the template's time at 240, 0.98 at 256 and 0.89 at 288
_G17_MIN = 256
#: w values export_csv writes at once (whole rows, at least one). A 121x121
#: raster takes 4 blocks; at 1024x1024 the writer holds 1.2 MB (tracemalloc).
#: 1,024 values held 0.5 MB and wrote 121x121 about a quarter slower;
#: 16,384 (one block) held 4.4 MB and wrote it about 10% faster
_CSV_BLOCK = 4096


def _pow10_table(k_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """10^k ~ (hi_k + lo_k) 2^shift_k for k <= k_max: a 107-bit mantissa,
    rounded once from the exact integer and split into two doubles."""
    hi, lo = np.empty(k_max + 1), np.empty(k_max + 1)
    shift = np.empty(k_max + 1, dtype=np.int64)
    for k in range(k_max + 1):
        n = 10**k
        shift[k] = t = max(0, n.bit_length() - 107)
        mantissa = (n + (1 << t >> 1)) >> t
        hi[k] = float(mantissa)
        lo[k] = float(mantissa - int(hi[k]))
    return hi, lo, shift


def _text_table(texts: list[str], size: int = 8) -> np.ndarray:
    """Each text as ASCII, NUL-padded to size bytes, in size / 8 uint64s."""
    return np.frombuffer(b"".join(t.encode("ascii").ljust(size, b"\0") for t in texts),
                         dtype=np.uint64)


# 10^(16 - x) for every decade x of a double below 1, x >= -324
_POW10_HI, _POW10_LO, _POW10_SHIFT = _pow10_table(16 + 324)


def _digit_groups() -> np.ndarray:
    """The 4 ASCII digits of each group 0..9999, then the same with NULs for
    their trailing zeros, one uint32 each."""
    groups = np.arange(10_000, dtype=np.uint16)[:, None]
    digits = (groups // np.array([1000, 100, 10, 1], dtype=np.uint16) % 10).astype(np.uint8)
    kept = np.maximum.accumulate(digits[:, ::-1], axis=1)[:, ::-1] > 0
    return np.vstack([digits + 48, np.where(kept, digits + 48, 0)]).view(np.uint32)[:, 0]


_DIGIT_GROUPS = _digit_groups()
_LEVELS = _text_table([f"{v} " for v in range(256)])  # PGM grey levels, each with a space
# [sign][form][first digit]; form 0-3: `0.d` to `0.000d`, 4: `d.`, 5: `d` alone
_HEADS = _text_table([sign + (f"0.{'0' * form}{d}" if form < 4 else f"{d}." if form == 4
                              else f"{d}")
                      for sign in ("", "-") for form in range(6) for d in range(10)])
# the exponent of decade x and the newline at _ENDS[x + 324]
_ENDS = _text_table([(f"e-{-x:02d}" if x < -4 else "") + "\n" for x in range(-324, 0)])


def _two_split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a = high + low with both halves exact in 26 bits (Dekker)."""
    t = 134217729.0 * a  # 2^27 + 1
    high = t - (t - a)
    return high, a - high


def _round_scaled(m: np.ndarray, e: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """round(m 2^e 10^(16 - x)) as int64, and whether it is certain.

    m < 2^53 is an integer. The product with the double-double 10^(16 - x)
    keeps about 104 bits (Dekker's exact two-product for m hi): an error
    below 2^-43 where the result lies below 1e18 (at most 2^-49 against
    exact rationals over 45,000 values from every decade). A result counts
    as certain when its fraction lies more than 1e-6 from one half. The
    margin is wider than the error by a factor of 10^7, so that a slip in
    that bound cannot give a wrong digit; it costs about 2 uncertain values
    in a million, and every exact tie is one of them."""
    k = 16 - x
    hi, lo = _POW10_HI[k], _POW10_LO[k]
    p = m * hi
    m_hi, m_lo = _two_split(m)
    h_hi, h_lo = _two_split(hi)
    q = ((m_hi * h_hi - p) + m_hi * h_lo + m_lo * h_hi) + m_lo * h_lo + m * lo
    t = e + _POW10_SHIFT[k]
    p, q = np.ldexp(p, t), np.ldexp(q, t)
    whole = np.floor(p)
    q += p - whole
    q_whole = np.floor(q)
    frac = q - q_whole
    rounded = whole.astype(np.int64) + q_whole.astype(np.int64) + (frac > 0.5)
    return rounded, np.abs(frac - 0.5) > 1e-6


def _g17_below_one(v: np.ndarray) -> np.ndarray:
    """`'%.17g' % v` for values with |v| < 1.

    |v| = m 2^e with m a 53-bit integer. The decade x of |v| is
    floor((e + 52) log10 2) or one more: a scaled value of 10^17 or more
    moves it up once, as does one that rounds up to 10^17. The 17 digits
    D = round(|v| 10^(16 - x)) give the text: the head holds the sign and
    the first digit (after `0.` and its zeros when x >= -4), the tail the
    other 16 digits, four at a time from a 10,000-entry table, without
    their trailing zeros, and the end the exponent below x = -4. Each value
    is one NUL-padded 32-byte row of head, tail and end, with a newline.
    The row of a value whose rounding _round_scaled cannot certify holds
    `'%.17g' % v` itself (at most 25 bytes with its newline). Returns the
    (len(v), 4) uint64 rows. A zero has D = 0 and takes the head `0`
    (`-0`) alone."""
    f, e = np.frexp(np.abs(v))
    m, e = np.ldexp(f, 53), e.astype(np.int64) - 53
    x = ((e + 52) * 78913) >> 18  # floor((e + 52) log10 2), exact for |e + 52| < 1650
    digits, certain = _round_scaled(m, e, x)
    up = np.flatnonzero(digits >= 10**17)
    x[up] += 1
    digits[up], certain[up] = _round_scaled(m[up], e[up], x[up])
    first, rest = np.divmod(digits, 10**16)
    groups = np.empty((len(v), 4), dtype=np.int64)
    high, groups[:, 3] = np.divmod(rest, 10_000)
    high, groups[:, 2] = np.divmod(high, 10_000)
    groups[:, 0], groups[:, 1] = np.divmod(high, 10_000)
    # a group drops its trailing zeros when every group after it is zero
    groups[:, 3] += 10_000
    for g in (2, 1, 0):
        groups[:, g] += 10_000 * (groups[:, g + 1] == 10_000)
    form = np.where(digits == 0, 5, np.where(x >= -4, -1 - x, 4 + (rest == 0)))
    rows = np.empty((len(v), 4), dtype=np.uint64)
    rows[:, 0] = _HEADS[(6 * np.signbit(v) + form) * 10 + first]
    rows[:, 1:3] = _DIGIT_GROUPS[groups].view(np.uint64)
    rows[:, 3] = _ENDS[x + 324]
    uncertain = ~certain
    rows[uncertain] = _text_table([f"{u:.17g}\n" for u in v[uncertain].tolist()],
                                  32).reshape(-1, 4)
    return rows


def _ascii(cells: np.ndarray) -> str:
    """The text of NUL-padded cells: their bytes in order, every NUL dropped."""
    text = cells.view(np.uint8)
    return text[text != 0].tobytes().decode("ascii")


def export_csv(grid: WignerGrid, fh: IO[str]) -> None:
    """Rows `x,y,w`, row-major over the raster, each number as `%.17g`.

    The w values go a block of whole rows, about _CSV_BLOCK values, at a
    time. A block of at least _G17_MIN values, all with |w| < 1, is
    rounded to 17 digits in numpy (_g17_below_one) and laid out in 96
    bytes a point: the x text and the y text, each with its comma and
    NUL-padded to 32 bytes, then the w row. The block is written at once,
    its NULs dropped: a 121x121 raster takes 4.3 ms to a file, 5.7 ms with
    one printf template and one write per raster row. Any other block
    (|w| >= 1, inf or nan) and a smaller raster keep that template,
    `x_0,y,%.17g\nx_1,y,%.17g\n...`, filled with the row's w values."""
    xs = [f"{x:.17g}" for x in grid.xs.tolist()]
    ys = [f"{y:.17g}" for y in grid.ys.tolist()]
    rows = max(1, _CSV_BLOCK // grid.nx)
    layout = None
    fh.write("x,y,w\n")
    for j in range(0, grid.ny, rows):
        w = grid.values[j:j + rows]
        if w.size < _G17_MIN or not np.abs(w).max() < 1.0:  # nan compares false
            for y, row in zip(ys[j:j + rows], w.tolist()):
                sep = f",{y},%.17g\n"
                fh.write((sep.join(xs) + sep) % tuple(row))
            continue
        if layout is None:
            layout = np.empty((min(rows, grid.ny), grid.nx, 12), dtype=np.uint64)
            layout[:, :, :4] = _text_table([x + "," for x in xs], 32).reshape(-1, 4)
        block = layout[:len(w)]
        block[:, :, 4:8] = _text_table([y + "," for y in ys[j:j + rows]], 32).reshape(-1, 1, 4)
        block[:, :, 8:] = _g17_below_one(w.ravel()).reshape(len(w), grid.nx, 4)
        fh.write(_ascii(block))


def import_csv(fh: IO[str]) -> WignerGrid:
    """Rebuild a grid from export_csv output (bit-exact round trip)."""
    header = fh.readline().strip()
    if header != "x,y,w":
        raise ValueError(f"unexpected header {header!r}")
    xs: list[float] = []
    ys: list[float] = []
    ws: list[float] = []
    for line in fh:
        line = line.strip()
        if not line:
            continue
        x, y, w = line.split(",")
        xs.append(float(x))
        ys.append(float(y))
        ws.append(float(w))
    nx = len(set(xs))
    ny = len(set(ys))
    if nx * ny != len(ws):
        raise ValueError("raster is not rectangular")
    values = np.array(ws).reshape(ny, nx)
    return WignerGrid(
        x_min=min(xs), x_max=max(xs), y_min=min(ys), y_max=max(ys),
        nx=nx, ny=ny, values=values,
    )


def export_pgm(grid: WignerGrid, fh: IO[str]) -> None:
    """ASCII PGM, linear map [-2/pi, 2/pi] -> [0, 255], top row = y_max.

    Header comments record the bounds so the image is self-describing.
    """
    levels = np.clip(
        np.round((grid.values + W_MAX) / (2.0 * W_MAX) * 255.0), 0, 255
    ).astype(int)
    cells = _LEVELS[levels[::-1]]
    ends = cells[:, -1:].view(np.uint8)
    ends[ends == 32] = 10  # the space after a row's last level becomes its newline
    fh.write("P2\n# wigner raster, 0 -> W=-2/pi, 255 -> W=+2/pi\n"
             f"# x_min={grid.x_min:.17g} x_max={grid.x_max:.17g}\n"
             f"# y_min={grid.y_min:.17g} y_max={grid.y_max:.17g}\n"
             f"{grid.nx} {grid.ny}\n255\n" + _ascii(cells))


#: count_lobes' blur, in phase-space units: fringes alternate sign on a
#: sub-unit scale and average away while the unit-wide lobes survive
LOBE_SMOOTH_SIGMA = 0.5
#: count_lobes' cut, as a fraction of the blurred raster's maximum
LOBE_REL_THRESHOLD = 0.25


def count_lobes(grid: WignerGrid) -> int:
    """Number of well-separated coherent lobes in a Wigner raster.

    Interference fringes between cat components peak as high as the lobes
    themselves, so W is first blurred with a Gaussian of LOBE_SMOOTH_SIGMA
    phase-space units. The kernel reaches scipy's default 4 sigma, but no
    further than the raster's own size, so a small window (sigma of many
    cells) costs no more than a wide one. A cell then counts as a lobe when
    it dominates its 8 neighbours and exceeds LOBE_REL_THRESHOLD times the
    smoothed maximum.
    """
    from scipy.ndimage import gaussian_filter

    dx = (grid.x_max - grid.x_min) / (grid.nx - 1)
    dy = (grid.y_max - grid.y_min) / (grid.ny - 1)
    sigma = (LOBE_SMOOTH_SIGMA / dy, LOBE_SMOOTH_SIGMA / dx)
    radius = tuple(min(int(4 * sd + 0.5), n) for sd, n in zip(sigma, grid.values.shape))
    a = gaussian_filter(grid.values, sigma=sigma, radius=radius)
    cut = LOBE_REL_THRESHOLD * float(np.max(a))
    ny, nx = a.shape
    # the 3x3 patch of every interior cell, as nine shifted views
    patch = [a[dj:ny - 2 + dj, di:nx - 2 + di] for dj in range(3) for di in range(3)]
    c = patch[4]
    is_peak = (c > cut) & (c >= np.max(patch, axis=0)) & (sum(p == c for p in patch) == 1)
    return int(np.count_nonzero(is_peak))
