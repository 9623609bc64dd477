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

_LEVELS = [str(v) for v in range(256)]  # PGM grey levels as text


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


def export_csv(grid: WignerGrid, fh: IO[str]) -> None:
    """Rows `x,y,w`, row-major over the raster, 17 significant digits.

    The x texts are formatted once per raster. Each raster row (one y)
    joins them into one printf template, `x_0,y,%.17g\nx_1,y,%.17g\n...`,
    and fills in its w values with one `%`. Written a row at a time, so
    the text held in memory is one row's, not the raster's."""
    xs = [f"{x:.17g}" for x in grid.xs.tolist()]
    fh.write("x,y,w\n")
    for y, row in zip(grid.ys.tolist(), grid.values):
        sep = f",{y:.17g},%.17g\n"
        fh.write((sep.join(xs) + sep) % tuple(row.tolist()))


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
    fh.write("P2\n")
    fh.write("# wigner raster, 0 -> W=-2/pi, 255 -> W=+2/pi\n")
    fh.write(f"# x_min={grid.x_min:.17g} x_max={grid.x_max:.17g}\n")
    fh.write(f"# y_min={grid.y_min:.17g} y_max={grid.y_max:.17g}\n")
    fh.write(f"{grid.nx} {grid.ny}\n255\n")
    fh.write("".join(" ".join([_LEVELS[v] for v in row]) + "\n" for row in levels[::-1].tolist()))


def count_lobes(
    grid: WignerGrid, rel_threshold: float = 0.25, smooth_sigma: float = 0.5
) -> int:
    """Number of well-separated coherent lobes in a Wigner raster.

    Interference fringes between cat components peak as high as the lobes
    themselves, so W is first blurred with a Gaussian of smooth_sigma
    phase-space units: fringes alternate sign on a sub-unit scale and
    average away while the unit-wide lobes survive. The kernel reaches
    scipy's default 4 sigma, but no further than the raster's own size, so
    a small window (sigma of many cells) costs no more than a wide one. A
    cell then counts as a lobe when it dominates its 8 neighbours and
    exceeds rel_threshold times the smoothed maximum.
    """
    from scipy.ndimage import gaussian_filter

    dx = (grid.x_max - grid.x_min) / (grid.nx - 1)
    dy = (grid.y_max - grid.y_min) / (grid.ny - 1)
    sigma = (smooth_sigma / dy, smooth_sigma / dx)
    radius = tuple(min(int(4 * sd + 0.5), n) for sd, n in zip(sigma, grid.values.shape))
    a = gaussian_filter(grid.values, sigma=sigma, radius=radius)
    cut = rel_threshold * float(np.max(a))
    ny, nx = a.shape
    # the 3x3 patch of every interior cell, as nine shifted views
    patch = [a[dj:ny - 2 + dj, di:nx - 2 + di] for dj in range(3) for di in range(3)]
    c = patch[4]
    is_peak = (c > cut) & (c >= np.max(patch, axis=0)) & (sum(p == c for p in patch) == 1)
    return int(np.count_nonzero(is_peak))
