"""Wigner-function evaluation and raster export.

Convention: W(xi) = (2/pi) Tr[rho D(xi) P D(-xi)] with P the photon-number
parity operator, so W is real, bounded by +-2/pi, and a coherent state
|alpha> peaks at xi = alpha with W = 2/pi. Grayscale exports map
[-2/pi, 2/pi] linearly onto [0, 255]; figures therefore depend on this
convention and it is fixed here once.

Evaluation uses the position representation, with q = sqrt(2) Re xi and
p = sqrt(2) Im xi:

    W(xi) = (2/pi) Int conj(psi(q + u)) psi(q - u) exp(2ipu) du

(Hillery, O'Connell, Scully & Wigner, Phys. Rep. 106, 121 (1984)), summed
over the eigenvectors of a density matrix. psi(q) = sum_n c_n phi_n(q) is
built from the normalised Hermite functions phi_n, so the value is exact
for the truncated state wherever it is evaluated: nothing is displaced and
no basis is padded. The integrand is band-limited by the basis size and
the window, so the trapezoid rule on a fine enough u grid converges to
machine precision. The u spacing divides sqrt(2) dx, hence every q +- u of
a raster lies on one sampled position grid and a whole raster is one
gather and one matrix product.
"""

from __future__ import annotations

import math
import operator
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


def _raster(
    parts: list[tuple[float, np.ndarray]],
    x_min: float,
    x_step: float,
    nx: int,
    ys: np.ndarray,
) -> np.ndarray:
    """values[j, i] = W(x_min + i x_step + 1j ys[j]) of the weighted parts.

    |psi(q)| and its spectrum both fade beyond sqrt(2 dim + 1), so the
    integrand lives on |u| < sqrt(2 dim + 1) + 7 and its frequencies stay
    below 2 sqrt(2 dim + 1) + 2 sqrt(2) |y|. The trapezoid rule of spacing
    h is exact to rounding while 2 pi / h, the first frequency it aliases
    onto zero, is at least twice that band edge.
    """
    dim = len(parts[0][1])
    reach = math.sqrt(2.0 * dim + 1.0)
    h_max = math.pi / (2.0 * reach + 2.0 * _SQRT2 * float(np.max(np.abs(ys))))
    if nx > 1 and _SQRT2 * x_step < h_max:
        # columns closer than h: evaluate interleaved sub-rasters whose
        # spacing clears h, so the sampled grid stays O(reach / h) long
        stride = math.ceil(h_max / (_SQRT2 * x_step))
        values = np.empty((len(ys), nx))
        for r in range(min(stride, nx)):
            values[:, r::stride] = _raster(
                parts, x_min + r * x_step, stride * x_step, len(range(r, nx, stride)), ys
            )
        return values
    per_column = math.ceil(_SQRT2 * x_step / h_max) if nx > 1 else 1
    h = _SQRT2 * x_step / per_column if nx > 1 else h_max
    k_max = math.ceil((reach + 7.0) / h)
    offsets = np.arange(-k_max, k_max + 1)
    # sample m sits at sqrt(2) x_min + (m - k_max) h; column i at m = i * per_column + k_max
    samples = _SQRT2 * x_min + h * np.arange(-k_max, (nx - 1) * per_column + k_max + 1)
    table = _hermite_functions(dim, samples)
    plus = per_column * np.arange(nx)[:, None] + k_max + offsets  # q_i + u_k
    minus = plus[:, ::-1]  # q_i - u_k
    integrand = np.zeros(plus.shape, dtype=np.complex128)
    for weight, vec in parts:
        psi = vec @ table
        integrand += weight * psi[plus].conj() * psi[minus]
    kernel = h * np.exp(2j * _SQRT2 * np.outer(ys, h * offsets))
    return W_MAX * (kernel @ integrand.T).real


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

    def integral(self) -> float:
        """Trapezoid-rule integral of W over the grid."""
        return float(np.trapezoid(np.trapezoid(self.values, self.xs, axis=1), self.ys))


def _state_vectors(state_or_rho) -> list[tuple[float, np.ndarray]]:
    """Decompose the argument into weighted pure-state vectors."""
    if isinstance(state_or_rho, FieldState):
        return [(1.0, state_or_rho.amps)]
    rho = np.asarray(state_or_rho, dtype=np.complex128)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("expected a FieldState or a square density matrix")
    w, v = np.linalg.eigh(rho)
    return [(float(w[k]), v[:, k]) for k in range(len(w)) if w[k] > 1e-12]


def wigner_point(state_or_rho, xi: complex) -> float:
    """W at a single phase-space point."""
    xi = complex(xi)
    values = _raster(_state_vectors(state_or_rho), xi.real, 0.0, 1, np.array([xi.imag]))
    return float(values[0, 0])


def wigner_grid(
    state_or_rho,
    bounds: tuple[float, float, float, float],
    nx: int = 121,
    ny: int = 121,
) -> WignerGrid:
    """Raster W over bounds = (x_min, x_max, y_min, y_max)."""
    x_min, x_max, y_min, y_max = (float(b) for b in bounds)
    # the grid checks its bounds and sizes before anything is evaluated
    grid = WignerGrid(
        x_min=x_min, x_max=x_max, y_min=y_min, y_max=y_max, nx=nx, ny=ny,
        values=np.empty((ny, nx)),
    )
    grid.values[:] = _raster(
        _state_vectors(state_or_rho), x_min, (x_max - x_min) / (nx - 1), nx, grid.ys
    )
    return grid


def export_csv(grid: WignerGrid, fh: IO[str]) -> None:
    """Rows `x,y,w`, row-major over the raster, 17 significant digits."""
    xs = [f"{x:.17g}," for x in grid.xs.tolist()]
    ys = [f"{y:.17g}," for y in grid.ys.tolist()]
    keys = [x + y for y in ys for x in xs]
    ws = map("{:.17g}\n".format, grid.values.ravel().tolist())
    fh.write("x,y,w\n" + "".join(map(operator.add, keys, ws)))


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
    fh.write("".join(" ".join(map(str, row)) + "\n" for row in levels[::-1].tolist()))


def count_lobes(
    grid: WignerGrid, rel_threshold: float = 0.25, smooth_sigma: float = 0.5
) -> int:
    """Number of well-separated coherent lobes in a Wigner raster.

    Interference fringes between cat components peak as high as the lobes
    themselves, so W is first blurred with a Gaussian of smooth_sigma
    phase-space units: fringes alternate sign on a sub-unit scale and
    average away while the unit-wide lobes survive. A cell then counts as
    a lobe when it dominates its 8 neighbours and exceeds rel_threshold
    times the smoothed maximum.
    """
    from scipy.ndimage import gaussian_filter

    dx = (grid.x_max - grid.x_min) / (grid.nx - 1)
    dy = (grid.y_max - grid.y_min) / (grid.ny - 1)
    a = gaussian_filter(grid.values, sigma=(smooth_sigma / dy, smooth_sigma / dx))
    cut = rel_threshold * float(np.max(a))
    ny, nx = a.shape
    # the 3x3 patch of every interior cell, as nine shifted views
    patch = [a[dj:ny - 2 + dj, di:nx - 2 + di] for dj in range(3) for di in range(3)]
    c = patch[4]
    is_peak = (c > cut) & (c >= np.max(patch, axis=0)) & (sum(p == c for p in patch) == 1)
    return int(np.count_nonzero(is_peak))
