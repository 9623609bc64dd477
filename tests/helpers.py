"""Checks and oracles the tests share; the package itself needs none."""

import math

import numpy as np

from zenocavity.phasespace import W_MAX, _hermite_functions


def is_unitary(mat: np.ndarray, tol: float = 1e-10) -> bool:
    d = mat.shape[0]
    return bool(np.max(np.abs(mat.conj().T @ mat - np.eye(d))) < tol)


def is_hermitian(mat: np.ndarray, tol: float = 1e-12) -> bool:
    return bool(np.max(np.abs(mat - mat.conj().T)) < tol)


def check_density_matrix(
    rho: np.ndarray,
    herm_tol: float = 1e-10,
    trace_tol: float = 1e-9,
    positivity_tol: float = 1e-9,
) -> None:
    """Raise unless rho is Hermitian, unit trace and positive within tolerance."""
    if np.max(np.abs(rho - rho.conj().T)) > herm_tol:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > trace_tol:
        raise ValueError(f"trace {np.trace(rho).real!r} differs from 1")
    w = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    if w.min() < -positivity_tol:
        raise ValueError(f"negative eigenvalue {w.min():.3e}")


def full_range_raster(parts, x_min: float, x_step: float, nx: int, ys: np.ndarray) -> np.ndarray:
    """W by the complex trapezoid sum over the full u range, -K h .. K h.

    Same position grid, u spacing, stride split and band-limit rule as
    phasespace: the oracle of its real half-range kernel.
    """
    dim = len(parts[0][1])
    reach = math.sqrt(2.0 * dim + 1.0)
    h_max = math.pi / (2.0 * reach + 2.0 * math.sqrt(2.0) * float(np.max(np.abs(ys))))
    if nx > 1 and math.sqrt(2.0) * x_step < h_max:
        stride = math.ceil(h_max / (math.sqrt(2.0) * x_step))
        values = np.empty((len(ys), nx))
        for r in range(min(stride, nx)):
            values[:, r::stride] = full_range_raster(
                parts, x_min + r * x_step, stride * x_step, len(range(r, nx, stride)), ys
            )
        return values
    per_column = math.ceil(math.sqrt(2.0) * x_step / h_max) if nx > 1 else 1
    h = math.sqrt(2.0) * x_step / per_column if nx > 1 else h_max
    k_max = math.ceil((reach + 7.0) / h)
    offsets = np.arange(-k_max, k_max + 1)
    samples = math.sqrt(2.0) * x_min + h * np.arange(-k_max, (nx - 1) * per_column + k_max + 1)
    table = _hermite_functions(dim, samples)
    plus = per_column * np.arange(nx)[:, None] + k_max + offsets
    minus = plus[:, ::-1]
    integrand = np.zeros(plus.shape, dtype=np.complex128)
    for weight, vec in parts:
        psi = vec @ table
        integrand += weight * psi[plus].conj() * psi[minus]
    kernel = h * np.exp(2j * math.sqrt(2.0) * np.outer(ys, h * offsets))
    return W_MAX * (kernel @ integrand.T).real
