"""Matrix property checks the tests share; the package itself needs none."""

import numpy as np


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
