"""Truncated Fock-space core: states, operators, displacement algebra.

The cavity field lives on the basis |0>..|dim-1>. Pure states are
normalized complex amplitude vectors (FieldState); operators are plain
dense complex ndarrays of shape (dim, dim). Displacements are built as a
true matrix exponential of the truncated generator so they are unitary on
the truncated space to machine precision, which keeps conjugated kick
operators exactly unitary.

Global phase carries no meaning here: states are compared via fidelity
only, no phase canonicalization is applied anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

#: population allowed in the top guard levels before a state is considered
#: clipped by the truncation
DEFAULT_LEAK_TOL = 1e-6
DEFAULT_GUARD_LEVELS = 3

_NORM_TOL = 1e-12


class TruncationError(ValueError):
    """Raised when the requested state does not fit the truncated basis."""


@dataclass(frozen=True)
class FieldState:
    """Pure cavity state: normalized amplitudes over |0>..|dim-1>."""

    amps: np.ndarray
    dim: int = field(default=0)

    def __post_init__(self):
        # detach from the caller's buffer before freezing
        amps = np.array(self.amps, dtype=np.complex128, copy=True)
        if amps.ndim != 1 or amps.size < 2:
            raise ValueError("state vector must be 1-d with dim >= 2")
        nrm = np.linalg.norm(amps)
        if nrm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        if abs(nrm - 1.0) > _NORM_TOL:
            amps /= nrm
        amps.flags.writeable = False
        object.__setattr__(self, "amps", amps)
        object.__setattr__(self, "dim", amps.size)

    def overlap(self, other: "FieldState") -> complex:
        """<self|other>."""
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return complex(np.vdot(self.amps, other.amps))


@dataclass(frozen=True)
class TruncationReport:
    """Population found in the top guard levels of a state."""

    top_population: float
    guard_levels: int
    ok: bool


def required_dim(alpha_max: complex | float) -> int:
    """Smallest dim passing the truncation rule for amplitudes up to alpha_max.

    Rule: dim >= |a|^2 + 6|a| + 10, a Poisson-tail bound with safety margin.
    """
    a = abs(alpha_max)
    return int(math.ceil(a * a + 6.0 * a + 10.0))


def fock_basis(n: int, dim: int) -> FieldState:
    """Number state |n> on a dim-level basis."""
    if not 0 <= n < dim:
        raise IndexError(f"Fock index {n} outside basis 0..{dim - 1}")
    amps = np.zeros(dim, dtype=np.complex128)
    amps[n] = 1.0
    return FieldState(amps)


def vacuum(dim: int) -> FieldState:
    return fock_basis(0, dim)


def _log_factorial(n: np.ndarray) -> np.ndarray:
    # log space keeps n! usable above n ~ 170
    return np.array([math.lgamma(k + 1.0) for k in n])


def coherent(alpha: complex, dim: int, enforce_truncation: bool = True) -> FieldState:
    """Coherent state |alpha>, renormalized over the truncated basis.

    With enforce_truncation the rule |alpha|^2 + 6|alpha| + 10 <= dim is
    required, which keeps the discarded Poisson tail below ~1e-12 in
    population. Pass False only to build deliberately clipped states (e.g.
    to exercise truncation_check).
    """
    if dim < 2:
        raise ValueError("dim must be >= 2")
    if enforce_truncation and required_dim(alpha) > dim:
        raise TruncationError(
            f"coherent amplitude {alpha} needs dim >= {required_dim(alpha)}, got {dim}"
        )
    alpha = complex(alpha)
    n = np.arange(dim)
    if alpha == 0:
        return fock_basis(0, dim)
    # amps[n] = alpha^n / sqrt(n!) * e^{-|alpha|^2/2}, evaluated in log space
    log_mag = n * math.log(abs(alpha)) - 0.5 * _log_factorial(n) - 0.5 * abs(alpha) ** 2
    phase = np.exp(1j * n * np.angle(alpha))
    amps = np.exp(log_mag) * phase
    return FieldState(amps)


def cat_state(
    alpha: complex, phase: complex, dim: int, enforce_truncation: bool = True
) -> FieldState:
    """Normalized (|alpha> + phase * |-alpha>), |phase| = 1."""
    if abs(abs(phase) - 1.0) > 1e-9:
        raise ValueError("cat relative phase must lie on the unit circle")
    plus = coherent(alpha, dim, enforce_truncation)
    minus = coherent(-alpha, dim, enforce_truncation)
    return FieldState(plus.amps + complex(phase) * minus.amps)


@lru_cache(maxsize=None)
def annihilation_op(dim: int) -> np.ndarray:
    """a with a|n> = sqrt(n)|n-1>."""
    if dim < 2:
        raise ValueError("dim must be >= 2")
    mat = np.diag(np.sqrt(np.arange(1, dim, dtype=np.float64)), k=1).astype(np.complex128)
    mat.flags.writeable = False
    return mat


def creation_op(dim: int) -> np.ndarray:
    return annihilation_op(dim).conj().T


@lru_cache(maxsize=None)
def number_op(dim: int) -> np.ndarray:
    mat = np.diag(np.arange(dim, dtype=np.float64)).astype(np.complex128)
    mat.flags.writeable = False
    return mat


@lru_cache(maxsize=256)
def displacement_op(beta: complex, dim: int) -> np.ndarray:
    """D(beta) = exp(beta a^dag - beta^* a) on the truncated basis.

    Built by diagonalizing the Hermitian generator i(beta a^dag - beta^* a),
    so the result is unitary to machine precision (a Pade expm is not),
    which the conjugated kicks rely on. Cached for the drive displacement a
    schedule reuses; kept small as kick centres rarely repeat (100 kB each at dim 80).
    """
    if dim < 2:
        raise ValueError("dim must be >= 2")
    beta = complex(beta)
    if beta == 0:
        mat = np.eye(dim, dtype=np.complex128)
    else:
        gen = beta * creation_op(dim) - np.conj(beta) * annihilation_op(dim)
        herm = 1j * gen
        w, v = np.linalg.eigh(herm)
        mat = (v * np.exp(-1j * w)) @ v.conj().T
    mat.flags.writeable = False
    return mat


def displaced_fock(n: int, gamma: complex, dim: int) -> FieldState:
    """D(gamma)|n>: the eigenvector singled out by a displaced kick."""
    return FieldState(displacement_op(complex(gamma), dim)[:, n])


def photon_distribution(state: FieldState) -> np.ndarray:
    """p[n] = |amps[n]|^2."""
    return np.abs(state.amps) ** 2


def mean_energy(state: FieldState) -> float:
    """<n> in photons."""
    return float(np.arange(state.dim) @ photon_distribution(state))


def mean_amplitude(state: FieldState) -> complex:
    """<a>, the phase-space centroid."""
    return complex(np.vdot(state.amps, annihilation_op(state.dim) @ state.amps))


def min_quadrature_variance(state: FieldState) -> float:
    """Smallest variance of X_phi = (a e^{-i phi} + a^dag e^{i phi})/2 over phi.

    Vacuum gives 1/4; smaller values mean squeezing. Closed form from the
    first and second moments of a.
    """
    a = annihilation_op(state.dim)
    psi = state.amps
    ea = np.vdot(psi, a @ psi)
    ea2 = np.vdot(psi, a @ (a @ psi))
    en = mean_energy(state)
    var_sym = 1.0 + 2.0 * (en - abs(ea) ** 2)
    return float((var_sym - 2.0 * abs(ea2 - ea * ea)) / 4.0)


def fidelity_pure(a: FieldState, b: FieldState) -> float:
    """|<a|b>|^2."""
    ov = a.overlap(b)
    return float(min(abs(ov) ** 2, 1.0))


def truncation_check(
    state: FieldState,
    guard_levels: int = DEFAULT_GUARD_LEVELS,
    leak_tol: float = DEFAULT_LEAK_TOL,
) -> TruncationReport:
    """Population in the top guard_levels levels; ok iff below leak_tol."""
    if not 0 < guard_levels < state.dim:
        raise ValueError("guard_levels must lie in 1..dim-1")
    top = float(photon_distribution(state)[state.dim - guard_levels:].sum())
    return TruncationReport(top_population=top, guard_levels=guard_levels, ok=top < leak_tol)


def is_unitary(mat: np.ndarray, tol: float = 1e-10) -> bool:
    d = mat.shape[0]
    return bool(np.max(np.abs(mat.conj().T @ mat - np.eye(d))) < tol)


def is_hermitian(mat: np.ndarray, tol: float = 1e-12) -> bool:
    return bool(np.max(np.abs(mat - mat.conj().T)) < tol)
