"""Truncated Fock-space core: states, operators, displacement algebra.

The cavity field lives on the basis |0>..|dim-1>. Pure states are
normalized complex amplitude vectors (FieldState); operators are plain
dense complex ndarrays of shape (dim, dim). Dense displacements are the
matrix exponential of the truncated generator, unitary there to machine
precision. One displaced number state D(gamma)|n> (a coherent state for
n = 0, an ideal kick's vector) comes from its closed Laguerre form instead.

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
#: the guard band: the top levels of the basis whose population is the leak
GUARD_LEVELS = 3

_NORM_TOL = 1e-12


class TruncationError(ValueError):
    """Raised when the requested state does not fit the truncated basis."""


@dataclass(frozen=True)
class FieldState:
    """Pure cavity state: normalized amplitudes over |0>..|dim-1>."""

    amps: np.ndarray
    dim: int = field(init=False)  # amps.size

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


def required_dim(alpha_max: complex | float) -> float:
    """|a|^2 + 6|a| + 10 for a = alpha_max: the truncation rule, a Poisson-tail
    bound with safety margin, holds for dim >= this. A float, inf where
    |a|^2 overflows; |a| comes from math.hypot, so no part overflows alone."""
    z = complex(alpha_max)
    a = math.hypot(z.real, z.imag)
    return a * a + 6.0 * a + 10.0


def check_fits(z: complex | float, dim: int) -> None:
    """The truncation rule for a coherent amplitude or kick centre z, required_dim(z)
    <= dim, else TruncationError; the constructors and the config both call it."""
    a = math.hypot(z.real, z.imag)  # abs(z) raises where |z| overflows
    if not (need := required_dim(a)) <= dim:
        raise TruncationError(f"|z| = {a:.6g} needs dim >= |z|^2 + 6|z| + 10 = {need:.6g}, "
                              f"got dim={dim}")


def check_guard_band(s: int, dim: int) -> None:
    """A kick at photon number s >= 0 stays below the guard band, the top
    GUARD_LEVELS levels, else ValueError; zeno_run and the config both call it."""
    if s < 0:
        raise ValueError(f"kick at s={s}: photon numbers are non-negative")
    if s >= dim - GUARD_LEVELS:
        raise ValueError(f"kick at s={s} reaches the guard band, the top {GUARD_LEVELS} "
                         f"levels of dim={dim}")


def fock_basis(n: int, dim: int) -> FieldState:
    """Number state |n> on a dim-level basis."""
    if not 0 <= n < dim:
        raise IndexError(f"Fock index {n} outside basis 0..{dim - 1}")
    amps = np.zeros(dim, dtype=np.complex128)
    amps[n] = 1.0
    return FieldState(amps)


def vacuum(dim: int) -> FieldState:
    return fock_basis(0, dim)


@lru_cache(maxsize=None)
def _log_factorial(dim: int) -> np.ndarray:
    # log(k!) for k < dim; log space keeps k! usable above k ~ 170
    out = np.array([math.lgamma(k + 1.0) for k in range(dim)])
    out.flags.writeable = False
    return out


def _fock_column(n: int, gammas: np.ndarray | list[complex], dim: int) -> np.ndarray:
    """<m|D(gamma)|n> for m < dim, one row per centre of the 1-d gammas, not
    renormalized (Cahill & Glauber 1969):
    sqrt(lo!/hi!) z^(hi-lo) e^(-|gamma|^2/2) L_lo^(hi-lo)(|gamma|^2) with
    lo, hi = min, max(m, n) and z = gamma for m >= n, -gamma^* for m < n.
    |gamma|^2 and log|gamma| come from Python's abs and math.log per centre,
    which keeps coherent's n = 0 row bit for bit; gamma = 0 gives |n>."""
    if not 0 <= n < dim:
        raise IndexError(f"Fock index {n} outside basis 0..{dim - 1}")
    gs = [complex(c) for c in gammas]
    g = np.array(gs, dtype=np.complex128)[:, None]
    x = np.array([abs(c) ** 2 for c in gs])[:, None]
    log_abs = np.array([math.log(abs(c)) if c else 0.0 for c in gs])[:, None]
    m = np.arange(dim)
    k = np.abs(m - n)
    lf = _log_factorial(dim)
    half_log_ratio = 0.5 * (lf[np.minimum(m, n)] - lf[np.maximum(m, n)])
    log_mag = k * log_abs + half_log_ratio - 0.5 * x
    phase = np.exp(1j * k * np.where(m >= n, np.angle(g), np.angle(-g.conj())))
    # Laguerre recurrence in the degree; entries j < n stop at degree j, m >= n at n
    lag, prev, low = np.ones((len(gs), dim)), np.zeros((len(gs), dim)), np.empty((len(gs), n))
    for j in range(n):
        low[:, j] = lag[:, j]
        lag, prev = ((2 * j + 1 + k - x) * lag - (j + k) * prev) / (j + 1), lag
    lag[:, :n] = low
    out = np.exp(log_mag) * lag * phase
    out[g[:, 0] == 0] = np.eye(1, dim, n, dtype=np.complex128)
    return out


def _coherent_rows(alphas: list[complex], dim: int) -> np.ndarray:
    """One n = 0 column per amplitude, each held to the truncation rule."""
    if dim < 2:
        raise ValueError("dim must be >= 2")
    for alpha in alphas:
        check_fits(alpha, dim)
    # amps[n] = alpha^n / sqrt(n!) * e^{-|alpha|^2/2}
    return _fock_column(0, alphas, dim)


def coherent(alpha: complex, dim: int) -> FieldState:
    """Coherent state |alpha>, renormalized over the truncated basis.

    The truncation rule |alpha|^2 + 6|alpha| + 10 <= dim is required (else
    TruncationError), which keeps the discarded Poisson tail below ~1e-12
    in population.
    """
    return FieldState(_coherent_rows([alpha], dim)[0])


def cat_state(alpha: complex, phase: complex, dim: int) -> FieldState:
    """Normalized (|alpha> + phase * |-alpha>), |phase| = 1; each lobe is coherent's."""
    if abs(abs(phase) - 1.0) > 1e-9:
        raise ValueError("cat relative phase must lie on the unit circle")
    plus, minus = (FieldState(row).amps for row in _coherent_rows([alpha, -alpha], dim))
    return FieldState(plus + complex(phase) * minus)


def annihilation_op(dim: int) -> np.ndarray:
    """a with a|n> = sqrt(n)|n-1>."""
    if dim < 2:
        raise ValueError("dim must be >= 2")
    return np.diag(np.sqrt(np.arange(1, dim, dtype=np.float64)), k=1).astype(np.complex128)


def creation_op(dim: int) -> np.ndarray:
    return annihilation_op(dim).conj().T


@lru_cache(maxsize=32)
def displacement_op(beta: complex, dim: int) -> np.ndarray:
    """D(beta) = exp(beta a^dag - beta^* a) on the truncated basis.

    Built by diagonalizing the Hermitian generator i(beta a^dag - beta^* a),
    so the result is unitary to machine precision (a Pade expm is not),
    which dressed kicks rely on. Ideal kicks take displaced_fock rows instead.

    The LRU cache keeps at most 32 matrices of 16 dim^2 bytes (1.6 MB at dim 80,
    34 MB at dim 256). It has to hold what one run reuses: zeno_run looks up its
    drive once per chunk, and a realistic run takes its 2 * waypoints_per_component
    dressed-kick centres from it at every angle of its theta grid. So it holds a
    realistic run of up to 16 waypoints per component; above that, LRU cycling
    rebuilds every centre at every angle. A sweep draws a new drive per point,
    which only that point reuses, so the cap is what bounds its memory.
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


def displaced_fock(n: int, gammas: complex | np.ndarray, dim: int) -> np.ndarray:
    """D(gamma)|n>, unit norm: the vector an ideal kick at gamma reflects. It is
    the untruncated column cut at dim and renormalized, where displacement_op
    gives the truncated generator's column (README, Conventions). A 1-d array
    of centres gives one row per centre, each equal to its scalar call."""
    cols = _fock_column(n, np.atleast_1d(gammas), dim)
    # each row's np.linalg.norm bit for bit (strided re.re + im.im); norm(axis=1) is not
    parts = cols.view(np.float64).reshape(*cols.shape, 2)
    re, im = parts[:, None, :, 0], parts[:, None, :, 1]
    cols /= np.sqrt(re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1))[:, :, 0]
    return cols if np.ndim(gammas) else cols[0]


def photon_distribution(state: FieldState) -> np.ndarray:
    """p[n] = |amps[n]|^2."""
    return np.abs(state.amps) ** 2


def mean_energy(state: FieldState) -> float:
    """<n> in photons."""
    return float(np.arange(state.dim) @ photon_distribution(state))


def fidelity_pure(a: FieldState, b: FieldState) -> float:
    """|<a|b>|^2."""
    ov = a.overlap(b)
    return float(min(abs(ov) ** 2, 1.0))
