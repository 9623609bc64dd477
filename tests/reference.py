"""Reference models the tests check the package against.

The Zeno-limit evolution, the dense ideal kick, a pure-state run of
conditioned dressed kicks, the displaced-circle topological-phase
identity, moments of the field, the Wigner function of a density matrix,
single Wigner values, a raster's integral and a state's guard-band
population. No run of the package calls them; they are the oracles of
criteria 2-4, 8, 9 and 13 and of the unit tests.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import expm

from zenocavity.atomkick import pulse_blocks
from zenocavity.fock import (
    DEFAULT_LEAK_TOL,
    GUARD_LEVELS,
    FieldState,
    annihilation_op,
    creation_op,
    displacement_op,
    mean_energy,
    photon_distribution,
)
from zenocavity.phasespace import WignerGrid, _raster, wigner_grid
from zenocavity.zeno import Schedule


@lru_cache(maxsize=None)
def number_op(dim: int) -> np.ndarray:
    mat = np.diag(np.arange(dim, dtype=np.float64)).astype(np.complex128)
    mat.flags.writeable = False
    return mat


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


def pure_parts(state_or_rho) -> list[tuple[float, np.ndarray]]:
    """A FieldState as its amplitudes of weight 1; a density matrix as its
    eigenvectors of weight (eigenvalue) above 1e-12."""
    if isinstance(state_or_rho, FieldState):
        return [(1.0, state_or_rho.amps)]
    w, v = np.linalg.eigh(np.asarray(state_or_rho, dtype=np.complex128))
    return [(float(w[k]), v[:, k]) for k in range(len(w)) if w[k] > 1e-12]


def wigner_point(state_or_rho, xi: complex) -> float:
    """W at a single phase-space point, summed over pure_parts."""
    xi = complex(xi)
    return float(sum(weight * _raster(vec, xi.real, 0.0, 1, xi.imag, xi.imag, 1)[0, 0]
                     for weight, vec in pure_parts(state_or_rho)))


def wigner_values(state_or_rho, bounds, nx: int, ny: int) -> np.ndarray:
    """wigner_grid's values, for a density matrix too: the weighted sum over
    pure_parts."""
    return sum(weight * wigner_grid(FieldState(vec), bounds, nx, ny).values
               for weight, vec in pure_parts(state_or_rho))


def wigner_integral(grid: WignerGrid) -> float:
    """Trapezoid-rule integral of W over the raster; 1 for a state inside it."""
    return float(np.trapezoid(np.trapezoid(grid.values, grid.xs, axis=1), grid.ys))


def drive_hamiltonian(drive_amp: complex, dim: int) -> np.ndarray:
    """Free drive H = -i(E^* a - E a^dag); D(E t) is its propagator."""
    e = complex(drive_amp)
    return -1j * (np.conj(e) * annihilation_op(dim) - e * creation_op(dim))


def effective_hamiltonian(drive_amp: complex, s: int, dim: int) -> np.ndarray:
    """Zeno-limit generator: the drive with every coupling through |s> removed.

    Equals P_below H P_below + P_above H P_above; since the drive only
    couples neighbouring levels this is H with row and column s zeroed.
    """
    if not 0 <= s < dim:
        raise IndexError(f"s={s} outside basis 0..{dim - 1}")
    h = drive_hamiltonian(drive_amp, dim)
    h[s, :] = 0.0
    h[:, s] = 0.0
    return h


def displacement(beta: complex, dim: int) -> np.ndarray:
    """exp(beta a+ - beta* a) on the truncated basis, by scipy.linalg.expm
    from a built here: no package kernel."""
    a = np.diag(np.sqrt(np.arange(1.0, dim)), k=1).astype(np.complex128)
    return expm(complex(beta) * a.conj().T - np.conj(complex(beta)) * a)


def ideal_kick(s: int, gamma: complex, dim: int) -> np.ndarray:
    """D(gamma) (1 - 2|s><s|) D(-gamma) as a dense matrix, D by expm: the
    ideal kick zeno_run applies, a rank-1 reflection. expm(0) is the exact
    identity, so a kick at the origin is the bare diagonal."""
    v = displacement(gamma, dim)[:, s]
    return np.eye(dim, dtype=np.complex128) - 2.0 * np.outer(v, v.conj())


def conditioned_run(state: FieldState, schedule: Schedule) -> FieldState:
    """A schedule of dressed kicks on a pure state, conditioned on the atom
    back in h after every kick: the drive, then per kick
    psi -> D(gamma) U_hh D(-gamma) psi, renormalised, with U_hh the h -> h
    entry of each pulse block."""
    dim = state.dim
    amps = state.amps
    for step in schedule.steps:
        amps = displacement(step.displacement, dim) @ amps
        for k in step.kicks:
            d = displacement(k.gamma, dim)
            amps = d @ (pulse_blocks(schedule.pulse, dim)[:, 0, 0] * (d.conj().T @ amps))
            amps = amps / np.linalg.norm(amps)
    return FieldState(amps)


def block_populations(state: FieldState, s: int) -> tuple[float, float, float]:
    """Populations (below s, at s, above s)."""
    p = photon_distribution(state)
    return float(p[:s].sum()), float(p[s]), float(p[s + 1:].sum())


@dataclass(frozen=True)
class TruncationReport:
    """Population found in the top guard levels of a state."""

    top_population: float
    ok: bool


def truncation_check(state: FieldState, leak_tol: float = DEFAULT_LEAK_TOL) -> TruncationReport:
    """Population in the top GUARD_LEVELS levels; ok iff below leak_tol."""
    if state.dim <= GUARD_LEVELS:
        raise ValueError(f"dim must exceed the {GUARD_LEVELS} guard levels")
    top = float(photon_distribution(state)[-GUARD_LEVELS:].sum())
    return TruncationReport(top_population=top, ok=top < leak_tol)


def zeno_limit_evolve(state: FieldState, drive_amp: complex, s: int, t: float) -> FieldState:
    """Evolve under exp(-i H_Z t); support stays in the initial block exactly.

    The state must start inside one block (below or above |s>) within
    DEFAULT_LEAK_TOL. The tiny off-block remainder is projected out so the
    output block support is exact.
    """
    below, at_s, above = block_populations(state, s)
    outside_lower = at_s + above
    outside_upper = at_s + below
    if min(outside_lower, outside_upper) > DEFAULT_LEAK_TOL:
        raise ValueError(
            f"initial support straddles |{s}>: populations below/at/above = "
            f"{below:.3e}/{at_s:.3e}/{above:.3e}"
        )
    in_lower = outside_lower <= DEFAULT_LEAK_TOL
    hz = effective_hamiltonian(drive_amp, s, state.dim)
    w, v = np.linalg.eigh(hz)
    amps = (v * np.exp(-1j * w * t)) @ (v.conj().T @ state.amps)
    mask = np.zeros(state.dim, dtype=bool)
    if in_lower:
        mask[:s] = True
    else:
        mask[s + 1:] = True
    amps = np.where(mask, amps, 0.0)
    return FieldState(amps)


def _well_truncated_block(dim: int, reach: float) -> int:
    """Largest n whose excursion by `reach` stays clear of the basis top.

    Inverts the truncation rule (sqrt(n) + reach)^2 + 6(sqrt(n) + reach)
    + 10 <= dim.
    """
    y = -3.0 + math.sqrt(dim - 1.0)
    if y <= reach:
        return 0
    return int(math.floor((y - reach) ** 2)) + 1


def topological_phase_identity_residual(
    s: int, gamma: complex, beta: complex, p: int, dim: int
) -> float:
    """Max deviation between the displaced-circle evolution and its conjugated form.

    Compares [U_s(gamma) D(beta)]^p against
    D(gamma) [U_s D(beta)]^p D(-gamma) exp(2ip Im(beta gamma^*)) on the
    sub-block of the basis whose excursions stay well inside the
    truncation; outside it the displacement group law itself breaks down.
    """
    gamma = complex(gamma)
    beta = complex(beta)
    if p < 0:
        raise ValueError("p must be non-negative")
    d_beta = displacement_op(beta, dim)
    lhs_step = ideal_kick(s, gamma, dim) @ d_beta
    rhs_step = ideal_kick(s, 0, dim) @ d_beta
    lhs = np.linalg.matrix_power(lhs_step, p)
    core = np.linalg.matrix_power(rhs_step, p)
    d_gamma = displacement_op(gamma, dim)
    phase = np.exp(2j * p * (beta * np.conj(gamma)).imag)
    rhs = d_gamma @ core @ d_gamma.conj().T * phase
    reach = abs(gamma) + p * abs(beta) + abs(beta)
    k = _well_truncated_block(dim, reach)
    if k < 1:
        raise ValueError(
            f"no well-truncated sub-block at dim={dim} for reach {reach:.2f}"
        )
    return float(np.max(np.abs(lhs[:k, :k] - rhs[:k, :k])))
