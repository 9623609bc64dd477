"""Mixed-state evolution under cavity damping for realistic runs.

Density matrices evolve under the damped-cavity master equation

    drho/dt = (1/T_c)(1 + n_th)(a rho a+ - {a+a, rho}/2)
            + (n_th/T_c)(a+ rho a - {a a+, rho}/2),

with H = 0, solved exactly. Damping keeps the offset d = m - k of each
element rho[m, k], so exp(L t) splits into one small real block per
offset (Walls & Milburn, Quantum Optics, ch. 6). lindblad_rhs, the
generator, is the propagator's test oracle.

Damped runs execute the engine's zeno.Schedule with the drive off, as a
tweezer moves its kick centre rather than the field: a step that
displaces the field is refused. Interrogation pulses take real time
(their duration dominates a realistic run). A kick inside a damped
segment is split symmetrically: damping runs for the full pulse duration
while the conditioned kick map, displaced_kick's dense matrix, is applied
instantaneously at the pulse midpoint; the splitting error is second
order in (pulse duration / T_c).

A damped run keeps its diagnostics in one record array, as zeno_run's
trace does; the runner writes both out.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .atomkick import PulseParams, conditioned_field_diagonal
from .fock import GUARD_LEVELS, FieldState, displacement_op
from .zeno import Schedule

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class LindbladParams:
    """Damped-cavity model: energy decay time t_c (s), thermal occupancy n_th."""

    t_c: float
    n_th: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.t_c) and self.t_c > 0):
            raise ValueError("t_c must be finite and positive")
        if not (math.isfinite(self.n_th) and self.n_th >= 0):
            raise ValueError("n_th must be finite and non-negative")


def pure_density(state: FieldState) -> np.ndarray:
    return np.outer(state.amps, state.amps.conj())


def lindblad_rhs(rho: np.ndarray, params: LindbladParams) -> np.ndarray:
    """Generator of the master equation; traceless, Hermiticity-preserving.

    The damping terms (1+n_th)/T_c D[a] rho + n_th/T_c D[a+] rho act by
    index shifts. No run calls it: it is the block propagator's oracle.
    """
    dim = rho.shape[0]
    n = np.arange(dim, dtype=np.float64)
    rate_down = (1.0 + params.n_th) / params.t_c
    out = np.zeros_like(rho)
    # a rho a+ : rho[m+1, k+1] * sqrt((m+1)(k+1))
    w = np.sqrt(np.outer(n[1:], n[1:]))
    out[:-1, :-1] += rate_down * w * rho[1:, 1:]
    out -= rate_down * 0.5 * (n[:, None] + n[None, :]) * rho
    if params.n_th > 0:
        rate_up = params.n_th / params.t_c
        out[1:, 1:] += rate_up * w * rho[:-1, :-1]
        # truncated a a+ has an empty top level; keeps the generator traceless
        nn1 = n + 1.0
        nn1[-1] = 0.0
        out -= rate_up * 0.5 * (nn1[:, None] + nn1[None, :]) * rho
    return out


@lru_cache(maxsize=2)
def _damping_propagator(dim: int, decays: float, n_th: float) -> np.ndarray:
    """exp(L t), decays = t / T_c, as real blocks [d, i, j]: x_j = rho[j, j + d] -> x_i.

    Terms as in lindblad_rhs, built for all d at once in place, each block
    then replaced by its expm; two entries, as a run reuses one or two lengths.
    """
    from scipy.linalg import expm

    i = np.arange(dim)
    d = i[:, None]
    nu = np.append(np.arange(1.0, dim), np.zeros(dim))  # diagonal of the truncated a a+, padded
    hop = np.sqrt(i[1:] * (i[1:] + d))
    prop = np.zeros((dim, dim, dim))
    # += onto zeros: a zero diagonal entry reads +0.0 whatever its sign
    prop[:, i, i] += -(1.0 + n_th) * (2 * i + d) / 2.0 - n_th * (nu[i] + nu[i + d]) / 2.0
    prop[:, i[:-1], i[1:]] = (1.0 + n_th) * hop
    prop[:, i[1:], i[:-1]] = n_th * hop
    for d in range(dim):
        block = expm(decays * prop[d, : dim - d, : dim - d])
        prop[d] = 0.0  # the padding too
        prop[d, : dim - d, : dim - d] = block
    return prop


@lru_cache(maxsize=4)
def _damp_layout(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only flat indices: x.put(dst, rho.take(src)) sets x[d, i] to (rho[i, i + d],
    rho[i + d, i]), x of shape (dim, dim, 2). The first dim pairs are x[0, i, 0]."""
    d, i = np.nonzero(np.add.outer(np.arange(dim), np.arange(dim)) < dim)
    src = np.concatenate([i * dim + i + d, (i + d) * dim + i])
    dst = np.concatenate([2 * (d * dim + i), 2 * (d * dim + i) + 1])
    src.flags.writeable = dst.flags.writeable = False
    return src, dst


def _damp(rho: np.ndarray, decays: float, n_th: float) -> np.ndarray:
    """exp(L t) rho. L is symmetric in (m, k): rho[i + d, i] evolves under
    the block of rho[i, i + d]."""
    dim = rho.shape[0]
    src, dst = _damp_layout(dim)
    x = np.zeros((dim, dim, 2), dtype=np.complex128)
    x.put(dst, rho.take(src))
    # real blocks act on the real and imaginary parts side by side
    y = (_damping_propagator(dim, decays, n_th) @ x.view(np.float64)).view(np.complex128)
    out = np.empty((dim, dim), dtype=np.complex128)
    out.put(src[dim:], y.take(dst[dim:]))  # the diagonal from its [0, i, 1] copy
    return out


def evolve_damped(
    rho: np.ndarray, duration: float, params: LindbladParams | None
) -> np.ndarray:
    """Exact master-equation evolution for `duration` seconds; params None
    means no damping, and rho comes back unchanged."""
    if not (math.isfinite(duration) and duration >= 0):
        raise ValueError("duration must be finite and non-negative")
    return rho if params is None else _damp(rho, duration / params.t_c, params.n_th)


def displaced_kick(gamma: complex, pulse: PulseParams, dim: int) -> np.ndarray:
    """The kick evolve_master applies at gamma, dressed by pulse, as a dense
    matrix: the conditioned diagonal K conjugated, D(gamma) K D(-gamma), a
    contraction, not unitary. D(0) is the exact identity, so a kick at the origin is K."""
    if pulse is None:
        raise ValueError("displaced_kick needs pulse parameters")
    if pulse.s >= dim:
        raise IndexError(f"kick index {pulse.s} outside basis 0..{dim - 1}")
    d = displacement_op(gamma, dim)
    return (d * conditioned_field_diagonal(pulse, dim)) @ d.conj().T


#: most negative eigenvalue evolve_master takes for accumulated rounding
POSITIVITY_TOL = 1e-6

_RECORD = np.dtype([(name, np.float64) for name in
                    ("t_seconds", "energy", "purity", "fidelity_vs_target", "trace_err", "leak")])


@dataclass(frozen=True)
class MasterTrace:
    """Diagnostics of a damped run. records has one row at step 0 and one
    after every step, with the float64 fields of _RECORD (fidelity_vs_target
    is nan without a target; leak is the population of the top
    GUARD_LEVELS levels); total_kick_leak sums the kicks' leaks 1 - p."""

    records: np.recarray
    total_kick_leak: float


def evolve_master(
    rho: np.ndarray,
    schedule: Schedule,
    params: LindbladParams | None,
    target: FieldState | None = None,
) -> tuple[np.ndarray, MasterTrace]:
    """Run an engine schedule on a density matrix under cavity damping.

    params None runs it undamped. The drive stays off: a step that
    displaces the field is refused. A schedule with kicks must carry a
    pulse, every kick sits at its s and lasts its duration; center moves
    are pulse retunings and take no cavity time. Kicks act as the
    conditioned completely positive branch (atom back in h):
    rho -> K rho K+ / p with the leak 1 - p accumulated in the trace;
    damping runs for the pulse duration around the midpoint split. After
    every step a Cholesky factorisation of rho + POSITIVITY_TOL * I checks
    positivity: where it fails, an eigenvalue lies below -POSITIVITY_TOL,
    more than accumulated rounding, and the run aborts naming the smallest
    eigenvalue; a factor whose last pivot is not finite (a NaN in rho)
    aborts it too. rho itself is left as it is. Row k of the preallocated
    records is filled after step k; the trace is built once, at the end.
    """
    pulse = schedule.pulse
    for step in schedule.steps:
        if step.displacement != 0:
            raise ValueError(f"damped runs take no drive steps, got displacement "
                             f"{step.displacement}")
        if step.kicks and pulse is None:
            raise ValueError("damped runs need a schedule with pulse parameters")
        if any(k.s != pulse.s for k in step.kicks):
            raise ValueError(f"damped runs kick at the pulse's s={pulse.s} only")
    rho = np.array(rho, dtype=np.complex128)
    dim = rho.shape[0]
    shift = POSITIVITY_TOL * np.eye(dim)
    records = np.recarray(len(schedule.steps) + 1, dtype=_RECORD)
    kick_leak = t = 0.0

    def record(k: int) -> None:
        fid = math.nan if target is None else np.vdot(target.amps, rho @ target.amps).real
        pop = np.diag(rho).real
        records[k] = (t, np.sum(np.arange(dim) * pop), np.vdot(rho, rho).real,
                      fid, abs(np.trace(rho).real - 1.0), pop[-GUARD_LEVELS:].sum())

    record(0)
    for k, step in enumerate(schedule.steps, start=1):
        for kick in step.kicks:
            tau = pulse.duration
            rho = evolve_damped(rho, 0.5 * tau, params)
            k_op = displaced_kick(kick.gamma, pulse, dim)
            rho = k_op @ rho @ k_op.conj().T
            p = float(np.trace(rho).real)
            if not p > 0:  # a NaN too
                raise RuntimeError("conditioned kick annihilated the state")
            kick_leak += 1.0 - p
            rho /= p
            rho = evolve_damped(rho, 0.5 * tau, params)
            t += tau
        rho = 0.5 * (rho + rho.conj().T)  # shed accumulated asymmetry
        try:
            # a NaN anywhere in rho gives a NaN last pivot, not an error
            w = None if np.isfinite(np.linalg.cholesky(rho + shift)[-1, -1]) else math.nan
        except np.linalg.LinAlgError:
            w = np.linalg.eigvalsh(rho).min()
        if w is not None:
            raise RuntimeError(f"positivity violated ({w:.2e}) beyond rounding; "
                               "check dim and the kick leak")
        record(k)
    logger.debug("evolve_master: t=%.4g s, kick leak %.3g", t, kick_leak)
    return rho, MasterTrace(records, kick_leak)


def fidelity_mixed(rho: np.ndarray, psi: FieldState) -> float:
    """<psi| rho |psi>."""
    if rho.shape[0] != psi.dim:
        raise ValueError(f"dimension mismatch: {rho.shape[0]} vs {psi.dim}")
    val = float(np.real(np.vdot(psi.amps, rho @ psi.amps)))
    return min(max(val, 0.0), 1.0)
