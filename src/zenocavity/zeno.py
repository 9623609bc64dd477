"""Stroboscopic quantum Zeno engine for the driven cavity field.

One step displaces the field by a small beta (the free drive integrated
over one interval) and then applies one or more photon-number-selective
kicks. The ideal kick at photon number s is 1 - 2|s><s|; centering its
exclusion circle at gamma conjugates it with D(gamma). Repeating steps
confines any state initially below (or above) |s> to that block: |s> acts
as a hard wall in phase space of radius sqrt(s) around gamma.

The engine is sequential per run and keeps no shared mutable state, so
independent runs can execute concurrently. Operators are cached by value;
the cache has no semantic effect.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import IO, Iterable, Sequence

import numpy as np

from .atomkick import PulseParams, conditioned_field_diagonal, pulse_block_unitary
from .fock import (
    DEFAULT_GUARD_LEVELS,
    DEFAULT_LEAK_TOL,
    FieldState,
    TruncationError,
    TruncationReport,
    annihilation_op,
    creation_op,
    displacement_op,
    mean_energy,
    photon_distribution,
    truncation_check,
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class KickSpec:
    """One selective kick: photon number s, circle center gamma.

    pulse = None gives the ideal instantaneous kick; a PulseParams models
    the finite interrogation pulse (the kick is then the conditioned
    diagonal contraction, and the step renormalizes).
    """

    s: int
    gamma: complex = 0j
    pulse: PulseParams | None = None

    def __post_init__(self):
        if self.s < 0:
            raise ValueError("kick photon number must be non-negative")
        object.__setattr__(self, "gamma", complex(self.gamma))
        if self.pulse is not None and self.pulse.s != self.s:
            raise ValueError("pulse addresses a different photon number than the kick")


@dataclass(frozen=True)
class Step:
    """Displacement increment followed by kicks applied in list order."""

    displacement: complex = 0j
    kicks: tuple[KickSpec, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "displacement", complex(self.displacement))
        object.__setattr__(self, "kicks", tuple(self.kicks))


@dataclass(frozen=True)
class Schedule:
    steps: tuple[Step, ...]

    def __post_init__(self):
        steps = tuple(self.steps)
        if not steps:
            raise ValueError("schedule must contain at least one step")
        object.__setattr__(self, "steps", steps)

    def __len__(self) -> int:
        return len(self.steps)


def uniform_schedule(n_steps: int, beta: complex, kicks: Sequence[KickSpec]) -> Schedule:
    """n_steps identical steps: D(beta) then the given kicks."""
    if n_steps < 1:
        raise ValueError("need at least one step")
    step = Step(displacement=complex(beta), kicks=tuple(kicks))
    return Schedule(steps=(step,) * n_steps)


@dataclass(frozen=True)
class TraceRecord:
    step: int
    energy: float
    probs: np.ndarray
    truncation: TruncationReport
    state: FieldState | None = None
    atom_leak: float = 0.0

    @property
    def leak(self) -> float:
        return self.truncation.top_population


@dataclass(frozen=True)
class EvolutionTrace:
    """Per-step diagnostics of a stroboscopic run."""

    records: tuple[TraceRecord, ...]
    final_state: FieldState
    n_steps: int
    kicks: int = 0  # kicks applied
    renormalizations: int = 0
    max_norm_drift: float = 0.0
    final_atom_leak: float = 0.0

    def energies(self) -> np.ndarray:
        return np.array([r.energy for r in self.records])

    def record_at(self, step: int) -> TraceRecord:
        for r in self.records:
            if r.step == step:
                return r
        raise KeyError(f"no record at step {step}")

    def to_csv(self, fh: IO[str]) -> None:
        """Columns: step, energy, p0..p9, leak. 17 significant digits."""
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["step", "energy"] + [f"p{n}" for n in range(10)] + ["leak"])
        for r in self.records:
            probs = np.zeros(10)
            k = min(10, r.probs.size)
            probs[:k] = r.probs[:k]
            row = [str(r.step), f"{r.energy:.17g}"]
            row += [f"{p:.17g}" for p in probs]
            row.append(f"{r.leak:.17g}")
            writer.writerow(row)


class ZenoTruncationError(TruncationError):
    """Leak above tolerance mid-run; carries the partial trace."""

    def __init__(self, message: str, trace: EvolutionTrace):
        super().__init__(message)
        self.trace = trace


def kick_op(s: int, dim: int) -> np.ndarray:
    """Ideal kick 1 - 2|s><s|: diagonal, involutive, unitary, Hermitian."""
    if not 0 <= s < dim:
        raise IndexError(f"kick index {s} outside basis 0..{dim - 1}")
    diag = np.ones(dim, dtype=np.complex128)
    diag[s] = -1.0
    return np.diag(diag)


def displaced_kick(spec: KickSpec, dim: int) -> np.ndarray:
    """Kick operator centered at spec.gamma as a dense matrix.

    Ideal: D(gamma) (1 - 2|s><s|) D(-gamma), a rank-1 reflection. Dressed:
    the conjugated conditioned diagonal (a contraction, not unitary).
    """
    if spec.s >= dim:
        raise IndexError(f"kick index {spec.s} outside basis 0..{dim - 1}")
    if spec.pulse is None:
        if spec.gamma == 0:
            return kick_op(spec.s, dim)
        v = displacement_op(spec.gamma, dim)[:, spec.s]
        return np.eye(dim, dtype=np.complex128) - 2.0 * np.outer(v, v.conj())
    diag = conditioned_field_diagonal(spec.pulse, dim)
    if spec.gamma == 0:
        return np.diag(diag)
    d = displacement_op(spec.gamma, dim)
    return (d * diag) @ d.conj().T


def _apply_kick(amps: np.ndarray, spec: KickSpec, dim: int) -> np.ndarray:
    """Kick action on raw amplitudes, O(dim^2) worst case."""
    if spec.pulse is None:
        if spec.gamma == 0:
            out = amps.copy()
            out[spec.s] = -out[spec.s]
            return out
        v = displacement_op(spec.gamma, dim)[:, spec.s]
        return amps - 2.0 * np.vdot(v, amps) * v
    diag = conditioned_field_diagonal(spec.pulse, dim)
    if spec.gamma == 0:
        return diag * amps
    d = displacement_op(spec.gamma, dim)
    return d @ (diag * (d.conj().T @ amps))


def _check_kick_bounds(kicks: Iterable[KickSpec], dim: int, guard_levels: int) -> None:
    for spec in kicks:
        if spec.s >= dim - guard_levels:
            raise ValueError(
                f"kick at s={spec.s} reaches into the guard band of a dim={dim} basis"
            )


def _uniform_dressed_context(schedule: Schedule):
    """(gamma, pulse) shared by every dressed kick, None without dressed
    kicks, or the string 'mixed' when centers or pulses differ."""
    ctx = None
    for step in schedule.steps:
        for k in step.kicks:
            if k.pulse is None:
                continue
            key = (k.gamma, k.pulse)
            if ctx is None:
                ctx = key
            elif ctx != key:
                return "mixed"
    return ctx


@lru_cache(maxsize=64)
def _joint_blocks(pulse: PulseParams, dim: int) -> np.ndarray:
    """Per-n pulse propagators embedded in (h, +, -) slots; shape (dim,3,3).

    At n = 0 (and with the minus branch excluded) the spare slot is the
    identity, so the parked amplitude there is untouched.
    """
    blocks = np.tile(np.eye(3, dtype=np.complex128), (dim, 1, 1))
    for n in range(dim):
        u = pulse_block_unitary(n, pulse)
        k = u.shape[0]
        blocks[n, :k, :k] = u
    blocks.flags.writeable = False
    return blocks


def zeno_run(
    state: FieldState,
    schedule: Schedule,
    record_every: int = 1,
    snapshot_steps: Sequence[int] | None = None,
    guard_levels: int = DEFAULT_GUARD_LEVELS,
    leak_tol: float = DEFAULT_LEAK_TOL,
) -> EvolutionTrace:
    """Run a schedule and collect the evolution trace.

    Records are kept at step 0, every record_every-th step, at every
    requested snapshot step (those also keep the full state) and at the
    final step. A truncation failure aborts with the partial trace
    attached to the exception.

    Dressed kicks all at one center with one pulse run jointly: the
    amplitudes driven out of the atom level h stay coherent between kicks
    (they can return at the next pulse, which is what keeps Rabi angles
    far from 2*pi usable); the trace reports the field conditioned on h
    plus the accumulated atom leak. Dressed kicks whose centers or pulses
    differ are conditioned on h at every kick instead.
    """
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    dim = state.dim
    ctx = _uniform_dressed_context(schedule)
    joint = ctx is not None and ctx != "mixed"
    if ctx == "mixed":
        logger.debug("dressed kicks vary in center/pulse; conditioning per kick")
    snapshots = frozenset(snapshot_steps or ())
    amps = state.amps.copy()
    kicks = renorms = 0
    max_drift = 0.0
    records: list[TraceRecord] = []
    atom_leak = 0.0

    blocks = d_gamma = branch = None
    if joint:
        gamma_ctx, pulse_ctx = ctx
        blocks = _joint_blocks(pulse_ctx, dim)
        d_gamma = displacement_op(gamma_ctx, dim) if gamma_ctx != 0 else None
        branch = np.zeros((dim, 2), dtype=np.complex128)

    def make_record(step_idx: int, vec: np.ndarray) -> TraceRecord:
        st = FieldState(vec)
        keep = step_idx in snapshots
        return TraceRecord(
            step=step_idx,
            energy=mean_energy(st),
            probs=photon_distribution(st),
            truncation=truncation_check(st, guard_levels, leak_tol),
            state=st if keep else None,
            atom_leak=atom_leak,
        )

    records.append(make_record(0, amps))
    n_steps = len(schedule.steps)
    for p, step in enumerate(schedule.steps, start=1):
        _check_kick_bounds(step.kicks, dim, guard_levels)
        kicks += len(step.kicks)
        if step.displacement != 0:
            # parked branch amplitudes are spectators of the drive
            amps = displacement_op(step.displacement, dim) @ amps
        for spec in step.kicks:
            if joint and spec.pulse is not None:
                phi = d_gamma.conj().T @ amps if d_gamma is not None else amps
                v = np.concatenate([phi[:, None], branch], axis=1)
                v = np.einsum("nij,nj->ni", blocks, v)
                phi, branch = v[:, 0], np.ascontiguousarray(v[:, 1:])
                amps = d_gamma @ phi if d_gamma is not None else phi
            else:
                amps = _apply_kick(amps, spec, dim)
        if joint:
            total = math.sqrt(
                float(np.linalg.norm(amps) ** 2 + np.linalg.norm(branch) ** 2)
            )
            drift = abs(1.0 - total)
            if drift > 0.0:
                amps = amps / total
                branch = branch / total
                renorms += 1
                max_drift = max(max_drift, drift)
            atom_leak = float(np.linalg.norm(branch) ** 2)
        else:
            nrm = float(np.linalg.norm(amps))
            drift = abs(1.0 - nrm)
            if drift > 0.0:
                amps = amps / nrm
                renorms += 1
                max_drift = max(max_drift, drift)
        if p % record_every == 0 or p == n_steps or p in snapshots:
            rec = make_record(p, amps)
            records.append(rec)
            if not rec.truncation.ok:
                partial = EvolutionTrace(
                    records=tuple(records),
                    final_state=FieldState(amps),
                    n_steps=p,
                    kicks=kicks,
                    renormalizations=renorms,
                    max_norm_drift=max_drift,
                    final_atom_leak=atom_leak,
                )
                raise ZenoTruncationError(
                    f"truncation leak {rec.leak:.3e} above {leak_tol:.1e} at step {p}",
                    partial,
                )
    logger.debug(
        "zeno_run: %d steps, %d renormalizations, max norm drift %.3e, atom leak %.3e",
        n_steps, renorms, max_drift, atom_leak,
    )
    return EvolutionTrace(
        records=tuple(records),
        final_state=FieldState(amps),
        n_steps=n_steps,
        kicks=kicks,
        renormalizations=renorms,
        max_norm_drift=max_drift,
        final_atom_leak=atom_leak,
    )


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


def block_populations(state: FieldState, s: int) -> tuple[float, float, float]:
    """Populations (below s, at s, above s)."""
    p = photon_distribution(state)
    return float(p[:s].sum()), float(p[s]), float(p[s + 1:].sum())


def zeno_limit_evolve(
    state: FieldState,
    drive_amp: complex,
    s: int,
    t: float,
    leak_tol: float = DEFAULT_LEAK_TOL,
) -> FieldState:
    """Evolve under exp(-i H_Z t); support stays in the initial block exactly.

    The state must start inside one block (below or above |s>) within
    leak_tol. The tiny off-block remainder is projected out so the output
    block support is exact.
    """
    below, at_s, above = block_populations(state, s)
    outside_lower = at_s + above
    outside_upper = at_s + below
    if min(outside_lower, outside_upper) > leak_tol:
        raise ValueError(
            f"initial support straddles |{s}>: populations below/at/above = "
            f"{below:.3e}/{at_s:.3e}/{above:.3e}"
        )
    in_lower = outside_lower <= leak_tol
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
    lhs_step = displaced_kick(KickSpec(s=s, gamma=gamma), dim) @ d_beta
    rhs_step = kick_op(s, dim) @ d_beta
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
