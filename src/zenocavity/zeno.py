"""Stroboscopic quantum Zeno engine for the driven cavity field.

One step displaces the field by a small beta (the free drive integrated
over one interval) and then applies one or more photon-number-selective
kicks. The ideal kick at photon number s is 1 - 2|s><s|; centering its
exclusion circle at gamma conjugates it with D(gamma). Repeating steps
confines any state initially below (or above) |s> to that block: |s> acts
as a hard wall in phase space of radius sqrt(s) around gamma.

A Schedule is a plain value: its steps, each a displacement and a tuple of
kicks (s, gamma), and at most one PulseParams, which dresses every kick of
the schedule; without one the kicks are ideal.

A run keeps its diagnostics as arrays, one row per recorded step, and
checks the guard-band leak on every step, recorded or not. Each chunk of
CHUNK steps plans its distinct steps once (drive and kick operands), so that
a step only applies its kernels, writing in place, and the chunk's last state
is renormalised. The leak check, the kept rows and the snapshots run once per
block of BLOCK steps, over every step of the block.

The engine is sequential per run and keeps no shared mutable state, so
independent runs can execute concurrently. Operators are cached by value;
the cache has no semantic effect.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .atomkick import PulseParams, pulse_blocks
from .fock import (
    DEFAULT_LEAK_TOL,
    GUARD_LEVELS,
    FieldState,
    TruncationError,
    check_guard_band,
    displaced_fock,
    displacement_op,
)

logger = logging.getLogger(__name__)

#: steps planned together; zeno_run renormalises the last state of each chunk
CHUNK = 32
#: steps advanced between two bulk diagnostic passes of zeno_run (8 chunks)
BLOCK = 8 * CHUNK


class KickSpec(NamedTuple):
    """One selective kick: photon number s, circle center gamma.

    Its schedule's pulse decides what the kick is: the ideal instantaneous
    kick, or the finite interrogation pulse, which can park field amplitude
    in the atom branch. zeno_run takes a dressed kick only at gamma = 0;
    damped runs (openquantum.evolve_master) move it and build it as a dense
    matrix with openquantum.displaced_kick.
    """

    s: int
    gamma: complex = 0j


class Step(NamedTuple):
    """Displacement increment followed by kicks applied in list order."""

    displacement: complex = 0j
    kicks: tuple[KickSpec, ...] = ()


class Schedule(NamedTuple):
    """Steps run in order. pulse None gives ideal kicks; a PulseParams dresses
    every kick of every step, each of which must then sit at the pulse's s."""

    steps: tuple[Step, ...]
    pulse: PulseParams | None = None


def uniform_schedule(n_steps: int, beta: complex, kicks: Sequence[KickSpec],
                     pulse: PulseParams | None = None) -> Schedule:
    """n_steps identical steps: D(beta) then the given kicks, dressed by pulse."""
    return Schedule((Step(beta, tuple(kicks)),) * n_steps, pulse)


_RECORD = np.dtype([("step", np.int64), ("energy", np.float64)]
                   + [(f"p{n}", np.float64) for n in range(10)] + [("leak", np.float64)])


@dataclass(frozen=True)
class EvolutionTrace:
    """Diagnostics of a stroboscopic run, one array row per recorded step.

    steps, energies and leaks (population of the guard band) have one
    entry per row; probs is the (rows, dim) photon distribution of the
    normalised field; max_leak is the largest leak over every step taken,
    recorded or not. states maps each snapshot step to its FieldState.
    final_atom_leak is the atom-branch population a dressed run ends with
    (0 without dressed kicks).
    renormalizations counts the chunks of CHUNK steps whose last state
    zeno_run renormalised, and max_norm_drift is the largest drift over one
    chunk; neither counts single steps. zeno_run takes the leaks once per
    block of BLOCK steps, over every step of the block.
    """

    steps: np.ndarray
    energies: np.ndarray
    probs: np.ndarray
    leaks: np.ndarray
    states: dict[int, FieldState]
    final_state: FieldState
    max_leak: float = 0.0
    kicks: int = 0  # kicks applied
    renormalizations: int = 0
    max_norm_drift: float = 0.0
    final_atom_leak: float = 0.0

    @property
    def records(self) -> np.recarray:
        """One record per row: step, energy, p0..p9 (zeros where dim < 10), leak."""
        out = np.zeros(len(self.steps), dtype=_RECORD)
        out["step"], out["energy"], out["leak"] = self.steps, self.energies, self.leaks
        for n in range(min(10, self.probs.shape[1])):
            out[f"p{n}"] = self.probs[:, n]
        return out.view(np.recarray)


class ZenoTruncationError(TruncationError):
    """Leak above tolerance mid-run, naming the leak and the failing step."""


def _renormalised(psi: np.ndarray) -> tuple[np.ndarray, float]:
    """psi divided by its norm (psi itself if that is exactly 1), and |1 - norm|."""
    nrm = float(np.linalg.norm(psi))
    drift = abs(1.0 - nrm)
    return (psi / nrm if drift > 0.0 else psi), drift


def zeno_run(
    state: FieldState,
    schedule: Schedule,
    record_every: int = 1,
    snapshot_steps: Sequence[int] | None = None,
    leak_tol: float = DEFAULT_LEAK_TOL,
) -> EvolutionTrace:
    """Run a schedule and collect the evolution trace.

    Rows are kept at step 0, every record_every-th step, every requested
    snapshot step (those also keep the full state) and the final step.
    The guard-band leak, the population of the top GUARD_LEVELS levels, is
    checked after every step (max_leak keeps the largest): the first step
    whose leak reaches leak_tol aborts the run with ZenoTruncationError.

    The run evolves one array psi of shape (rows, dim). Row 0 is the field
    while the atom sits in h; rows 1-2 hold what the schedule's pulse drives
    into the atom's (+, -) branch, and there is only row 0 when the schedule
    has no pulse. The drive and ideal kicks act on row 0; a dressed kick
    applies pulse_blocks to all rows. Dressed kicks must sit at the origin
    and at the pulse's s (ValueError otherwise, before the first step;
    damped runs move dressed kicks), so the branch stays coherent between
    kicks: it can return at the next pulse, which is what keeps Rabi angles
    far from 2*pi usable, and final_atom_leak is its population. An empty
    schedule raises ValueError. The trace reports the field of row 0,
    normalised.

    Steps advance in blocks of BLOCK into a (BLOCK + 1, rows, dim) buffer,
    one chunk of CHUNK steps at a time. A chunk first plans each distinct
    step object once: its drive displacement and one action per kick,
    negating amplitude s of row 0, reflecting row 0 about a displaced_fock
    column (one call per s for the chunk's centres) or applying the run's
    pulse_blocks to all rows. Each step then only writes its kernels' output
    into its buffer row. The next chunk starts from the chunk's last state,
    renormalised, while the buffer row keeps that state as the step left it.
    The kept rows come from one mask per run; once per block the probability
    rows (each normalised by its own sum), leaks and snapshots are taken in
    bulk, before the block's last state is renormalised.
    """
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    dim = state.dim
    if dim <= GUARD_LEVELS:
        raise ValueError(f"dim must exceed the {GUARD_LEVELS} guard levels")
    n_steps = len(schedule.steps)
    if not n_steps:
        raise ValueError("schedule must contain at least one step")
    chunks = [{id(st): st for st in schedule.steps[i:i + CHUNK]} for i in range(0, n_steps, CHUNK)]
    distinct: dict[int, Step] = {}
    for chunk in chunks:  # the run's distinct steps, each checked once
        distinct.update(chunk)
    kicks = [k for step in distinct.values() for k in step.kicks]
    for s in dict.fromkeys(k.s for k in kicks):
        check_guard_band(s, dim)
    pulse = schedule.pulse
    if pulse is not None and any(k != (pulse.s, 0) for k in kicks):
        raise ValueError(f"zeno_run takes dressed kicks at the origin and the pulse's "
                         f"s={pulse.s} only; damped runs (evolve_master) move them")
    blocks = None if pulse is None else pulse_blocks(pulse, dim)
    snapshots = np.array(sorted(set(snapshot_steps or ())), dtype=int)
    snapshots = snapshots[(0 <= snapshots) & (snapshots <= n_steps)].tolist()
    # the kept rows: step 0, every record_every-th step, the snapshots, the last step
    keep = np.zeros(n_steps + 1, dtype=bool)
    keep[::record_every] = keep[snapshots] = keep[-1] = True
    renorms = 0
    max_drift = max_leak = 0.0
    states: dict[int, FieldState] = {}
    size = np.count_nonzero(keep)
    leaks, probs = np.empty(size), np.empty((size, dim))
    n_rows = 0
    buf = np.zeros((min(BLOCK, n_steps) + 1, 3 if pulse else 1, dim), dtype=np.complex128)
    buf[0, 0] = state.amps
    stage, start = np.empty_like(buf[0]), np.empty_like(buf[0])
    start_views = (start, start[0], start[1:])
    views = list(zip(buf, buf[:, 0], buf[:, 1:]))  # (psi, row 0, atom rows) per buffer row
    first = 0  # buf[0] holds the state after step `first`
    while first < n_steps:
        span = min(BLOCK, n_steps - first)
        drifts = []  # |1 - norm| at each chunk end of the block
        head = views[0]
        for r in range(0, span, CHUNK):
            todo = schedule.steps[first + r:first + r + CHUNK]
            # one plan entry per distinct step: its drive (None without one) and
            # an (s, operand) action per kick: the column an off-centre ideal
            # kick reflects about, else the run's blocks (None for ideal kicks)
            chunk = chunks[(first + r) // CHUNK]
            centres: dict[int, dict[complex, None]] = {}
            for k in (k for st in chunk.values() for k in st.kicks):
                if k.gamma != 0:  # dressed kicks sit at the origin
                    centres.setdefault(k.s, {})[k.gamma] = None
            columns = {(s, g): v for s, gs in centres.items()
                       for g, v in zip(gs, displaced_fock(s, list(gs), dim))}
            plan = {key: (displacement_op(st.displacement, dim) if st.displacement != 0
                          else None,
                          [(k.s, columns.get((k.s, k.gamma), blocks)) for k in st.kicks])
                    for key, st in chunk.items()}
            for (psi, row, tail), (prev, prev_row, prev_tail), (drive, actions) in zip(
                    views[r + 1:r + 1 + CHUNK], [head, *views[r + 1:r + CHUNK]],
                    [plan[id(st)] for st in todo]):
                if drive is None:
                    psi[...] = prev
                else:
                    np.matmul(drive, prev_row, out=row)
                    if pulse:
                        tail[...] = prev_tail
                for s, op in actions:
                    if op is None:
                        row[s] = -row[s]
                    elif op is blocks:
                        np.einsum("nij,jn->in", op, psi, out=stage)
                        psi[...] = stage
                    else:
                        row -= 2.0 * np.vdot(op, row) * op
            # the next chunk starts from this one's last state, renormalised;
            # its buffer row keeps the state as it came out of the step
            stop = r + len(todo)
            if stop < span:
                start[...], drift = _renormalised(buf[stop])
                drifts.append(drift)
                head = start_views
        # step `first` closed the previous block; step 0 opens the first one
        lo = 1 if first else 0
        pop = np.abs(buf[lo:span + 1, 0]) ** 2
        pop /= pop.sum(axis=1, keepdims=True)  # the atom branch holds the rest
        leak = pop[:, -GUARD_LEVELS:].sum(axis=1)
        bad = np.flatnonzero(~(leak[1 - lo:] < leak_tol))
        if bad.size:
            n = int(bad[0]) + 1
            raise ZenoTruncationError(
                f"truncation leak {leak[n - lo]:.3e} above {leak_tol:.1e} at step {first + n}")
        max_leak = float(np.max(leak, initial=max_leak))
        kept = keep[first + lo:first + span + 1]
        new = slice(n_rows, n_rows + np.count_nonzero(kept))
        leaks[new], probs[new] = leak[kept], pop[kept]
        n_rows = new.stop
        while snapshots and snapshots[0] <= first + span:
            q = snapshots.pop(0)
            states[q] = FieldState(buf[q - first, 0])
        buf[0], drift = _renormalised(buf[span])
        drifts.append(drift)
        renorms += sum(d > 0.0 for d in drifts)
        max_drift = max(max_drift, *drifts)
        first += span
    atom_leak = float(np.linalg.norm(buf[0, 1:]) ** 2)
    trace = EvolutionTrace(
        np.flatnonzero(keep), probs @ np.arange(dim), probs, leaks,
        states=states,
        final_state=FieldState(buf[0, 0]),
        max_leak=max_leak,
        kicks=sum(len(st.kicks) for st in schedule.steps),
        renormalizations=renorms,
        max_norm_drift=max_drift,
        final_atom_leak=atom_leak,
    )
    logger.debug(
        "zeno_run: %d steps, %d renormalizations, max norm drift %.3e, atom leak %.3e",
        n_steps, renorms, max_drift, atom_leak,
    )
    return trace
