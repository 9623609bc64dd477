import math

import numpy as np
import pytest
from helpers import is_hermitian, is_unitary
from reference import (
    block_populations,
    displacement,
    drive_hamiltonian,
    effective_hamiltonian,
    ideal_kick,
    topological_phase_identity_residual,
    zeno_limit_evolve,
)

from zenocavity import runner, zeno
from zenocavity.atomkick import PulseParams, conditioned_field_diagonal, pulse_blocks
from zenocavity.config import parse_config
from zenocavity.fock import (
    GUARD_LEVELS,
    FieldState,
    coherent,
    displaced_fock,
    displacement_op,
    fidelity_pure,
    fock_basis,
    mean_energy,
    photon_distribution,
    vacuum,
)
from zenocavity.openquantum import displaced_kick
from zenocavity.zeno import (
    BLOCK,
    CHUNK,
    KickSpec,
    Schedule,
    Step,
    ZenoTruncationError,
    uniform_schedule,
    zeno_run,
)


def one_step(state, beta, kicks):
    """A single stroboscopic step: D(beta), then the kicks, renormalized."""
    schedule = Schedule(steps=(Step(displacement=beta, kicks=tuple(kicks)),))
    return zeno_run(state, schedule).final_state


def reflection(s, gamma, dim):
    """1 - 2 v v^+ about v = D(gamma)|s>, the vector an ideal kick of zeno_run reflects."""
    v = displaced_fock(s, gamma, dim)
    return np.eye(dim) - 2.0 * np.outer(v, v.conj())


def test_kick_op_basics():
    u = reflection(1, 0, 8)
    assert np.allclose(u @ fock_basis(0, 8).amps, fock_basis(0, 8).amps)
    assert np.allclose(u @ fock_basis(1, 8).amps, -fock_basis(1, 8).amps)
    # eigenvalue -1 eigenspace is one-dimensional
    w = np.linalg.eigvalsh(u)
    assert np.sum(np.isclose(w, -1)) == 1
    assert np.max(np.abs(u @ u - np.eye(8))) == 0
    assert np.max(np.abs(u - u.conj().T)) == 0
    with pytest.raises(IndexError):
        displaced_fock(8, 0, 8)
    # the dense kick operator is the damped runs' dressed kick only
    with pytest.raises(ValueError, match="pulse parameters"):
        displaced_kick(0, None, 8)


def test_displaced_kick_examples():
    assert np.array_equal(reflection(2, 0, 10), np.diag([1, 1, -1] + [1] * 7))
    # D(0) is the identity: a dressed kick at the origin is its bare diagonal
    pulse = PulseParams(omega=2 * math.pi * 50e3, rabi_drive=2e4, theta=5.5, s=2)
    assert np.array_equal(displaced_kick(0, pulse, 10),
                          np.diag(conditioned_field_diagonal(pulse, 10)))
    dim = 40
    gamma = 0.8 - 0.4j
    u = ideal_kick(1, gamma, dim)
    assert is_unitary(u, 1e-10)
    assert is_hermitian(u, 1e-10)
    assert np.max(np.abs(u @ u - np.eye(dim))) < 1e-10
    v = displaced_fock(1, gamma, dim)
    assert np.max(np.abs(u @ v + v)) < 1e-10  # conjugated eigenvector, eigenvalue -1


def test_displaced_kick_leaves_remote_coherent_state():
    dim = 60
    psi = coherent(-2.5, dim)
    out = one_step(psi, 0, [KickSpec(s=1, gamma=2.5)])
    assert fidelity_pure(out, psi) > 1 - 1e-3


def test_kick_involution_property():
    rng = np.random.default_rng(7)
    dim = 48
    for _ in range(5):
        u = reflection(int(rng.integers(0, 6)),
                       complex(rng.uniform(-2, 2), rng.uniform(-2, 2)), dim)
        assert np.max(np.abs(u @ u - np.eye(dim))) < 1e-10


def test_zeno_step_examples():
    psi = coherent(0.5, 24)
    assert fidelity_pure(one_step(psi, 0, []), psi) == 1.0
    plain = displacement_op(0.1, 24) @ vacuum(24).amps
    kicked = one_step(vacuum(24), 0.1, [KickSpec(s=1)])
    assert abs(kicked.amps[1] + plain[1]) < 1e-14
    assert abs(kicked.amps[0] - plain[0]) < 1e-14


def test_zeno_step_matches_matrix_power_oracle():
    dim = 48
    step_op = ideal_kick(6, 0, dim) @ displacement_op(0.1, dim)
    oracle = np.linalg.matrix_power(step_op, 50) @ vacuum(dim).amps
    state = vacuum(dim)
    for _ in range(50):
        state = one_step(state, 0.1, [KickSpec(s=6)])
    assert np.max(np.abs(state.amps - oracle / np.linalg.norm(oracle))) < 1e-10
    assert abs(mean_energy(state) - mean_energy(FieldState(oracle))) < 1e-10


def test_zeno_run_kick_only_energy_constant():
    sched = Schedule(steps=(Step(displacement=0j, kicks=(KickSpec(s=2),)),) * 10)
    trace = zeno_run(coherent(1.0, 30), sched)
    energies = trace.energies
    assert np.max(np.abs(energies - energies[0])) < 1e-12


def test_zeno_run_confinement_cycle():
    # energy rises, plateaus near steps 20-30, returns near 0 around step 45
    trace = zeno_run(vacuum(48), uniform_schedule(50, 0.1, [KickSpec(s=6)]))
    energies = trace.energies
    assert energies[25] > 3.5
    assert np.argmax(energies) in range(20, 31)
    assert min(energies[42:49]) < 0.3
    # energy bound: never exceeds s=6 by more than 0.5 photons
    assert energies.max() < 6.5


def test_zeno_run_oracle_equivalence_random_schedules():
    rng = np.random.default_rng(3)
    for _ in range(3):
        dim = int(rng.integers(40, 61))
        psi0 = coherent(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)), dim)
        steps = []
        op = np.eye(dim, dtype=complex)
        for _ in range(int(rng.integers(10, 51))):
            beta = complex(rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1))
            kicks = tuple(
                KickSpec(
                    s=int(rng.integers(0, 8)),
                    gamma=complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                )
                for _ in range(int(rng.integers(1, 3)))
            )
            steps.append(Step(displacement=beta, kicks=kicks))
            m = displacement(beta, dim)
            for k in kicks:
                m = ideal_kick(k.s, k.gamma, dim) @ m
            op = m @ op
        trace = zeno_run(psi0, Schedule(steps=tuple(steps)), leak_tol=1e-2)
        oracle = op @ psi0.amps
        oracle /= np.linalg.norm(oracle)
        assert np.max(np.abs(trace.final_state.amps - oracle)) < 1e-10


def test_oracle_equivalence_long_run_envelope():
    # the step-by-step engine matches the dense matrix power out to
    # p = 100 at dim = 80
    dim = 80
    spec = KickSpec(s=6, gamma=0.5 + 0.3j)
    step_op = ideal_kick(spec.s, spec.gamma, dim) @ displacement_op(0.08, dim)
    oracle = np.linalg.matrix_power(step_op, 100) @ vacuum(dim).amps
    oracle /= np.linalg.norm(oracle)
    trace = zeno_run(vacuum(dim), uniform_schedule(100, 0.08, [spec]),
                     leak_tol=1e-2)
    assert np.max(np.abs(trace.final_state.amps - oracle)) < 1e-10


def test_confinement_invariant():
    # population above the wall stays small; threshold frozen from this
    # oracle run (nominal 10x leak tolerance was optimistic, measured 3.2e-5).
    # The escaped sliver parks at the basis top on long runs, so the guard
    # tolerance is relaxed to let the run complete.
    for beta, n_steps in ((0.1, 60), (0.05, 50)):
        trace = zeno_run(vacuum(60), uniform_schedule(n_steps, beta, [KickSpec(s=6)]),
                         leak_tol=1e-4)
        worst = trace.probs[:, 7:].sum(axis=1).max()
        assert worst < 5e-5
    # symmetric upper-block case
    trace = zeno_run(coherent(-5, 80), uniform_schedule(50, 0.1, [KickSpec(s=6)]))
    worst = trace.probs[:, :6].sum(axis=1).max()
    assert worst < 5e-5


def test_zeno_run_truncation_abort_carries_partial_trace():
    with pytest.raises(ZenoTruncationError) as err:
        zeno_run(vacuum(30), uniform_schedule(60, 0.1, [KickSpec(s=6)]))
    partial = err.value.trace
    assert partial.leaks[-1] >= 1e-6
    assert partial.steps[-1] < 60


def test_truncation_checked_on_every_step():
    # the leak first reaches 1e-6 at step 40, between the recorded rows
    with pytest.raises(ZenoTruncationError) as err:
        zeno_run(vacuum(30), uniform_schedule(60, 0.1, [KickSpec(s=6)]), record_every=7)
    partial = err.value.trace
    assert partial.steps[-2:].tolist() == [35, 40]
    assert partial.steps[-1] == 40 and partial.leaks[-1] >= 1e-6
    assert "at step 40" in str(err.value)
    assert partial.kicks == 40  # the leaking step's kick, none after it


FIELDS = ("step", "energy", *(f"p{n}" for n in range(10)), "leak")


def write_and_load(trace, tmp_path):
    """trace.npy as a run writes it, read back without pickle."""
    cfg = parse_config({"protocol": "zeno_confine", "dim": 48})  # draws the snapshots
    tmp_path.mkdir(exist_ok=True)
    runner._emit_trace_artifacts(trace, cfg, tmp_path)
    assert not (tmp_path / "trace.csv").exists()
    return np.load(tmp_path / "trace.npy", allow_pickle=False)


def test_trace_npy_matches_per_row_values(tmp_path):
    gap = 2 * math.pi * 50e3 * (math.sqrt(7) - math.sqrt(6))
    pulse = PulseParams(omega=2 * math.pi * 50e3, rabi_drive=0.1 * gap, theta=5.5, s=6)
    trace = zeno_run(
        coherent(0.3, 48),
        uniform_schedule(60, 0.1, [KickSpec(s=6)], pulse),
        record_every=7, snapshot_steps=[17], leak_tol=1e-3,
    )
    assert trace.final_atom_leak > 0  # the dressed path
    assert trace.steps.tolist() == [0, 7, 14, 17, 21, 28, 35, 42, 49, 56, 60]
    loaded = write_and_load(trace, tmp_path)
    assert loaded.dtype.names == FIELDS
    assert loaded.dtype["step"] == np.int64
    assert all(loaded.dtype[n] == np.float64 for n in FIELDS[1:])
    assert len(loaded) == len(trace.steps)
    assert loaded.tobytes() == trace.records.tobytes()
    rows = zip(loaded, trace.steps, trace.energies, trace.probs, trace.leaks)
    for row, step, energy, probs, leak in rows:
        assert row.tolist() == (step, energy, *probs[:10], leak)
    # a basis below ten levels pads p0..p9 with zeros
    small = zeno_run(vacuum(5), uniform_schedule(3, 0.01, [KickSpec(s=0)]))
    loaded = write_and_load(small, tmp_path / "small")
    assert loaded.dtype.names == FIELDS
    assert loaded[0].tolist() == (0, 0.0, 1.0, *[0.0] * 10)


def test_joint_dressed_run_matches_dense_step_matrix():
    # the field in h and the two parked atom-branch amplitudes evolve
    # under one 3*dim step matrix
    dim, s, beta, n_steps = 30, 6, 0.1, 40
    omega = 2 * math.pi * 50e3
    gap = omega * (math.sqrt(s + 1) - math.sqrt(s))
    pulse = PulseParams(omega=omega, rabi_drive=0.1 * gap, theta=5.5, s=s)
    trace = zeno_run(
        coherent(0.3, dim),
        uniform_schedule(n_steps, beta, [KickSpec(s=s)], pulse),
        leak_tol=1e-3,
    )
    blocks = pulse_blocks(pulse, dim)
    mix = np.zeros((3 * dim, 3 * dim), dtype=complex)
    for i in range(3):
        for j in range(3):
            mix[i * dim:(i + 1) * dim, j * dim:(j + 1) * dim] = np.diag(blocks[:, i, j])

    def on_field(op):
        out = np.eye(3 * dim, dtype=complex)
        out[:dim, :dim] = op
        return out

    step = mix @ on_field(displacement_op(beta, dim))
    v = np.zeros(3 * dim, dtype=complex)
    v[:dim] = coherent(0.3, dim).amps
    energies = []
    for p in range(n_steps + 1):
        field = v[:dim] / np.linalg.norm(v[:dim])
        energies.append(np.arange(dim) @ np.abs(field) ** 2)
        if p < n_steps:
            v = step @ v
    assert trace.steps.tolist() == list(range(n_steps + 1))
    assert np.max(np.abs(trace.energies - energies)) < 1e-12
    assert np.max(np.abs(trace.final_state.amps - field)) < 1e-12
    assert abs(trace.final_atom_leak - np.linalg.norm(v[dim:]) ** 2) < 1e-12
    assert 1e-4 < trace.final_atom_leak < 1e-3


def _reference_run(state, schedule, record_every, snapshots, leak_tol):
    """Plain per-step loop over dense step matrices of (field in h, atom branch).

    Returns the trace's arrays, the normalised snapshot and final fields, the
    atom-branch population, the kicks applied, the largest leak over every
    step taken (the failing one included) and the failing step (or None).
    """
    dim = state.dim
    size = (1 if schedule.pulse is None else 3) * dim

    def on_field(op):
        out = np.eye(size, dtype=complex)
        out[:dim, :dim] = op
        return out

    def step_matrix(step):
        m = on_field(displacement_op(step.displacement, dim))
        for k in step.kicks:
            if schedule.pulse is None:
                v = displaced_fock(k.s, k.gamma, dim)
                kick = on_field(np.eye(dim) - 2.0 * np.outer(v, v.conj()))
            else:
                blocks = pulse_blocks(schedule.pulse, dim)
                kick = np.zeros((size, size), dtype=complex)
                for i in range(3):
                    for j in range(3):
                        kick[i * dim:(i + 1) * dim, j * dim:(j + 1) * dim] = np.diag(
                            blocks[:, i, j])
            m = kick @ m
        return m

    distinct = {id(st): st for st in schedule.steps}
    matrices = {key: step_matrix(st) for key, st in distinct.items()}
    v = np.zeros(size, dtype=complex)
    v[:dim] = state.amps
    n_steps = len(schedule.steps)
    rows, states, kicks, max_leak, failed = [], {}, 0, 0.0, None
    for p in range(n_steps + 1):
        field = v[:dim] / np.linalg.norm(v[:dim])
        pop = np.abs(field) ** 2
        leak = pop[dim - GUARD_LEVELS:].sum()
        max_leak = max(max_leak, leak)
        if p > 0 and not leak < leak_tol:
            failed = p
        if failed or p % record_every == 0 or p == n_steps or p in snapshots:
            rows.append((p, np.arange(dim) @ pop, pop, leak))
            if p in snapshots:
                states[p] = field
        if failed or p == n_steps:
            break
        kicks += len(schedule.steps[p].kicks)
        v = matrices[id(schedule.steps[p])] @ v
        v /= np.linalg.norm(v)
    steps, energies, probs, leaks = (np.array(c) for c in zip(*rows))
    atom_leak = np.linalg.norm(v[dim:]) ** 2
    return steps, energies, probs, leaks, states, field, atom_leak, kicks, max_leak, failed


def _chunk_test_schedule(mode, n_steps, beta=0.1):
    omega = 2 * math.pi * 50e3
    gap = omega * (math.sqrt(7) - math.sqrt(6))
    pulse = PulseParams(omega=omega, rabi_drive=0.1 * gap, theta=5.5, s=6)
    if mode == "moving":  # new ideal centres on every step for s = 1 and 2
        way = complex(math.cos(0.3), math.sin(0.3))
        steps = []
        for p in range(n_steps):
            # out for 68 steps, then back along the same centres against the
            # drive, so that runs longer than a block stay in the basis
            q, sign = (p % 136, 1) if p % 136 < 68 else (135 - p % 136, -1)
            centre = 0.07 * (q - 1 if q % 9 == 8 else q) * way  # repeats inside a chunk
            kicks = (KickSpec(s=1, gamma=centre),
                     KickSpec(s=2, gamma=0 if p % 6 == 5 else -0.5 * centre))
            steps.append(Step(displacement=0 if p % 5 == 4 else sign * beta * way,
                              kicks=kicks))
        return Schedule(steps=tuple(steps))
    if mode == "ideal":
        kicks, pulse = (KickSpec(s=6), KickSpec(s=0, gamma=3j)), None
    else:  # joint: one dressed pulse at the origin
        kicks = (KickSpec(s=6),)
    driven, undriven = Step(displacement=beta, kicks=kicks), Step(kicks=kicks)
    # every fifth step has no drive
    return Schedule(tuple(undriven if p % 5 == 4 else driven for p in range(n_steps)), pulse)


@pytest.mark.parametrize("mode", ["ideal", "joint", "moving"])
def test_chunked_run_matches_per_step_reference(mode):
    snapshots = [CHUNK - 1, CHUNK, CHUNK + 1, BLOCK - 1, BLOCK, BLOCK + 1]

    def check(trace, ref):
        steps, energies, probs, leaks, states, field, atom_leak, kicks, max_leak, _ = ref
        assert trace.steps.tolist() == steps.tolist()
        assert np.max(np.abs(trace.energies - energies)) < 1e-12
        assert np.max(np.abs(trace.probs - probs)) < 1e-12
        assert np.max(np.abs(trace.leaks - leaks)) < 1e-12
        assert sorted(trace.states) == sorted(states)
        for p, amps in states.items():
            assert np.max(np.abs(trace.states[p].amps - amps)) < 1e-12
        assert np.max(np.abs(trace.final_state.amps - field)) < 1e-12
        assert abs(trace.final_atom_leak - atom_leak) < 1e-12
        assert trace.kicks == kicks
        assert trace.max_leak == pytest.approx(max_leak, rel=1e-6, abs=0)

    # a weaker drive keeps the runs past a block inside the basis
    for n_steps, beta in [(n, 0.1) for n in (CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3)] + [
            (n, 0.05) for n in (BLOCK - 1, BLOCK, BLOCK + 1, BLOCK + CHUNK + 3)]:
        schedule = _chunk_test_schedule(mode, n_steps, beta)
        ref = _reference_run(vacuum(60), schedule, 7, snapshots, 1e-3)
        assert ref[-1] is None
        trace = zeno_run(vacuum(60), schedule, record_every=7,
                         snapshot_steps=snapshots, leak_tol=1e-3)
        check(trace, ref)
        if mode == "joint":
            assert trace.final_atom_leak > 1e-5
    # the reference first leaks at step 1, on a chunk's last step, on the
    # next chunk's first step, inside a chunk and on the step after a block:
    # (dim, beta, leak_tol, step)
    for dim, beta, leak_tol, landing in LEAKING[mode]:
        schedule = _chunk_test_schedule(mode, BLOCK + CHUNK + 3, beta)
        ref = _reference_run(vacuum(dim), schedule, 7, snapshots, leak_tol)
        assert ref[-1] == landing
        with pytest.raises(ZenoTruncationError) as err:
            zeno_run(vacuum(dim), schedule, record_every=7, snapshot_steps=snapshots,
                     leak_tol=leak_tol)
        assert f"at step {landing}" in str(err.value)
        assert err.value.trace.steps[-1] == landing
        assert err.value.trace.max_leak >= leak_tol
        check(err.value.trace, ref)


LEAKING = {
    "ideal": [(12, 1.0, 1e-7, 1), (42, 0.13, 1e-8, CHUNK), (40, 0.12, 2e-8, CHUNK + 1),
              (36, 0.1, 1e-6, 43), (30, 0.015, 5e-6, BLOCK + 1)],
    "joint": [(12, 1.0, 1e-7, 1), (32, 0.1, 2e-12, CHUNK), (36, 0.1, 5e-14, CHUNK + 1),
              (36, 0.1, 1e-6, 49), (44, 0.02, 5e-13, BLOCK + 1)],
    "moving": [(12, 1.0, 1e-7, 1), (34, 0.1, 5e-13, CHUNK), (34, 0.1, 5e-12, CHUNK + 1),
               (36, 0.1, 1e-6, 46), (36, 0.1, 0.09, BLOCK + 1)],
}


def assert_same_bits(a, b):
    """Two traces equal bit for bit: every array, snapshot and counter."""
    assert sorted(a.states) == sorted(b.states)
    for x, y in ((a.steps, b.steps), (a.energies, b.energies), (a.probs, b.probs),
                 (a.leaks, b.leaks), (a.final_state.amps, b.final_state.amps),
                 *((a.states[p].amps, b.states[p].amps) for p in a.states)):
        assert x.tobytes() == y.tobytes()
    assert ((a.max_leak, a.kicks, a.renormalizations, a.max_norm_drift, a.final_atom_leak)
            == (b.max_leak, b.kicks, b.renormalizations, b.max_norm_drift, b.final_atom_leak))


@pytest.mark.parametrize("mode", ["ideal", "joint", "moving"])
def test_block_cadence_matches_chunk_cadence(mode, monkeypatch):
    # checking the leak once per block instead of once per chunk changes no
    # bit: run each case as shipped and with BLOCK = CHUNK
    snapshots = [0, CHUNK - 1, CHUNK, CHUNK + 1, BLOCK - 1, BLOCK, BLOCK + 1]

    def run(block, dim, n_steps, beta, leak_tol):
        monkeypatch.setattr(zeno, "BLOCK", block)
        try:
            return zeno_run(vacuum(dim), _chunk_test_schedule(mode, n_steps, beta),
                            record_every=7, snapshot_steps=snapshots, leak_tol=leak_tol), ""
        except ZenoTruncationError as err:
            return err.trace, str(err)

    cases = [(60, n, 0.05, 1e-3, None)
             for n in (BLOCK - 1, BLOCK, BLOCK + 1, BLOCK + CHUNK + 3)]
    # the first leak on a chunk's last step inside a block, on the next
    # chunk's first step and on a block's last step
    cases += [(dim, BLOCK + CHUNK + 3, beta, leak_tol, landing)
              for dim, beta, leak_tol, landing in BLOCK_LEAKING[mode]]
    for dim, n_steps, beta, leak_tol, landing in cases:
        (a, a_err), (b, b_err) = (run(block, dim, n_steps, beta, leak_tol)
                                  for block in (BLOCK, CHUNK))
        assert a_err == b_err
        assert a.steps[-1] == (landing or n_steps)
        assert bool(a_err) == (landing is not None)
        assert_same_bits(a, b)


BLOCK_LEAKING = {
    "ideal": [(24, 0.13, 8e-5, CHUNK), (22, 0.05, 2e-6, CHUNK + 1), (28, 0.08, 6e-4, BLOCK)],
    "joint": [(20, 0.1, 3e-6, CHUNK), (20, 0.1, 6e-6, CHUNK + 1), (34, 0.015, 2e-15, BLOCK)],
    "moving": [(20, 0.1, 8e-5, CHUNK), (20, 0.12, 2e-3, CHUNK + 1), (36, 0.1, 0.06, BLOCK)],
}


@pytest.mark.parametrize("mode", ["ideal", "joint"])
def test_equal_distinct_steps_match_repeated_step(mode):
    # the step plan is keyed by object: n equal but distinct steps (and
    # kicks) give a chunk CHUNK plan entries where one repeated step gives one
    (step,), pulse = _chunk_test_schedule(mode, 1)
    for n in (CHUNK - 1, CHUNK + 1, 2 * CHUNK + 3):
        copies = tuple(Step(step.displacement, tuple(KickSpec(k.s, k.gamma)
                                                     for k in step.kicks))
                       for _ in range(n))
        assert len({id(st) for st in copies}) == n and copies[0] == step
        a, b = (zeno_run(vacuum(60), Schedule(steps, pulse), record_every=7,
                         snapshot_steps=[CHUNK - 2, CHUNK + 1], leak_tol=1e-3)
                for steps in (copies, (step,) * n))
        assert_same_bits(a, b)


def test_zeno_run_refuses_moving_or_mixed_dressed_kicks():
    omega = 2 * math.pi * 50e3
    gap = omega * (math.sqrt(7) - math.sqrt(6))
    pulse = PulseParams(omega=omega, rabi_drive=0.1 * gap, theta=5.5, s=6)
    off_centre = [KickSpec(s=6), KickSpec(s=6, gamma=0.3 + 0.2j)]
    other_s = [KickSpec(s=6), KickSpec(s=5)]
    for kicks in (off_centre, other_s):
        # the offending kick sits in the last step, past the first chunk
        steps = (Step(displacement=0.1, kicks=(kicks[0],)),) * 40 + (Step(kicks=(kicks[1],)),)
        with pytest.raises(ValueError, match="at the origin and the pulse's s=6 only"):
            zeno_run(vacuum(60), Schedule(steps, pulse))


def test_trace_npy_format(tmp_path):
    trace = zeno_run(vacuum(24), uniform_schedule(5, 0.1, [KickSpec(s=3)]))
    loaded = write_and_load(trace, tmp_path)
    assert (tmp_path / "trace.npy").read_bytes()[:8] == b"\x93NUMPY\x01\x00"
    assert loaded.dtype.names == FIELDS
    assert len(loaded) == len(trace.steps)
    assert loaded["step"][0] == 0 and loaded["p0"][0] == 1.0  # vacuum p0
    assert loaded.tobytes() == trace.records.tobytes()


def test_record_thinning():
    trace = zeno_run(vacuum(24), uniform_schedule(20, 0.05, [KickSpec(s=4)]),
                     record_every=5)
    assert trace.steps.tolist() == [0, 5, 10, 15, 20]
    snap = zeno_run(vacuum(24), uniform_schedule(20, 0.05, [KickSpec(s=4)]),
                    record_every=5, snapshot_steps=[7])
    assert snap.steps.tolist() == [0, 5, 7, 10, 15, 20]
    assert list(snap.states) == [7]


def test_drive_resolved_once_per_chunk(monkeypatch):
    # every step of a uniform schedule is one Step: one drive lookup per chunk
    calls = []

    def counting(func):
        def wrapped(*args):
            calls.append((func.__name__, args))
            return func(*args)
        return wrapped

    monkeypatch.setattr(zeno, "displacement_op", counting(displacement_op))
    trace = zeno_run(vacuum(24), uniform_schedule(100, 0.05, [KickSpec(s=4)]))
    assert trace.steps[-1] == 100
    assert 1 <= len(calls) <= math.ceil(100 / CHUNK)
    # and at most one pulse_blocks lookup per chunk on a dressed run
    n = 2 * CHUNK + 3
    calls.clear()
    monkeypatch.setattr(zeno, "pulse_blocks", counting(pulse_blocks))
    (dressed,), pulse = _chunk_test_schedule("joint", 1)
    trace = zeno_run(vacuum(60), Schedule((dressed,) * n, pulse), leak_tol=1e-3)
    assert trace.steps[-1] == n
    lookups = [args for name, args in calls if name == "pulse_blocks"]
    assert 1 <= len(lookups) <= math.ceil(n / CHUNK)
    # and one batched displaced_fock call per s per chunk for moving centres
    calls.clear()
    monkeypatch.setattr(zeno, "displaced_fock", counting(displaced_fock))
    trace = zeno_run(vacuum(60), _chunk_test_schedule("moving", n), leak_tol=1e-3)
    assert trace.steps[-1] == n
    for s in (1, 2):
        batches = [args for name, args in calls if name == "displaced_fock" and args[0] == s]
        assert 1 <= len(batches) <= math.ceil(n / CHUNK)


def test_effective_hamiltonian_structure():
    e_amp = 0.3 + 0.1j
    s, dim = 6, 20
    h = effective_hamiltonian(e_amp, s, dim)
    assert np.max(np.abs(h - h.conj().T)) < 1e-12
    assert np.max(np.abs(h[s, :])) == 0
    assert np.max(np.abs(h[:, s])) == 0
    full = drive_hamiltonian(e_amp, dim)
    assert abs(full[s, s - 1]) > 0  # the projection really removed couplings
    assert h[1, 0] == full[1, 0]
    assert abs(h[1, 0] - 1j * e_amp) < 1e-14


def test_zeno_limit_identity_and_qze():
    amps = np.zeros(30, dtype=complex)
    amps[:4] = [0.5, 0.5j, -0.5, 0.5]  # compact support below the wall
    psi = FieldState(amps)
    assert fidelity_pure(zeno_limit_evolve(psi, 0.5, 6, 0.0), psi) > 1 - 1e-12
    # vacuum with s=1: one-dimensional block, frozen forever
    for t in (0.5, 3.0, 10.0):
        out = zeno_limit_evolve(vacuum(20), 1.0, 1, t)
        assert abs(out.amps[0]) > 1 - 1e-12


def test_zeno_limit_block_support_exact():
    out = zeno_limit_evolve(vacuum(32), 1.0, 6, 1.7)
    below, at_s, above = block_populations(out, 6)
    assert at_s == 0 and above == 0
    with pytest.raises(ValueError):
        zeno_limit_evolve(coherent(2.4, 40), 1.0, 6, 0.1)  # straddles the wall


def test_zeno_limit_convergence():
    lim = zeno_limit_evolve(vacuum(48), 1.0, 6, 2.0)
    fids = []
    for n in (50, 100, 200):
        tr = zeno_run(vacuum(48), uniform_schedule(n, 2.0 / n, [KickSpec(s=6)]))
        fids.append(fidelity_pure(tr.final_state, lim))
    assert fids[0] < fids[1] < fids[2]
    assert fids[2] > 0.99


def test_topological_phase_identity():
    assert topological_phase_identity_residual(1, 0, 0.05, 10, 40) < 1e-12
    assert topological_phase_identity_residual(2, 1 + 1j, 0, 8, 60) < 1e-12
    assert topological_phase_identity_residual(1, 1 + 1j, 0.05, 20, 60) < 1e-8


def test_uniform_schedule_and_validation():
    sched = uniform_schedule(3, 0.1, [KickSpec(s=2)])
    assert len(sched.steps) == 3
    assert sum(step.displacement for step in sched.steps) == pytest.approx(0.3)
    with pytest.raises(ValueError):
        zeno_run(vacuum(10), Schedule(steps=()))
    with pytest.raises(ValueError):
        one_step(vacuum(10), 0.0, [KickSpec(s=-1)])
    with pytest.raises(ValueError):
        one_step(vacuum(10), 0.0, [KickSpec(s=9)])  # inside guard band
    with pytest.raises(ValueError, match="guard levels"):
        zeno_run(vacuum(3), uniform_schedule(1, 0.1, [KickSpec(s=0)]))
