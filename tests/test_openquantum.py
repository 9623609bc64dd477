import math

import numpy as np
import pytest
from scipy.linalg import expm

from zenocavity.atomkick import PulseParams
from zenocavity.fock import cat_state, coherent, displacement_op, fock_basis, vacuum
from zenocavity.openquantum import (
    LindbladParams,
    TimedStep,
    check_density_matrix,
    evolve_damped,
    evolve_master,
    fidelity_mixed,
    lindblad_rhs,
    pure_density,
    timed_steps_from_schedule,
)
from zenocavity.fock import FieldState
from zenocavity.protocols import build_tweezer_schedule, linear_trajectory
from zenocavity.zeno import KickSpec, Schedule, Step, drive_hamiltonian, zeno_run

T_C = 0.13


def params(t_c=T_C, n_th=0.0):
    return LindbladParams(t_c=t_c, n_th=n_th)


def dense_generator(dim, p, hamiltonian=None):
    """lindblad_rhs as a dim^2 x dim^2 matrix acting on row-major rho."""
    cols = []
    for k in range(dim * dim):
        unit = np.zeros(dim * dim, dtype=complex)
        unit[k] = 1.0
        cols.append(lindblad_rhs(unit.reshape(dim, dim), hamiltonian, p).ravel())
    return np.array(cols).T


def mean_n(rho):
    return float(np.sum(np.arange(rho.shape[0]) * np.diag(rho).real))


def test_rhs_vacuum_fixed_point():
    rho = pure_density(vacuum(8))
    assert np.max(np.abs(lindblad_rhs(rho, None, params()))) == 0


def test_rhs_single_photon_decay_rate():
    rho = pure_density(fock_basis(1, 8))
    rhs = lindblad_rhs(rho, None, params())
    assert abs(mean_n(rhs) + 1.0 / T_C) < 1e-12


def test_rhs_traceless_and_hermiticity_preserving():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    for n_th in (0.0, 0.4):
        rhs = lindblad_rhs(rho, None, params(n_th=n_th))
        assert abs(np.trace(rhs)) < 1e-12
        assert np.max(np.abs(rhs - rhs.conj().T)) < 1e-13


def test_coherent_energy_decay_oracle():
    # <n>(t) = |alpha|^2 exp(-t / T_c)
    rho = pure_density(coherent(2, 26))
    rho = evolve_damped(rho, T_C, params())
    assert abs(mean_n(rho) - 4 * math.exp(-1)) < 1e-6
    check_density_matrix(rho)


def test_thermal_steady_occupation():
    p = params(n_th=0.3)
    rho = pure_density(vacuum(14))
    rho = evolve_damped(rho, 8 * T_C, p)
    assert abs(mean_n(rho) - 0.3) < 1e-3


def test_purity_never_increases_under_decay():
    rho = pure_density(cat_state(1.5, 1, 24))
    p = params()
    last = float(np.trace(rho @ rho).real)
    for _ in range(5):
        rho = evolve_damped(rho, T_C / 50, p)
        purity = float(np.trace(rho @ rho).real)
        assert purity <= last + 1e-12
        last = purity


def test_unitary_limit_matches_conditioned_zeno_run():
    dim = 30
    pulse = PulseParams(omega=2 * math.pi * 50e3, rabi_drive=5e3,
                        theta=2 * math.pi, s=1)
    trajs = [linear_trajectory(1.0, 1.5, 4, adiabatic_cap=0.15)]
    schedule = build_tweezer_schedule(trajs, pulse=pulse)
    psi0 = coherent(1.0, dim)
    # the kick centre moves, so zeno_run conditions on h at every kick
    trace = zeno_run(psi0, schedule, leak_tol=1e-2)
    rho, _ = evolve_master(
        pure_density(psi0),
        timed_steps_from_schedule(schedule),
        LindbladParams(t_c=1e9),
    )
    target = pure_density(trace.final_state)
    assert np.max(np.abs(rho - target)) < 1e-8


def test_trace_and_hermiticity_drift():
    pulse = PulseParams(omega=2 * math.pi * 50e3, rabi_drive=2e4,
                        theta=2 * math.pi, s=1)
    trajs = [linear_trajectory(1.0, 2.0, 9, adiabatic_cap=0.15),
             linear_trajectory(-1.0, -2.0, 9, adiabatic_cap=0.15)]
    schedule = build_tweezer_schedule(trajs, pulse=pulse)
    rho0 = pure_density(cat_state(1.0, 1, 24))
    rho, trace = evolve_master(rho0, timed_steps_from_schedule(schedule), params())
    assert trace.records[-1].trace_err < 1e-6
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-8
    check_density_matrix(rho, positivity_tol=1e-6)


def test_segment_halving_convergence():
    # two driven damped half segments compose to the whole one
    dim = 24
    p = params(n_th=0.1)
    h = drive_hamiltonian(30.0, dim)
    rho0 = pure_density(coherent(1.0, dim))
    target = coherent(1.3, dim)
    whole = evolve_damped(rho0, 0.01, p, h)
    halves = evolve_damped(evolve_damped(rho0, 0.005, p, h), 0.005, p, h)
    assert abs(fidelity_mixed(whole, target) - fidelity_mixed(halves, target)) < 1e-6


@pytest.mark.parametrize("n_th", [0.0, 0.3])
def test_block_propagator_matches_dense_expm(n_th):
    rng = np.random.default_rng(5)
    p = params(n_th=n_th)
    for dim in (6, 9):
        gen = dense_generator(dim, p)
        # not Hermitian: both triangles are checked independently
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        for t in (0.003, T_C, 3 * T_C):
            ref = (expm(t * gen) @ m.ravel()).reshape(dim, dim)
            assert np.max(np.abs(evolve_damped(m, t, p) - ref)) < 1e-12


def test_driven_segment_matches_dense_expm():
    dim = 20
    p = params(n_th=0.05)
    h = drive_hamiltonian(15.0 + 10.0j, dim)
    rho = pure_density(coherent(0.5, dim))
    t = 0.02
    ref = (expm(t * dense_generator(dim, p, h)) @ rho.ravel()).reshape(dim, dim)
    assert np.max(np.abs(evolve_damped(rho, t, p, h) - ref)) < 1e-12
    d = displacement_op((15.0 + 10.0j) * t, dim)  # undamped: D(E t)
    assert np.max(np.abs(evolve_damped(rho, t, None, h) - d @ rho @ d.conj().T)) < 1e-12
    with pytest.raises(ValueError, match="linear drive"):
        evolve_damped(rho, t, p, h + np.eye(dim))


def test_long_damping_stays_physical():
    p = params(n_th=0.3)
    rho = pure_density(cat_state(2.0, 1, 30))
    for _ in range(8):
        rho = evolve_damped(rho, T_C, p)
        assert abs(np.trace(rho).real - 1.0) < 1e-12
        assert np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min() >= -1e-12


def test_drive_segment_displaces():
    # a timed drive segment must reproduce the displacement beta = E * dt
    dim = 24
    step = TimedStep(kicks=(), drive_amp=100.0, drive_duration=0.005)
    rho, _ = evolve_master(pure_density(vacuum(dim)), [step], LindbladParams(t_c=1e9))
    assert abs(mean_n(rho) - 0.25) < 1e-6  # coherent(0.5)
    sched_step = timed_steps_from_schedule(
        Schedule(steps=(Step(displacement=0.5),)), drive_amp=100.0
    )[0]
    assert abs(sched_step.drive_duration - 0.005) < 1e-12


def test_fidelity_mixed_examples():
    psi = cat_state(1.2, 1j, 20)
    assert abs(fidelity_mixed(pure_density(psi), psi) - 1) < 1e-12
    dim = 12
    assert abs(fidelity_mixed(np.eye(dim) / dim, vacuum(dim)) - 1 / dim) < 1e-12
    rho = 0.5 * pure_density(fock_basis(0, 8)) + 0.5 * pure_density(fock_basis(1, 8))
    plus = FieldState(np.array([1, 1, 0, 0, 0, 0, 0, 0], dtype=complex))
    assert abs(fidelity_mixed(rho, plus) - 0.5) < 1e-12
    with pytest.raises(ValueError):
        fidelity_mixed(np.eye(8) / 8, vacuum(9))


def test_lindblad_params_validation():
    with pytest.raises(ValueError):
        LindbladParams(t_c=-1.0)
    with pytest.raises(ValueError):
        LindbladParams(t_c=1.0, n_th=-0.1)
    with pytest.raises(TypeError):
        LindbladParams(t_c=1.0, dt=0.5)  # damping is exact: no integrator step


def test_kick_leak_recorded():
    pulse = PulseParams(omega=2 * math.pi * 50e3, rabi_drive=3e4, theta=2.0, s=1)
    step = TimedStep(kicks=(KickSpec(s=1, gamma=1.0, pulse=pulse),))
    # population on the addressed displaced level leaks out of h hard
    psi = FieldState(displacement_op(1.0, 20)[:, 1])
    _, trace = evolve_master(pure_density(psi), [step], params())
    assert trace.total_kick_leak > 0.5
