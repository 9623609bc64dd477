import dataclasses
import math

import numpy as np
import pytest
from helpers import check_density_matrix
from reference import conditioned_run
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import expm_multiply

from zenocavity.atomkick import PulseParams
from zenocavity.fock import (
    DEFAULT_LEAK_TOL,
    GUARD_LEVELS,
    cat_state,
    coherent,
    displacement_op,
    fock_basis,
    vacuum,
)
from zenocavity.openquantum import (
    LindbladParams,
    _damp,
    _damp_layout,
    _damping_propagator,
    evolve_damped,
    evolve_master,
    fidelity_mixed,
    lindblad_rhs,
    pure_density,
)
from zenocavity.fock import FieldState
from zenocavity.protocols import build_tweezer_schedule, linear_trajectory
from zenocavity.zeno import KickSpec, Schedule, Step

T_C = 0.13


def params(t_c=T_C, n_th=0.0):
    return LindbladParams(t_c=t_c, n_th=n_th)


def dense_generator(dim, p):
    """lindblad_rhs as a dim^2 x dim^2 matrix acting on row-major rho."""
    cols = []
    for k in range(dim * dim):
        unit = np.zeros(dim * dim, dtype=complex)
        unit[k] = 1.0
        cols.append(lindblad_rhs(unit.reshape(dim, dim), p).ravel())
    return np.array(cols).T


def mean_n(rho):
    return float(np.sum(np.arange(rho.shape[0]) * np.diag(rho).real))


def test_rhs_vacuum_fixed_point():
    rho = pure_density(vacuum(8))
    assert np.max(np.abs(lindblad_rhs(rho, params()))) == 0


def test_rhs_single_photon_decay_rate():
    rho = pure_density(fock_basis(1, 8))
    rhs = lindblad_rhs(rho, params())
    assert abs(mean_n(rhs) + 1.0 / T_C) < 1e-12


def test_rhs_traceless_and_hermiticity_preserving():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    for n_th in (0.0, 0.4):
        rhs = lindblad_rhs(rho, params(n_th=n_th))
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


def test_unitary_limit_matches_conditioned_pure_state_run():
    dim = 30
    pulse = PulseParams(omega=2 * math.pi * 50e3, rabi_drive=5e3,
                        theta=2 * math.pi, s=1)
    trajs = [linear_trajectory(1.0, 1.5, 4, adiabatic_cap=0.15)]
    schedule = build_tweezer_schedule(trajs, pulse=pulse)
    psi0 = coherent(1.0, dim)
    # the kick centre moves: the pure state is conditioned on h at every kick
    rho, _ = evolve_master(pure_density(psi0), schedule, LindbladParams(t_c=1e9))
    target = pure_density(conditioned_run(psi0, schedule))
    assert np.max(np.abs(rho - target)) < 1e-8


def test_trace_and_hermiticity_drift():
    pulse = PulseParams(omega=2 * math.pi * 50e3, rabi_drive=2e4,
                        theta=2 * math.pi, s=1)
    trajs = [linear_trajectory(1.0, 2.0, 9, adiabatic_cap=0.15),
             linear_trajectory(-1.0, -2.0, 9, adiabatic_cap=0.15)]
    schedule = build_tweezer_schedule(trajs, pulse=pulse)
    rho0 = pure_density(cat_state(1.0, 1, 24))
    rho, trace = evolve_master(rho0, schedule, params())
    assert trace.records[-1].trace_err < 1e-6
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-8
    check_density_matrix(rho, positivity_tol=1e-6)


@pytest.mark.parametrize("n_th", [0.0, 0.3])
def test_block_propagator_matches_dense_expm(n_th):
    rng = np.random.default_rng(5)
    p = params(n_th=n_th)
    for dim in (1, 2, 6, 9, 40):
        gen = csr_matrix(dense_generator(dim, p))
        # not Hermitian: both triangles are checked independently
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        for t in (0.003, T_C, 3 * T_C):
            ref = expm_multiply(t * gen, m.ravel()).reshape(dim, dim)
            assert np.max(np.abs(evolve_damped(m, t, p) - ref)) < 1e-12
        # the cached layout is shared, read-only, and gives the same bits twice
        assert not any(a.flags.writeable for a in _damp_layout(dim))
        assert _damp(m, 0.7, n_th).tobytes() == _damp(m, 0.7, n_th).tobytes()
        # block d fills the leading (dim - d) square; the padding is zero
        d, i, j = np.indices((dim, dim, dim))
        assert not _damping_propagator(dim, 0.7, n_th)[np.maximum(i, j) >= dim - d].any()


def test_long_damping_stays_physical():
    p = params(n_th=0.3)
    rho = pure_density(cat_state(2.0, 1, 30))
    for _ in range(8):
        rho = evolve_damped(rho, T_C, p)
        assert abs(np.trace(rho).real - 1.0) < 1e-12
        assert np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min() >= -1e-12


def test_master_schedule_validation():
    rho = pure_density(vacuum(12))
    with pytest.raises(ValueError, match="pulse parameters"):
        evolve_master(rho, Schedule(steps=(Step(kicks=(KickSpec(s=1),)),)), params())
    # every kick sits at the pulse's s, checked before the first step
    pulse = PulseParams(omega=2 * math.pi * 50e3, rabi_drive=3e4, theta=2.0, s=1)
    with pytest.raises(ValueError, match="pulse's s=1 only"):
        evolve_master(rho, Schedule((Step(kicks=(KickSpec(s=1),)), Step(kicks=(KickSpec(s=2),))),
                                    pulse), params())
    with pytest.raises(ValueError, match="no drive steps"):
        evolve_master(rho, Schedule(steps=(Step(displacement=0.5),)), params())
    # undamped is no exception: the drive stays off either way
    with pytest.raises(ValueError, match="no drive steps"):
        evolve_master(rho, Schedule(steps=(Step(displacement=0.5),)), None)
    assert evolve_damped(rho, 0.5, None) is rho


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
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="t_c must be finite"):
            LindbladParams(t_c=bad)
        with pytest.raises(ValueError, match="n_th must be finite"):
            LindbladParams(t_c=1.0, n_th=bad)
        with pytest.raises(ValueError, match="duration must be finite"):
            evolve_damped(np.eye(4) / 4, bad, params())


def test_kick_leak_recorded():
    pulse = PulseParams(omega=2 * math.pi * 50e3, rabi_drive=3e4, theta=2.0, s=1)
    sched = Schedule(steps=(Step(kicks=(KickSpec(s=1, gamma=1.0),)),), pulse=pulse)
    # population on the addressed displaced level leaks out of h hard
    psi = FieldState(displacement_op(1.0, 20)[:, 1])
    _, trace = evolve_master(pure_density(psi), sched, params())
    assert trace.total_kick_leak > 0.5


MASTER_FIELDS = ("t_seconds", "energy", "purity", "fidelity_vs_target", "trace_err", "leak")


@pytest.mark.parametrize("with_target", [True, False])
def test_master_npy_matches_records(with_target, tmp_path):
    pulse = PulseParams(omega=2 * math.pi * 50e3, rabi_drive=2e4,
                        theta=2 * math.pi, s=1)
    trajs = [linear_trajectory(1.0, 1.5, 4, adiabatic_cap=0.15),
             linear_trajectory(-1.0, -1.5, 4, adiabatic_cap=0.15)]
    schedule = build_tweezer_schedule(trajs, pulse=pulse)
    target = cat_state(1.5, 1, 24) if with_target else None
    _, trace = evolve_master(pure_density(cat_state(1.0, 1, 24)), schedule,
                             params(n_th=0.1), target=target)
    np.save(tmp_path / "trace.npy", trace.records)  # as the realistic run writes it
    loaded = np.load(tmp_path / "trace.npy", allow_pickle=False)
    assert loaded.dtype.names == MASTER_FIELDS
    assert all(loaded.dtype[n] == np.float64 for n in MASTER_FIELDS)
    assert len(loaded) == len(trace.records)
    assert loaded.tobytes() == trace.records.tobytes()  # nan fidelities too
    records = trace.records
    assert len(records) == len(schedule.steps) + 1
    fid = records.fidelity_vs_target
    assert np.isfinite(fid).all() if with_target else np.isnan(fid).all()
    for k in range(len(records)):
        assert records.purity[k] == records[k].purity
    records[-1].trace_err = 1e-6  # a record is a view: the column sees the write
    assert records.trace_err[-1] == 1e-6
    with pytest.raises(dataclasses.FrozenInstanceError):
        trace.total_kick_leak = 0.0


def test_leak_column_reads_the_top_levels():
    # a hot bath heats a small cat into the top levels within a few pulses
    dim = 17
    pulse = PulseParams(omega=2 * math.pi * 50e3, rabi_drive=2e4, theta=2 * math.pi, s=1)
    trajs = [linear_trajectory(1.0, 1.5, 4, adiabatic_cap=0.15),
             linear_trajectory(-1.0, -1.5, 4, adiabatic_cap=0.15)]
    schedule = build_tweezer_schedule(trajs, pulse=pulse)
    rho0 = pure_density(cat_state(1.0, 1, dim))
    for p in (None, params(t_c=1e-3, n_th=2.0)):
        rho, trace = evolve_master(rho0, schedule, p)
        leak = trace.records.leak
        assert leak[0] == np.diag(rho0).real[-GUARD_LEVELS:].sum()
        assert leak[-1] == np.diag(rho).real[-GUARD_LEVELS:].sum()
    assert leak[0] < DEFAULT_LEAK_TOL < 1e-3 < leak[-1]
    assert np.all(np.diff(leak) > 0)  # the bath only heats


def identity_kick_schedule():
    """One kick of a zero-angle pulse at the origin: the identity up to rounding."""
    pulse = PulseParams(omega=2 * math.pi * 50e3, rabi_drive=2e4, theta=0.0, s=1)
    return Schedule(steps=(Step(kicks=(KickSpec(s=1, gamma=0.0),)),), pulse=pulse)


def rho_with_smallest_eigenvalue(w, dim=8):
    """A unit-trace Hermitian matrix with eigenvalues (1 - w, w, 0, ...), in a random basis."""
    rng = np.random.default_rng(26)
    u, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    vals = np.zeros(dim)
    vals[:2] = 1.0 - w, w
    return (u * vals) @ u.conj().T


@pytest.mark.parametrize("w", [-1e-5, -1.1e-6])
def test_positivity_guard_aborts_beyond_the_tolerance(w):
    with pytest.raises(RuntimeError, match=rf"positivity violated \({w:.2e}\)"):
        evolve_master(rho_with_smallest_eigenvalue(w), identity_kick_schedule(), None)


@pytest.mark.parametrize("w", [-0.9e-6, -1e-8])
def test_positivity_guard_passes_rounding(w):
    rho0 = rho_with_smallest_eigenvalue(w)
    rho, _ = evolve_master(rho0, identity_kick_schedule(), None)
    assert np.max(np.abs(rho - rho0)) < 1e-12


def test_nan_kick_probability_aborts():
    rho = pure_density(vacuum(8))
    rho[1, 1] = math.nan
    with pytest.raises(RuntimeError, match="annihilated"):
        evolve_master(rho, identity_kick_schedule(), None)


def test_nan_without_kicks_aborts():
    # no kick probability to catch it: the Cholesky factor's last pivot does
    rho = pure_density(vacuum(8))
    rho[1, 1] = math.nan
    with pytest.raises(RuntimeError, match=r"positivity violated \(nan\)"):
        evolve_master(rho, Schedule(steps=(Step(),)), None)
