import math

import numpy as np
import pytest
from reference import number_op, truncation_check
from scipy.linalg import expm

from zenocavity.config import parse_config, preset_raw
from zenocavity.fock import (
    GUARD_LEVELS,
    FieldState,
    TruncationError,
    _fock_column,
    annihilation_op,
    cat_state,
    check_fits,
    check_guard_band,
    coherent,
    creation_op,
    displaced_fock,
    displacement_op,
    fidelity_pure,
    fock_basis,
    mean_energy,
    photon_distribution,
    required_dim,
    vacuum,
)
from zenocavity.runner import run_config
from zenocavity.zeno import KickSpec, uniform_schedule, zeno_run


def poisson_pmf(k, lam):
    # independent oracle: Poisson formula in log space
    return math.exp(-lam + k * math.log(lam) - math.lgamma(k + 1))


def test_fock_basis_examples():
    st = fock_basis(0, 10)
    assert st.amps[0] == 1.0 and np.all(st.amps[1:] == 0)
    st = fock_basis(6, 15)
    assert st.amps[6] == 1.0
    assert abs(np.linalg.norm(st.amps) - 1) < 1e-12
    with pytest.raises(IndexError):
        fock_basis(15, 15)
    with pytest.raises(IndexError):
        fock_basis(-1, 15)


def test_coherent_vacuum_and_energy():
    assert fidelity_pure(coherent(0, 10), vacuum(10)) == 1.0
    assert abs(mean_energy(coherent(2, 40)) - 4.0) < 1e-6


def test_coherent_poisson_distribution():
    st = coherent(-5, 80)
    p = photon_distribution(st)
    assert abs(p[25] - poisson_pmf(25, 25.0)) < 1e-9
    assert abs(p[25] - 0.0795) < 5e-4


def test_coherent_truncation_guard():
    with pytest.raises(TruncationError):
        coherent(5, 26)


def test_displacement_unitary_and_identity():
    d0 = displacement_op(0, 12)
    assert np.allclose(d0, np.eye(12))
    d = displacement_op(0.1, 24)
    dm = displacement_op(-0.1, 24)
    assert np.max(np.abs(d @ dm - np.eye(24))) < 1e-10
    assert np.max(np.abs(dm - d.conj().T)) < 1e-12


def test_displacement_vacuum_overlap():
    d = displacement_op(1.0, 40)
    assert abs(d[0, 0] - math.exp(-0.5)) < 1e-10


def test_displacement_unitarity_large_amplitude():
    for beta in (2.0, 3 + 2j, 5.0):
        dim = 170
        d = displacement_op(beta, dim)
        assert np.max(np.abs(d.conj().T @ d - np.eye(dim))) < 1e-10


def test_displacement_cache_keeps_at_most_32_drives():
    # a sweep draws a new drive per point, which only that point reuses
    displacement_op.cache_clear()
    for k in range(40):
        zeno_run(vacuum(24), uniform_schedule(2, 0.01 * (k + 1), [KickSpec(6)]))
    info = displacement_op.cache_info()
    assert info.misses == 40 and info.currsize <= 32


def test_realistic_preset_builds_each_kick_centre_once(tmp_path):
    # 10 dressed-kick centres, reused by the 4 damped angles and the undamped rerun
    displacement_op.cache_clear()
    run_config(parse_config(preset_raw("realistic")), tmp_path)
    info = displacement_op.cache_info()
    assert (info.misses, info.hits) == (10, 40)


def test_displacement_composition_law():
    # D(b1) D(b2) = exp(i Im(b1 conj(b2))) D(b1 + b2) on the well-truncated block
    dim = 170
    cases = [(0.3 + 0.2j, -0.5j, 40), (1 + 1j, 0.7, 40), (2.0, -1.5j, 40),
             (3.0, -2.0j, 40), (4.0 + 0j, -3.0j, 25), (2.5 + 2.5j, -2.0, 25)]
    for b1, b2, k in cases:
        lhs = displacement_op(b1, dim) @ displacement_op(b2, dim)
        rhs = np.exp(1j * (b1 * np.conj(b2)).imag) * displacement_op(b1 + b2, dim)
        assert np.max(np.abs(lhs[:k, :k] - rhs[:k, :k])) < 1e-9


def test_coherent_equals_displaced_vacuum():
    for alpha in (0.7, -1.5 + 0.5j, 2.0):
        dim = 48
        built = coherent(alpha, dim)
        displaced = FieldState(displacement_op(alpha, dim) @ vacuum(dim).amps)
        assert fidelity_pure(built, displaced) > 1 - 1e-8
        assert np.max(np.abs(built.amps - displaced.amps * np.exp(
            -1j * np.angle(displaced.amps[0]) + 1j * np.angle(built.amps[0])
        ))) < 1e-7


def test_ladder_operators():
    dim = 12
    a = annihilation_op(dim)
    out = a @ fock_basis(1, dim).amps
    assert np.allclose(out, fock_basis(0, dim).amps)
    n = number_op(dim)
    assert n[6, 6] == 6
    comm = a @ creation_op(dim) - creation_op(dim) @ a
    # identity up to sqrt(n)*sqrt(n) roundoff; the truncation artifact
    # itself sits only in the last row/column
    assert np.max(np.abs(comm[: dim - 1, : dim - 1] - np.eye(dim - 1))) < 1e-13
    assert abs(comm[dim - 1, dim - 1] + (dim - 1)) < 1e-12


def test_cat_state_properties():
    assert fidelity_pure(cat_state(1e-8, 1, 12), vacuum(12)) > 1 - 1e-12
    p = photon_distribution(cat_state(2, 1, 40))
    assert np.all(p[1::2] < 1e-12)
    expected = 4 * math.tanh(4)  # direct-summation oracle agrees with this closed form
    n = np.arange(40)
    direct = float(n @ p)
    assert abs(direct - expected) < 1e-9
    assert abs(mean_energy(cat_state(2, 1, 40)) - expected) < 1e-9
    with pytest.raises(ValueError):
        cat_state(2, 2.0, 40)


def test_fidelity_examples():
    psi = coherent(1.3, 30)
    assert abs(fidelity_pure(psi, psi) - 1) < 1e-12
    assert fidelity_pure(fock_basis(0, 8), fock_basis(1, 8)) == 0
    assert abs(fidelity_pure(coherent(0, 40), coherent(1, 40)) - math.exp(-1)) < 1e-9
    with pytest.raises(ValueError):
        fidelity_pure(vacuum(8), vacuum(9))


def test_fidelity_symmetric_and_phase_invariant():
    a = coherent(0.8 + 0.3j, 30)
    b = cat_state(1.1, -1, 30)
    assert abs(fidelity_pure(a, b) - fidelity_pure(b, a)) < 1e-14
    rotated = FieldState(np.exp(0.77j) * a.amps)
    assert abs(fidelity_pure(rotated, b) - fidelity_pure(a, b)) < 1e-12


def test_truncation_check():
    rep = truncation_check(vacuum(10), 1e-6)
    assert rep.ok and rep.top_population == 0
    clipped = FieldState(_fock_column(0, [5], 26)[0])  # |5> clipped to 26 levels
    rep = truncation_check(clipped, 1e-6)
    assert not rep.ok
    # oracle: renormalized Poisson tail of the clipped basis is macroscopic
    lam = 25.0
    weights = [poisson_pmf(k, lam) for k in range(26)]
    tail = sum(weights[23:]) / sum(weights)
    assert abs(rep.top_population - tail) < 1e-6
    assert truncation_check(coherent(5, 80), 1e-6).ok
    with pytest.raises(ValueError, match="guard levels"):
        truncation_check(vacuum(3))  # the band would be the whole basis


def test_states_normalized_and_immutable():
    st = coherent(1.5, 30)
    assert abs(np.linalg.norm(st.amps) - 1) <= 1e-12
    with pytest.raises(ValueError):
        st.amps[0] = 1.0


def test_state_dim_is_the_amplitude_count():
    assert FieldState(np.ones(5)).dim == 5
    with pytest.raises(TypeError):
        FieldState(np.ones(5), dim=5)  # used to be taken and ignored
    with pytest.raises(TypeError):
        FieldState(np.ones(5), 3)


def test_required_dim_in_floats():
    assert required_dim(3 + 4j) == 25.0 + 30.0 + 10.0
    assert required_dim(-5) == required_dim(5j) == 65.0
    # |z| from hypot: no OverflowError where |z|^2 or a part's square overflows
    assert required_dim(1e308) == required_dim(complex(1.7e308, 1.7e308)) == math.inf
    assert required_dim(complex(3e200, 4e200)) == math.inf
    assert math.isnan(required_dim(math.nan))
    with pytest.raises(TruncationError, match="= 65, got dim=64"):
        coherent(5, 64)
    coherent(5, 65)


def test_basis_rules_have_one_message_each():
    # the truncation rule, for coherent states and kick centres alike
    check_fits(5, 65)
    check_fits(0, 10)
    for z, dim, text in ((5j, 64, "|z| = 5 needs dim >= |z|^2 + 6|z| + 10 = 65, got dim=64"),
                         (3.25, 40, "|z| = 3.25 needs dim >= |z|^2 + 6|z| + 10 = 40.0625, "
                                    "got dim=40"),
                         (0, 9, "|z| = 0 needs dim >= |z|^2 + 6|z| + 10 = 10, got dim=9"),
                         (complex(1.7e308, 1.7e308), 256, "|z| = inf needs"),
                         (complex(math.nan, 0), 256, "|z| = nan needs")):
        with pytest.raises(TruncationError) as err:
            check_fits(z, dim)
        assert str(err.value).startswith(text)
    # the guard band, the top GUARD_LEVELS levels
    check_guard_band(6, 10)
    for s, dim in ((7, 10), (1, 4), (0, 3)):
        with pytest.raises(ValueError) as err:
            check_guard_band(s, dim)
        assert str(err.value) == (f"kick at s={s} reaches the guard band, "
                                  f"the top {GUARD_LEVELS} levels of dim={dim}")


def padded_displacement(gamma, dim, pad=250):
    # independent oracle: expm of the generator on dim + pad levels, cut at dim
    big = dim + pad
    a = np.diag(np.sqrt(np.arange(1, big, dtype=float)), k=1).astype(complex)
    return expm(gamma * a.conj().T - np.conj(gamma) * a)[:dim, :dim]


@pytest.mark.parametrize("dim, ns, gamma_max", [
    (40, range(8), 1.42),  # criterion 9
    (64, [1], 3.6),        # fig4d
    (80, [1], 5.6),        # tweezer moves of the benchmark
    (80, [30], 3.0),
    (120, [60], 2.0),
])
def test_displaced_fock_matches_padded_expm(dim, ns, gamma_max):
    rng = np.random.default_rng(dim + max(ns))
    inside = gamma_max * math.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0, 2 * math.pi))
    for gamma in (inside, gamma_max * np.exp(2.2j)):  # the edge: the widest column
        d = padded_displacement(gamma, dim)
        for n in ns:
            v = displaced_fock(n, gamma, dim)
            ref = d[:, n] / np.linalg.norm(d[:, n])
            phase = np.vdot(v, ref) / abs(np.vdot(v, ref))  # global phase only
            assert v.dtype == np.complex128
            assert abs(np.linalg.norm(v) - 1) < 1e-14
            assert np.max(np.abs(v * phase - ref)) < 1e-12


def test_displaced_fock_at_zero_is_the_number_state():
    for n in (0, 3, 29):
        assert np.array_equal(displaced_fock(n, 0, 30), fock_basis(n, 30).amps)
    with pytest.raises(IndexError):
        displaced_fock(30, 0.5, 30)


def test_displaced_fock_rows_match_single_columns():
    rng = np.random.default_rng(14)
    for n, dim in [(0, 10), (1, 40), (7, 80), (30, 160), (0, 160), (7, 10)]:
        reach = max(math.sqrt(dim - 1.0) - 3.0, 0.5)
        gammas = reach * np.sqrt(rng.uniform(size=9)) * np.exp(2j * math.pi * rng.uniform(size=9))
        gammas[[0, 4]] = 0.0  # number-state rows among displaced ones
        rows = displaced_fock(n, gammas, dim)
        assert rows.shape == (gammas.size, dim) and rows.dtype == np.complex128
        for gamma, row in zip(gammas, rows):
            assert np.array_equal(row, displaced_fock(n, gamma, dim))
    with pytest.raises(IndexError):
        displaced_fock(10, [0.5, 0.0], 10)


def test_coherent_matches_log_space_reference_bit_for_bit():
    # the closed form alpha^n / sqrt(n!) e^{-|alpha|^2/2} as coherent built it
    # before it became the n = 0 column of displaced_fock
    def reference(alpha, dim):
        n = np.arange(dim)
        log_fact = np.array([math.lgamma(k + 1.0) for k in n])
        log_mag = n * math.log(abs(alpha)) - 0.5 * log_fact - 0.5 * abs(alpha) ** 2
        return FieldState(np.exp(log_mag) * np.exp(1j * n * np.angle(alpha))).amps

    rng = np.random.default_rng(11)
    for _ in range(200):
        dim = int(rng.integers(10, 161))
        alpha = complex(*rng.uniform(-1, 1, 2)) * max(math.sqrt(dim - 1.0) - 3.0, 0.5)
        if required_dim(alpha) <= dim:
            built = coherent(alpha, dim).amps
        else:  # beyond the truncation rule coherent refuses; the column is the same
            built = FieldState(_fock_column(0, [alpha], dim)[0]).amps
        assert np.array_equal(built, reference(alpha, dim))


def test_displaced_fock_rows_are_normalized_as_linalg_norm_bit_for_bit():
    # the stacked renormalisation rests on how numpy computes a complex norm:
    # a numpy release that changes it fails here, not in the artifacts
    rng = np.random.default_rng(31)
    for dim in (20, 48, 64, 80, 128):
        reach = math.sqrt(dim - 1.0) - 3.0
        for n in (0, 1, 3, 6):
            gammas = reach * np.sqrt(rng.uniform(size=13)) * np.exp(2j * math.pi * rng.uniform(size=13))
            gammas[[0, 7]] = 0.0
            rows = displaced_fock(n, gammas, dim)
            for col, row in zip(_fock_column(n, gammas, dim), rows):
                assert row.tobytes() == (col / np.linalg.norm(col)).tobytes()


def test_cat_state_sums_its_coherent_lobes_bit_for_bit():
    rng = np.random.default_rng(32)
    cases = [(0.0, 1.0, 12), (0j, 1j, 40)]
    for _ in range(60):
        dim = int(rng.integers(16, 129))
        reach = math.sqrt(dim - 1.0) - 3.0
        alpha = reach * math.sqrt(rng.uniform()) * np.exp(2j * math.pi * rng.uniform())
        cases.append((complex(alpha), np.exp(2j * math.pi * rng.uniform()), dim))
    for alpha, phase, dim in cases:  # each within the truncation rule
        lobes = coherent(alpha, dim).amps + complex(phase) * coherent(-alpha, dim).amps
        assert cat_state(alpha, phase, dim).amps.tobytes() == FieldState(lobes).amps.tobytes()
    with pytest.raises(TruncationError) as refused:
        coherent(5, 64)
    with pytest.raises(TruncationError) as cat_refused:
        cat_state(5, 1, 64)
    assert str(cat_refused.value) == str(refused.value) == (
        "|z| = 5 needs dim >= |z|^2 + 6|z| + 10 = 65, got dim=64")
    with pytest.raises(ValueError, match="dim must be >= 2"):
        cat_state(0.0, 1, 1)
