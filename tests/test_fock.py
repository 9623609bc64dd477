import math

import numpy as np
import pytest

from zenocavity.fock import (
    FieldState,
    TruncationError,
    annihilation_op,
    cat_state,
    coherent,
    creation_op,
    displacement_op,
    fidelity_pure,
    fock_basis,
    mean_energy,
    number_op,
    photon_distribution,
    truncation_check,
    vacuum,
)


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
    coherent(5, 26, enforce_truncation=False)  # explicit opt-out builds


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
    rep = truncation_check(vacuum(10), 3, 1e-6)
    assert rep.ok and rep.top_population == 0
    clipped = coherent(5, 26, enforce_truncation=False)
    rep = truncation_check(clipped, 3, 1e-6)
    assert not rep.ok
    # oracle: renormalized Poisson tail of the clipped basis is macroscopic
    lam = 25.0
    weights = [poisson_pmf(k, lam) for k in range(26)]
    tail = sum(weights[23:]) / sum(weights)
    assert abs(rep.top_population - tail) < 1e-6
    assert truncation_check(coherent(5, 80), 3, 1e-6).ok


def test_states_normalized_and_immutable():
    st = coherent(1.5, 30)
    assert abs(np.linalg.norm(st.amps) - 1) <= 1e-12
    with pytest.raises(ValueError):
        st.amps[0] = 1.0
