"""Executes a run config: builds the protocol, runs it, writes artifacts.

Every run emits into its output directory:

    trace.csv                      per-step diagnostics (engine or master)
    wigner_stepNNNNNN.{csv,pgm}    snapshots where requested
    state_stepNNNNNN.txt           amplitude dumps (index re im) if enabled
    wigner_final.{csv,pgm}         four_cat's final state (state_final.txt)
    summary.json                   machine-readable result

Identical configs give bit-identical CSV output; there is no randomness
anywhere in the artifact.
"""

from __future__ import annotations

import json
import logging
import math
import time
from pathlib import Path
from typing import Any

from . import config, fock, phasespace, protocols, zeno
from .atomkick import PulseParams
from .openquantum import (
    LindbladParams,
    evolve_master,
    fidelity_mixed,
    pure_density,
)

logger = logging.getLogger(__name__)


def _initial_state(cfg: config.RunConfig) -> fock.FieldState:
    if cfg.cat_init is not None:
        return fock.cat_state(cfg.cat_init, 1.0, cfg.dim)
    if cfg.alpha_init != 0:
        return fock.coherent(cfg.alpha_init, cfg.dim)
    return fock.vacuum(cfg.dim)


def _kick_spec(cfg: config.ZenoConfig) -> zeno.KickSpec:
    if cfg.kick_theta:
        pulse = PulseParams(
            omega=cfg.kick_omega,
            rabi_drive=cfg.kick_rabi_drive,
            theta=cfg.kick_theta,
            s=cfg.s,
        )
        return zeno.KickSpec(s=cfg.s, pulse=pulse)
    return zeno.KickSpec(s=cfg.s)


def _snapshot_steps(cfg: config.ZenoConfig) -> tuple[int, ...]:
    steps = set(cfg.snapshot_steps)
    if cfg.snapshot_every > 0:
        steps.update(range(0, cfg.steps + 1, cfg.snapshot_every))
    return tuple(sorted(steps))


def _wigner_bounds(cfg: config.RunConfig) -> tuple[float, float, float, float]:
    """The configured window, else a square that holds the kick circle
    (s = 6 where the protocol has no s) and every configured amplitude."""
    if cfg.wigner.bounds is not None:
        return cfg.wigner.bounds
    reach = math.sqrt(max(getattr(cfg, "s", 6), 1)) + 3.0
    for traj in getattr(cfg, "trajectories", ()):
        reach = max(reach, abs(traj.start) + 2.0, abs(traj.stop) + 2.0)
    for val in (getattr(cfg, k, 0) for k in ("alpha_init", "cat_init", "target_alpha")):
        if val:
            reach = max(reach, abs(complex(val)) + 3.0)
    return (-reach, reach, -reach, reach)


def _write_wigner(
    state, cfg: config.RunConfig, outdir: Path, stem: str
) -> phasespace.WignerGrid:
    grid = phasespace.wigner_grid(
        state, _wigner_bounds(cfg), nx=cfg.wigner.nx, ny=cfg.wigner.ny
    )
    with open(outdir / f"{stem}.csv", "w", encoding="utf-8") as fh:
        phasespace.export_csv(grid, fh)
    with open(outdir / f"{stem}.pgm", "w", encoding="utf-8") as fh:
        phasespace.export_pgm(grid, fh)
    return grid


def _write_state(state: fock.FieldState, outdir: Path, stem: str) -> None:
    with open(outdir / f"{stem}.txt", "w", encoding="utf-8") as fh:
        for n, c in enumerate(state.amps):
            fh.write(f"{n} {c.real:.17g} {c.imag:.17g}\n")


def _emit_trace_artifacts(
    trace: zeno.EvolutionTrace, cfg: config.RunConfig, outdir: Path
) -> None:
    with open(outdir / "trace.csv", "w", encoding="utf-8") as fh:
        trace.to_csv(fh)
    for step, state in trace.states.items():
        _write_wigner(state, cfg, outdir, f"wigner_step{step:06d}")
        if cfg.dump_states:
            _write_state(state, outdir, f"state_step{step:06d}")


def _zeno_protocol(cfg: config.ZenoConfig, outdir: Path) -> dict[str, Any]:
    state = _initial_state(cfg)
    spec = _kick_spec(cfg)
    schedule = zeno.uniform_schedule(cfg.steps, cfg.beta, [spec])
    snaps = _snapshot_steps(cfg)
    trace = zeno.zeno_run(
        state, schedule,
        record_every=cfg.record_every,
        snapshot_steps=snaps,
        guard_levels=cfg.guard_levels,
        leak_tol=cfg.leak_tol,
    )
    _emit_trace_artifacts(trace, cfg, outdir)
    summary: dict[str, Any] = {
        "energy": float(trace.energies[-1]),
        "leak": float(trace.leaks[-1]),
        "atom_leak": trace.final_atom_leak,
        "truncation_ok": True,  # zeno_run raises on a leak
        "renormalizations": trace.renormalizations,
        "fidelity": None,
        "snapshots": list(snaps),
    }
    if cfg.kick_theta:
        # reference run with ideal kicks, same schedule
        ideal = zeno.zeno_run(
            state,
            zeno.uniform_schedule(cfg.steps, cfg.beta, [zeno.KickSpec(s=cfg.s)]),
            record_every=max(cfg.steps, 1),
            guard_levels=cfg.guard_levels,
            leak_tol=cfg.leak_tol,
        )
        summary["fidelity"] = fock.fidelity_pure(trace.final_state, ideal.final_state)
    return summary


def _stretch_protocol(cfg: config.StretchConfig, outdir: Path) -> dict[str, Any]:
    dim = cfg.dim
    state = fock.FieldState(
        fock.coherent(cfg.gamma, dim).amps + fock.coherent(cfg.alpha_free, dim).amps
    )
    out, fid = protocols.stretch_cat(
        state, cfg.gamma, cfg.beta, cfg.steps,
        alpha=cfg.alpha_free, overlap_tol=cfg.overlap_tol,
        guard_levels=cfg.guard_levels, leak_tol=cfg.leak_tol,
    )
    _write_wigner(out, cfg, outdir, f"wigner_step{cfg.steps:06d}")
    if cfg.dump_states:
        _write_state(out, outdir, f"state_step{cfg.steps:06d}")
    rep = fock.truncation_check(out, cfg.guard_levels, cfg.leak_tol)
    return {
        "energy": fock.mean_energy(out),
        "leak": rep.top_population,
        "fidelity": fid,
        "truncation_ok": rep.ok,
    }


def _tweezer_protocol(cfg: config.TweezerConfig, outdir: Path) -> dict[str, Any]:
    state = _initial_state(cfg)
    trajs = [
        protocols.linear_trajectory(
            t.start, t.stop, t.steps, s=t.s, adiabatic_cap=t.adiabatic_cap
        )
        for t in cfg.trajectories
    ]
    positions = cfg.component_positions or tuple(t.start for t in cfg.trajectories)
    final, trace = protocols.tweezer_run(
        state, trajs,
        interleave=cfg.interleave,
        component_positions=positions,
        overlap_tol=cfg.overlap_tol,
        record_every=cfg.record_every,
        guard_levels=cfg.guard_levels,
        leak_tol=cfg.leak_tol,
    )
    _write_wigner(state, cfg, outdir, "wigner_step000000")
    _write_wigner(final, cfg, outdir, f"wigner_step{trace.steps[-1]:06d}")
    if cfg.dump_states:
        _write_state(final, outdir, f"state_step{trace.steps[-1]:06d}")
    _emit_trace_artifacts(trace, cfg, outdir)
    fid = None
    if cfg.target_alpha is not None:
        fid = fock.fidelity_pure(final, fock.cat_state(cfg.target_alpha, 1.0, cfg.dim))
    return {
        "energy": fock.mean_energy(final),
        "leak": float(trace.leaks[-1]),
        "fidelity": fid,
        "truncation_ok": True,  # zeno_run raises on a leak
        "kicks": trace.kicks,
    }


def _crush_protocol(cfg: config.CrushConfig, outdir: Path) -> dict[str, Any]:
    state = _initial_state(cfg)
    a, b = cfg.crush_centers
    final, trace = protocols.crush_between(
        state, a, b, cfg.crush_steps, record_every=cfg.record_every,
        guard_levels=cfg.guard_levels, leak_tol=cfg.leak_tol,
    )
    _emit_trace_artifacts(trace, cfg, outdir)
    _write_wigner(final, cfg, outdir, f"wigner_step{trace.steps[-1]:06d}")
    if cfg.dump_states:
        _write_state(final, outdir, f"state_step{trace.steps[-1]:06d}")
    energy, matched_alpha, fid = protocols.crush_fidelity_vs_matched_cat(final)
    return {
        "energy": energy,
        "matched_cat_amplitude": matched_alpha,
        "fidelity": fid,
        "leak": float(trace.leaks[-1]),
        "truncation_ok": True,
    }


def _four_cat_protocol(cfg: config.FourCatConfig, outdir: Path) -> dict[str, Any]:
    final = protocols.multi_cat_factory(
        cfg.n_components, cfg.dim,
        separation=cfg.separation,
        steps_per_crush=cfg.steps_per_crush,
        guard_levels=cfg.guard_levels, leak_tol=cfg.leak_tol,
    )
    grid = _write_wigner(final, cfg, outdir, "wigner_final")
    if cfg.dump_states:
        _write_state(final, outdir, "state_final")
    rep = fock.truncation_check(final, cfg.guard_levels, cfg.leak_tol)
    return {
        "energy": fock.mean_energy(final),
        "lobes": phasespace.count_lobes(grid),
        "leak": rep.top_population,
        "truncation_ok": rep.ok,
        "fidelity": None,
    }


def realistic_point(
    cfg: config.RealisticConfig, theta: float, damping: bool = True, keep_trace: bool = False
):
    """One damped tweezer run at the given Rabi angle.

    Returns (fidelity vs target cat, total duration in s, kick leak), plus
    the master trace when keep_trace is set. The drive Rabi frequency
    follows from spreading the configured total duration over the pulses
    unless rabi_drive is set explicitly.
    """
    n_wp = cfg.waypoints_per_component
    n_pulses = 2 * n_wp
    if cfg.pulse.rabi_drive > 0:
        rabi = cfg.pulse.rabi_drive
    else:
        tau = cfg.pulse.total_duration / n_pulses
        rabi = theta * math.sqrt(2.0) / tau
    pulse = PulseParams(omega=cfg.pulse.omega, rabi_drive=rabi, theta=theta, s=1)
    start, stop = cfg.cat_init, cfg.target_alpha
    cap = abs(stop - start) / max(n_wp - 1, 1) * (1 + 1e-9)
    trajs = [
        protocols.linear_trajectory(start, stop, n_wp - 1, adiabatic_cap=cap),
        protocols.linear_trajectory(-start, -stop, n_wp - 1, adiabatic_cap=cap),
    ]
    schedule = protocols.build_tweezer_schedule(
        trajs, interleave=cfg.interleave, pulse=pulse
    )
    duration = sum(sum(k.pulse.duration for k in step.kicks) for step in schedule.steps)
    psi0 = fock.cat_state(start, 1.0, cfg.dim)
    target = fock.cat_state(stop, 1.0, cfg.dim)
    params = LindbladParams(cfg.lindblad.t_c, cfg.lindblad.n_th) if damping else None
    rho, trace = evolve_master(pure_density(psi0), schedule, params, target=target)
    fid = fidelity_mixed(rho, target)
    if keep_trace:
        return fid, duration, trace.total_kick_leak, trace
    return fid, duration, trace.total_kick_leak


def _realistic_protocol(cfg: config.RealisticConfig, outdir: Path) -> dict[str, Any]:
    rows = []
    best = None
    best_trace = None
    for theta in cfg.theta_grid:
        fid, duration, leak, trace = realistic_point(
            cfg, theta, damping=True, keep_trace=True
        )
        rows.append({"theta": theta, "fidelity": fid, "duration_s": duration,
                     "kick_leak": leak})
        if best is None or fid > best["fidelity"]:
            best = rows[-1]
            best_trace = trace
    with open(outdir / "trace.csv", "w", encoding="utf-8") as fh:
        best_trace.to_csv(fh)
    fid_undamped, _, _ = realistic_point(cfg, best["theta"], damping=False)
    with open(outdir / "grid.csv", "w", encoding="utf-8") as fh:
        fh.write("theta,fidelity,duration_s,kick_leak\n")
        for r in rows:
            fh.write(
                f"{r['theta']:.17g},{r['fidelity']:.17g},"
                f"{r['duration_s']:.17g},{r['kick_leak']:.17g}\n"
            )
    return {
        "fidelity": best["fidelity"],
        "best_theta": best["theta"],
        "duration_s": best["duration_s"],
        "kick_leak": best["kick_leak"],
        "fidelity_undamped": fid_undamped,
        "energy": None,
        "leak": None,
        "truncation_ok": True,
        "grid": rows,
    }


_PROTOCOLS = {
    config.ZenoConfig: _zeno_protocol,
    config.StretchConfig: _stretch_protocol,
    config.TweezerConfig: _tweezer_protocol,
    config.CrushConfig: _crush_protocol,
    config.FourCatConfig: _four_cat_protocol,
    config.RealisticConfig: _realistic_protocol,
}


def run_config(cfg: config.RunConfig, outdir: str | Path) -> dict[str, Any]:
    """Execute a validated config; returns the summary (also written to disk)."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    summary = _PROTOCOLS[type(cfg)](cfg, out)
    summary["protocol"] = cfg.protocol
    summary["dim"] = cfg.dim
    summary["wall_time_s"] = time.perf_counter() - t0
    with open(out / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
    return summary
