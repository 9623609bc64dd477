"""Executes a run config: builds the protocol, runs it, writes artifacts.

A run writes into its output directory:

    trace.npy                      per-step diagnostics (engine or master), the
                                   trace's records array as one structured array
    grid.csv                       realistic: one row per pulse angle
    wigner_stepNNNNNN.{csv,pgm}    snapshots, final states, a tweezer's start
    state_stepNNNNNN.txt           amplitude dumps (index re im) if enabled
    wigner_final.{csv,pgm}         four_cat's final state (state_final.txt)
    summary.json                   machine-readable result

Identical configs give bit-identical artifacts (.npy, CSV, PGM and text)
on the same machine, with the same numpy and BLAS builds and the same BLAS
thread count; there is no randomness anywhere in the artifact. Wigner
rasters can differ in the last digits between thread counts, since a
threaded BLAS splits their matrix product; summary.json records the thread
settings the process saw (blas_threads).

A dressed-kick Zeno run (kick_theta set) reports its fidelity against the
same schedule run with ideal kicks. That reference's final state is kept
per process, one per key of the values it depends on, at most
IDEAL_MEMO_SIZE of them with the oldest dropped first: an ideal-kick run
stores its final state, and a dressed run reuses a stored one instead of
repeating the run. The reference is the same run either way, so the memo
changes no artifact.
"""

from __future__ import annotations

import json
import logging
import math
import os
import time
from pathlib import Path
from typing import Any

import numpy as np

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


def _wigner_bounds(cfg: config.RunConfig) -> tuple[float, float, float, float]:
    """The configured window, else a square that holds the kick circle
    (s = 6 where the protocol has no s) and every configured amplitude."""
    if cfg.wigner.bounds is not None:
        return cfg.wigner.bounds
    reach = math.sqrt(max(getattr(cfg, "s", 6), 1)) + 3.0
    ends = [z for traj in getattr(cfg, "trajectories", ()) for z in (traj.start, traj.stop)]
    if isinstance(cfg, config.StretchConfig):
        # the hold point and where the free component starts and stops
        ends += [cfg.gamma, cfg.alpha_free, cfg.alpha_free + cfg.steps * cfg.beta]
    for z in ends:
        reach = max(reach, abs(z) + 2.0)
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


def _write_picture(
    state: fock.FieldState, cfg: config.RunConfig, outdir: Path, suffix: str
) -> phasespace.WignerGrid:
    """wigner_<suffix>.{csv,pgm}, and state_<suffix>.txt (index re im) with dump_states."""
    if cfg.dump_states:
        template = "".join(f"{n} %.17g %.17g\n" for n in range(state.dim))
        with open(outdir / f"state_{suffix}.txt", "w", encoding="utf-8") as fh:
            fh.write(template % tuple(state.amps.view(np.float64).tolist()))
    return _write_wigner(state, cfg, outdir, f"wigner_{suffix}")


def _leak_report(leak: float, leak_tol: float) -> dict[str, Any]:
    """leak, the run's largest guard-band population over every step, against leak_tol."""
    return {"leak": leak, "truncation_ok": leak < leak_tol}


def _emit_trace_artifacts(
    trace: zeno.EvolutionTrace, cfg: config.RunConfig, outdir: Path
) -> None:
    np.save(outdir / "trace.npy", trace.records)
    for step, state in trace.states.items():
        _write_picture(state, cfg, outdir, f"step{step:06d}")


#: ideal-kick final states by _ideal_key, oldest first; per process
_IDEAL_FINALS: dict[tuple, fock.FieldState] = {}
IDEAL_MEMO_SIZE = 16


def _ideal_key(cfg: config.ZenoConfig) -> tuple:
    """Every value the final state of cfg's run with ideal kicks depends on;
    the pulse, record_every and the snapshots do not enter it."""
    cat = None if cfg.cat_init is None else complex(cfg.cat_init)
    return (cfg.dim, cfg.s, complex(cfg.beta), cfg.steps, cfg.leak_tol,
            complex(cfg.alpha_init), cat)


def _remember_ideal(key: tuple, state: fock.FieldState) -> None:
    _IDEAL_FINALS[key] = state
    for old in list(_IDEAL_FINALS)[:-IDEAL_MEMO_SIZE]:
        _IDEAL_FINALS.pop(old, None)  # another thread may have dropped it


def _zeno_protocol(cfg: config.ZenoConfig, outdir: Path) -> dict[str, Any]:
    state = _initial_state(cfg)
    schedule = zeno.uniform_schedule(cfg.steps, cfg.beta, [zeno.KickSpec(cfg.s)], cfg.pulse())
    snaps = range(0, cfg.steps + 1, cfg.snapshot_every) if cfg.snapshot_every else ()
    trace = zeno.zeno_run(state, schedule, record_every=cfg.record_every, snapshot_steps=snaps,
                          leak_tol=cfg.leak_tol)
    key = _ideal_key(cfg)
    fid = None
    if cfg.kick_theta:
        # reference: the same schedule with ideal kicks, run once per key and
        # before any file is written, since it can leak too
        ideal = _IDEAL_FINALS.get(key)
        if ideal is None:
            ideal = zeno.zeno_run(state, schedule._replace(pulse=None), record_every=cfg.steps,
                                  leak_tol=cfg.leak_tol).final_state
            _remember_ideal(key, ideal)
        fid = fock.fidelity_pure(trace.final_state, ideal)
    else:
        _remember_ideal(key, trace.final_state)
    _emit_trace_artifacts(trace, cfg, outdir)
    return {
        "energy": float(trace.energies[-1]),
        **_leak_report(trace.max_leak, cfg.leak_tol),
        "atom_leak": trace.final_atom_leak,
        "renormalizations": trace.renormalizations,
        "fidelity": fid,
        "snapshots": list(snaps),
    }


def _stretch_protocol(cfg: config.StretchConfig, outdir: Path) -> dict[str, Any]:
    dim = cfg.dim
    state = fock.FieldState(
        fock.coherent(cfg.gamma, dim).amps + fock.coherent(cfg.alpha_free, dim).amps
    )
    trace, fid = protocols.stretch_cat(
        state, cfg.gamma, cfg.beta, cfg.steps, alpha=cfg.alpha_free, leak_tol=cfg.leak_tol
    )
    _write_picture(trace.final_state, cfg, outdir, f"step{cfg.steps:06d}")
    return {
        "energy": fock.mean_energy(trace.final_state),
        **_leak_report(trace.max_leak, cfg.leak_tol),
        "fidelity": fid,
    }


def _tweezer_protocol(cfg: config.TweezerConfig, outdir: Path) -> dict[str, Any]:
    state = _initial_state(cfg)
    final, trace = protocols.tweezer_run(
        state, [t.trajectory() for t in cfg.trajectories], interleave=cfg.interleave,
        record_every=cfg.record_every, leak_tol=cfg.leak_tol,
    )
    _write_wigner(state, cfg, outdir, "wigner_step000000")
    _write_picture(final, cfg, outdir, f"step{trace.steps[-1]:06d}")
    _emit_trace_artifacts(trace, cfg, outdir)
    fid = None
    if cfg.target_alpha is not None:
        fid = fock.fidelity_pure(final, fock.cat_state(cfg.target_alpha, 1.0, cfg.dim))
    return {
        "energy": fock.mean_energy(final),
        **_leak_report(trace.max_leak, cfg.leak_tol),
        "fidelity": fid,
        "kicks": trace.kicks,
    }


def _crush_protocol(cfg: config.CrushConfig, outdir: Path) -> dict[str, Any]:
    state = _initial_state(cfg)
    a, b = cfg.crush_centers
    final, trace = protocols.crush_between(
        state, a, b, cfg.crush_steps, record_every=cfg.record_every, leak_tol=cfg.leak_tol
    )
    # the matched cat may not fit the basis: fail before any file is written
    energy, matched_alpha, fid = protocols.crush_fidelity_vs_matched_cat(final)
    _emit_trace_artifacts(trace, cfg, outdir)
    _write_picture(final, cfg, outdir, f"step{trace.steps[-1]:06d}")
    return {
        "energy": energy,
        "matched_cat_amplitude": matched_alpha,
        "fidelity": fid,
        **_leak_report(trace.max_leak, cfg.leak_tol),
    }


def _four_cat_protocol(cfg: config.FourCatConfig, outdir: Path) -> dict[str, Any]:
    final, leak = protocols.multi_cat_factory(cfg.n_components, cfg.dim, cfg.separation,
                                              cfg.steps_per_crush, cfg.leak_tol)
    grid = _write_picture(final, cfg, outdir, "final")
    return {
        "energy": fock.mean_energy(final),
        "lobes": phasespace.count_lobes(grid),
        **_leak_report(leak, cfg.leak_tol),
        "fidelity": None,
    }


def realistic_point(
    cfg: config.RealisticConfig, theta: float, damping: bool = True, keep_trace: bool = False
):
    """One damped tweezer run at the given Rabi angle.

    Returns (fidelity vs target cat, total duration in s, kick leak), plus
    the master trace when keep_trace is set. The configured total duration
    is spread evenly over the 2 * waypoints_per_component pulses, and the
    drive Rabi frequency is the one that gives each pulse the angle theta.
    """
    n_wp = cfg.waypoints_per_component
    tau = cfg.pulse.total_duration / (2 * n_wp)
    pulse = PulseParams(omega=cfg.pulse.omega, rabi_drive=theta * math.sqrt(2.0) / tau,
                        theta=theta, s=1)
    start, stop = cfg.cat_init, cfg.target_alpha
    # the config sets the move size: no adiabatic cap applies
    trajs = [
        protocols.linear_trajectory(start, stop, n_wp - 1, adiabatic_cap=math.inf),
        protocols.linear_trajectory(-start, -stop, n_wp - 1, adiabatic_cap=math.inf),
    ]
    schedule = protocols.build_tweezer_schedule(
        trajs, interleave=cfg.interleave, pulse=pulse
    )
    duration = sum(sum(pulse.duration for _ in step.kicks) for step in schedule.steps)
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
    fid_undamped, _, _ = realistic_point(cfg, best["theta"], damping=False)
    np.save(outdir / "trace.npy", best_trace.records)
    np.savetxt(outdir / "grid.csv", [tuple(r.values()) for r in rows], fmt="%.17g",
               delimiter=",", header=",".join(rows[0]), comments="")
    return {
        "fidelity": best["fidelity"],
        "best_theta": best["theta"],
        "duration_s": best["duration_s"],
        "kick_leak": best["kick_leak"],
        "fidelity_undamped": fid_undamped,
        "energy": float(best_trace.records.energy[-1]),
        # a damped run records every step
        **_leak_report(float(best_trace.records.leak.max()), fock.DEFAULT_LEAK_TOL),
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
    summary["blas_threads"] = {k: os.environ.get(k) for k in
                               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    with open(out / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
    return summary
