"""The benchmark's four workloads: seeded inputs, one request, its checks.

Each workload draws its inputs from a numpy Generator seeded by the
benchmark command and hands the program only the generated configs. A
request is one call into a public entry point of zenocavity
(runner.run_config, runner.realistic_point or cli.run_sweep). Requests
come in rounds of fixed make-up, so that every run holds the same mix of
request kinds whatever its length or seed. check() raises CheckFailed
when an output disagrees with an independent computation (oracles.py) or
with a property the method must have.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path
from typing import Any

import numpy as np

import oracles
from zenocavity import cli, config, openquantum, phasespace, runner

TWO_PI = 2.0 * math.pi


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def read_state(path: Path) -> np.ndarray:
    """Amplitudes from a `index re im` state dump."""
    data = np.loadtxt(path, ndmin=2)
    return data[:, 1] + 1j * data[:, 2]


def read_pgm(path: Path) -> np.ndarray:
    """Grey levels of an ASCII PGM, top row first."""
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    _, size, _, *rows = lines
    nx, ny = (int(v) for v in size.split())
    levels = np.array([[int(v) for v in row.split()] for row in rows])
    _require(levels.shape == (ny, nx), f"{path.name}: raster shape {levels.shape}")
    return levels


def check_raster(csv_text: str, pgm_levels: np.ndarray, amps: np.ndarray,
                 alpha0: complex | None, label: str) -> None:
    """Checks one Wigner snapshot against the state it was drawn from.

    alpha0 is the coherent amplitude of a step-0 snapshot, None otherwise.
    """
    grid = phasespace.import_csv(io.StringIO(csv_text))
    again = io.StringIO()
    phasespace.export_csv(grid, again)
    _require(again.getvalue() == csv_text, f"{label}: CSV does not read back bit-exact")
    xs, ys, w = grid.xs, grid.ys, grid.values
    _require(np.max(np.abs(w)) <= oracles.W_MAX * (1 + 1e-12), f"{label}: |W| above 2/pi")
    total = oracles.trapezoid_2d(w, xs, ys)
    _require(abs(total - 1.0) <= 1e-4, f"{label}: raster integrates to {total!r}")
    i0, j0 = int(np.argmin(np.abs(xs))), int(np.argmin(np.abs(ys)))
    _require(abs(xs[i0]) < 1e-12 and abs(ys[j0]) < 1e-12, f"{label}: origin not on the grid")
    w0 = oracles.parity_wigner_origin(amps)
    _require(abs(w[j0, i0] - w0) <= 1e-9,
             f"{label}: W(0) = {w[j0, i0]!r}, parity gives {w0!r}")
    if alpha0 is not None:
        err = np.max(np.abs(w - oracles.coherent_wigner(alpha0, xs, ys)))
        _require(err <= 1e-9, f"{label}: step-0 raster off the coherent Gaussian by {err:.3g}")
    _require(np.array_equal(pgm_levels[::-1], oracles.pgm_levels(w)),
             f"{label}: PGM grey levels disagree with the CSV values")


def check_tweezer(amps: np.ndarray, oracle: np.ndarray, fid_target: float,
                  label: str) -> None:
    fid = oracles.fidelity(amps, oracle)
    _require(1.0 - fid <= 1e-10, f"{label}: fidelity {fid!r} with the dense oracle")
    _require(fid_target >= 0.99, f"{label}: fidelity {fid_target!r} with the target cat")


def check_damped(records: list[Any], duration: float, fid: float, label: str) -> None:
    _require(abs(duration - 3.4e-3) <= 0.2 * 3.4e-3, f"{label}: duration {duration!r} s")
    _require(0.0 <= fid <= 1.0, f"{label}: fidelity {fid!r}")
    for r in records:
        _require(r.trace_err <= 1e-9, f"{label}: trace error {r.trace_err!r}")
        _require(0.0 < r.purity <= 1.0 + 1e-12, f"{label}: purity {r.purity!r}")
        _require(-1e-12 <= r.fidelity_vs_target <= 1.0 + 1e-12,
                 f"{label}: fidelity {r.fidelity_vs_target!r} in the trace")


def check_decay(energy: float, n0: float, t: float, t_c: float, n_th: float,
                label: str) -> None:
    want = oracles.damped_energy(n0, t, t_c, n_th)
    _require(abs(energy - want) <= 1e-9,
             f"{label}: kick-free <n> = {energy!r}, closed form {want!r}")


def check_sweep(rows: list[dict[str, str]], ideal_energy: float,
                summaries: list[dict[str, Any]], label: str) -> None:
    _require(len(rows) == 2, f"{label}: sweep.csv has {len(rows)} rows")
    for row in rows:
        _require(row["error"] == "", f"{label}: point {row['index']} failed: {row['error']}")
    energy = float(rows[0]["energy"])
    _require(abs(energy - ideal_energy) <= 1e-9 * max(1.0, ideal_energy),
             f"{label}: ideal-kick energy {energy!r}, dense oracle {ideal_energy!r}")
    fid = float(rows[1]["fidelity"])
    _require(0.0 <= fid <= 1.0, f"{label}: dressed fidelity {fid!r}")
    for summary in summaries:
        _require(summary["truncation_ok"] is True, f"{label}: truncation check failed")


class Rasters:
    """Figure-2 confinement runs with 121 x 121 Wigner snapshots every 5 steps.

    A round holds one start of each geometry: inside the s = 6 circle,
    head-on from outside along the drive, and tangential to the circle.
    """

    dim = 80
    steps = 10

    def __init__(self, rng: np.random.Generator):
        self.rng = rng

    def _alpha(self, kind: str) -> complex:
        u = self.rng.uniform
        r6 = math.sqrt(6.0)
        if kind == "zeno_confine":
            return complex(0.4 * np.exp(1j * u(0.0, TWO_PI)))
        if kind == "zeno_upper":
            return complex(-(r6 + 0.8), u(-0.05, 0.05))
        return complex(-1.0, math.copysign(r6, u(-1.0, 1.0)))

    def make(self, kind: str) -> dict[str, Any]:
        alpha = self._alpha(kind)
        raw = {
            "protocol": kind, "dim": self.dim, "s": 6, "beta": 0.1,
            "alpha_init": _pair(alpha), "steps": self.steps, "snapshot_every": 5,
            "dump_states": True, "wigner": {"nx": 121, "ny": 121, "bounds": [-6, 6, -6, 6]},
        }
        return {"cfg": config.parse_config(raw), "alpha": alpha}

    def round(self) -> list[dict[str, Any]]:
        return [self.make(k) for k in ("zeno_confine", "zeno_upper", "tangential")]

    def run(self, inp: dict[str, Any], out: Path) -> Any:
        return runner.run_config(inp["cfg"], out)

    def check(self, inp: dict[str, Any], out: Path, result: Any) -> None:
        _require(result["truncation_ok"] is True, "raster run: truncation check failed")
        for step in range(0, self.steps + 1, 5):
            label = f"raster step {step} of alpha {inp['alpha']:.4f}"
            check_raster(
                (out / f"wigner_step{step:06d}.csv").read_text(),
                read_pgm(out / f"wigner_step{step:06d}.pgm"),
                read_state(out / f"state_step{step:06d}.txt"),
                inp["alpha"] if step == 0 else None,
                label,
            )


class Tweezers:
    """Tweezer moves of an even cat at dim 80: both components of
    |2> + |-2> are dragged to seeded +-target in 18..36 moves at cap 0.1.

    Every request brings new kick centres, so over a run the centres
    outgrow the program's cache of displacement matrices.
    """

    dim = 80
    start = 2.0 + 0j

    def __init__(self, rng: np.random.Generator):
        self.rng = rng

    def make(self) -> dict[str, Any]:
        u = self.rng.uniform
        n = int(self.rng.integers(18, 37))
        phi = math.copysign(u(math.pi / 4, math.pi / 2), u(-1.0, 1.0))
        stop = self.start + 0.1 * n * u(0.9, 0.99) * complex(math.cos(phi), math.sin(phi))
        traj = [{"start": _pair(sign * self.start), "stop": _pair(sign * stop), "steps": n,
                 "s": 1, "adiabatic_cap": 0.1} for sign in (1, -1)]
        raw = {
            "protocol": "tweezer_move", "dim": self.dim, "cat_init": _pair(self.start),
            "target_alpha": _pair(stop), "interleave": "roundrobin", "trajectories": traj,
            "dump_states": True, "wigner": {"nx": 11, "ny": 11, "bounds": [-7, 7, -7, 7]},
        }
        return {"cfg": config.parse_config(raw), "stop": stop, "n": n}

    def round(self) -> list[dict[str, Any]]:
        return [self.make()]

    def run(self, inp: dict[str, Any], out: Path) -> Any:
        return runner.run_config(inp["cfg"], out)

    def check(self, inp: dict[str, Any], out: Path, result: Any) -> None:
        n = inp["n"]
        _require(result["truncation_ok"] is True, "tweezer run: truncation check failed")
        amps = read_state(out / f"state_step{n + 1:06d}.txt")
        oracle = oracles.tweezer_move(self.start, inp["stop"], n, self.dim)
        check_tweezer(amps, oracle, result["fidelity"], f"tweezer to {inp['stop']:.4f}")


class Damped:
    """Damped finite-pulse stretch of the `realistic` preset (dim 40, cat
    +-2 -> +-3 in 3.4 ms) at the default integrator step T_c / 1e6.

    Rounds hold three (theta, T_c, n_th) points, two of them thermal, so
    the median request always has the thermal terms on. T_c stays near
    1 s: the cost of a point scales as 1/T_c, and this keeps a run at
    about 30 requests.
    """

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.preset = config.preset_raw("realistic")
        self.dim = self.preset["dim"]

    def make(self, thermal: bool) -> dict[str, Any]:
        u = self.rng.uniform
        theta, t_c = u(1.0, TWO_PI), u(0.95, 1.05)
        n_th = u(0.02, 0.1) if thermal else 0.0
        raw = {**self.preset, "lindblad": {"t_c": t_c, "n_th": n_th}}
        return {"cfg": config.parse_config(raw), "theta": theta, "t_c": t_c, "n_th": n_th}

    def round(self) -> list[dict[str, Any]]:
        return [self.make(False), self.make(True), self.make(True)]

    def run(self, inp: dict[str, Any], out: Path) -> Any:
        return runner.realistic_point(inp["cfg"], inp["theta"], keep_trace=True)

    def check(self, inp: dict[str, Any], out: Path, result: Any) -> None:
        fid, duration, _, trace = result
        label = (f"damped point theta={inp['theta']:.4f} T_c={inp['t_c']:.4f} "
                 f"n_th={inp['n_th']:.4f}")
        check_damped(trace.records, duration, fid, label)
        cat = oracles.even_cat(complex(inp["cfg"].cat_init), inp["cfg"].dim)
        t = 2e-4
        params = openquantum.LindbladParams(t_c=inp["t_c"], n_th=inp["n_th"])
        rho = openquantum.evolve_damped(np.outer(cat, cat.conj()), t, params)
        energy = float(np.arange(cat.size) @ np.diag(rho).real)
        check_decay(energy, oracles.mean_energy(cat), t, inp["t_c"], inp["n_th"], label)


class Sweep:
    """cli.run_sweep over 2000-step Figure-3 confinement runs (dim 48,
    s = 6, from the vacuum), one worker, no snapshots. Each sweep has two
    points at one seeded beta: ideal kicks (kick_theta = 0) and dressed
    kicks at a seeded kick_theta near 2 pi (joint mode)."""

    base = {
        "protocol": "fig3_revival", "dim": 48, "s": 6, "beta": 0.1, "steps": 2000,
        "record_every": 1, "leak_tol": 1e-4, "kick_rabi_drive": TWO_PI * 5e3,
    }
    dim = base["dim"]

    def __init__(self, rng: np.random.Generator):
        self.rng = rng

    def make(self) -> dict[str, Any]:
        theta = TWO_PI + self.rng.uniform(-0.3, 0.3)
        beta = self.rng.uniform(0.095, 0.105)
        return {"ranges": [f"kick_theta=0,{theta!r}", f"beta={beta!r}"], "beta": beta}

    def round(self) -> list[dict[str, Any]]:
        return [self.make()]

    def run(self, inp: dict[str, Any], out: Path) -> Any:
        return cli.run_sweep(self.base, inp["ranges"], out, workers=1)

    def check(self, inp: dict[str, Any], out: Path, result: Any) -> None:
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        summaries = [json.loads((out / f"point_{k:04d}" / "summary.json").read_text())
                     for k in range(len(rows))]
        b = self.base
        ideal = oracles.zeno_final_energy(inp["beta"], b["s"], b["steps"], b["dim"])
        check_sweep(rows, ideal, summaries, f"sweep at beta={inp['beta']:.5f}")


WORKLOADS = {"rasters": Rasters, "tweezers": Tweezers, "damped": Damped, "sweep": Sweep}
