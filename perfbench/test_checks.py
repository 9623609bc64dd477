"""Tests of the benchmark's own correctness checks.

Each check must pass the program's real output and reject one
deliberately broken output. Run from the repository root:

    python3 -m pytest -q perfbench/test_checks.py
"""

import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckFailed  # noqa: E402
from zenocavity import config, openquantum, runner  # noqa: E402


#: a cheap confinement run with 41 x 41 snapshots at steps 0 and 5
SMALL_RASTER = {"protocol": "zeno_confine", "dim": 24, "s": 3, "beta": 0.1,
                "alpha_init": [0.3, 0.2], "steps": 5, "snapshot_every": 5,
                "dump_states": True, "wigner": {"nx": 41, "ny": 41, "bounds": [-5, 5, -5, 5]}}


@pytest.fixture
def out(tmp_path):
    yield tmp_path / "run"
    shutil.rmtree(tmp_path / "run", ignore_errors=True)


def _first(workload_cls, seed=7):
    wl = workload_cls(np.random.default_rng(seed))
    return wl, wl.round()[0]


def test_raster_check_rejects_w0_off_parity(out):
    runner.run_config(config.parse_config(SMALL_RASTER), out)
    csv_text = (out / "wigner_step000005.csv").read_text()
    pgm = workloads.read_pgm(out / "wigner_step000005.pgm")
    amps = workloads.read_state(out / "state_step000005.txt")
    workloads.check_raster(csv_text, pgm, amps, None, "real")

    lines = csv_text.splitlines(keepends=True)
    centre = 1 + 20 * 41 + 20  # header, then row-major: y index 20, x index 20
    x, y, w = lines[centre].strip().split(",")
    assert float(x) == 0.0 and float(y) == 0.0
    lines[centre] = f"{x},{y},{float(w) + 1e-6:.17g}\n"
    with pytest.raises(CheckFailed, match="W\\(0\\)"):
        workloads.check_raster("".join(lines), pgm, amps, None, "broken")


def test_step0_raster_check_rejects_wrong_amplitude(out):
    runner.run_config(config.parse_config(SMALL_RASTER), out)
    args = ((out / "wigner_step000000.csv").read_text(),
            workloads.read_pgm(out / "wigner_step000000.pgm"),
            workloads.read_state(out / "state_step000000.txt"))
    workloads.check_raster(*args, 0.3 + 0.2j, "real")
    with pytest.raises(CheckFailed, match="coherent Gaussian"):
        workloads.check_raster(*args, 0.3 + 0.21j, "broken")


def test_tweezer_check_rejects_skipped_kick(out):
    wl, inp = _first(workloads.Tweezers)
    result = wl.run(inp, out)
    wl.check(inp, out, result)
    n = inp["n"]
    amps = workloads.read_state(out / f"state_step{n + 1:06d}.txt")
    oracle = oracles.tweezer_move(wl.start, inp["stop"], n, wl.dim)
    skipped = oracles.tweezer_move(wl.start, inp["stop"], n, wl.dim, skip_kick=n)
    assert oracles.fidelity(amps, oracle) > 1 - 1e-10
    with pytest.raises(CheckFailed, match="dense oracle"):
        workloads.check_tweezer(skipped, oracle, result["fidelity"], "broken")


def test_damped_check_rejects_wrong_decay():
    cat = oracles.even_cat(2.0, 40)
    rho0 = np.outer(cat, cat.conj())
    n0 = oracles.mean_energy(cat)
    t = 2e-4
    for n_th in (0.0, 0.05):
        rho = openquantum.evolve_damped(rho0, t, openquantum.LindbladParams(t_c=1.0, n_th=n_th))
        energy = float(np.arange(40) @ np.diag(rho).real)
        workloads.check_decay(energy, n0, t, 1.0, n_th, "real")
        with pytest.raises(CheckFailed, match="closed form"):
            workloads.check_decay(energy, n0, t, 1.01, n_th, "broken")


def test_damped_check_rejects_bad_trace(out):
    wl, inp = _first(workloads.Damped)
    fid, duration, _, trace = wl.run(inp, out)
    workloads.check_damped(trace.records, duration, fid, "real")
    with pytest.raises(CheckFailed, match="duration"):
        workloads.check_damped(trace.records, 2 * duration, fid, "broken")
    trace.records[-1].trace_err = 1e-6
    with pytest.raises(CheckFailed, match="trace error"):
        workloads.check_damped(trace.records, duration, fid, "broken")


def test_sweep_check_rejects_energy_off_oracle(out):
    wl, inp = _first(workloads.Sweep)
    result = wl.run(inp, out)
    wl.check(inp, out, result)
    csv_path = out / "sweep.csv"
    header, ideal, dressed = csv_path.read_text().splitlines(keepends=True)
    cells = ideal.split(",")
    energy_col = header.split(",").index("energy")
    cells[energy_col] = f"{float(cells[energy_col]) * (1 + 1e-6):.17g}"
    csv_path.write_text(header + ",".join(cells) + dressed)
    with pytest.raises(CheckFailed, match="dense oracle"):
        wl.check(inp, out, result)


def test_metric_tables_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _ in tracing.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
