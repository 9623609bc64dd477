import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from zenocavity import cli, phasespace, protocols, runner, zeno
from zenocavity.cli import main, run_sweep
from zenocavity.config import (
    ConfigError,
    list_presets,
    parse_config,
    preset_raw,
)
from zenocavity.fock import FieldState, vacuum
from zenocavity.phasespace import import_csv


def test_empty_config_lists_missing_keys():
    with pytest.raises(ConfigError) as err:
        parse_config({})
    msg = str(err.value)
    assert "protocol" in msg and "dim" in msg


def test_validation_aggregates_problems():
    # without a known protocol only protocol and dim can be judged
    with pytest.raises(ConfigError) as err:
        parse_config({
            "protocol": "no_such_thing",
            "dim": 1,
            "steps": 0,
            "interleave": "diagonal",
        })
    assert [p.split(":")[0] for p in err.value.problems] == ["protocol", "dim"]
    with pytest.raises(ConfigError) as err:
        parse_config({
            "protocol": "zeno_confine",
            "dim": 1,
            "steps": 0,
            "guard_levels": 0,
            "wigner": {"nx": 1},
        })
    problems = err.value.problems
    assert len(problems) >= 4
    joined = " ".join(problems)
    for frag in ("dim", "steps", "guard_levels: unknown key (the guard band", "wigner.nx: "):
        assert frag in joined
    with pytest.raises(ConfigError) as err:
        parse_config({
            "protocol": "realistic",
            "dim": 40,
            "pulse": {},
            "interleave": "diagonal",
            "theta_grid": [],
        })
    joined = " ".join(err.value.problems)
    for frag in ("interleave", "theta_grid: "):
        assert frag in joined


@pytest.mark.parametrize("raw, keys", [
    ({"protocol": "zeno_confine", "dim": 40, "crush_steps": 5, "theta_grid": [1.0]},
     ("crush_steps", "theta_grid")),
    ({"protocol": "tweezer_move", "dim": 40, "snapshot_every": 5,
      "trajectories": [{"start": [1, 0], "stop": [1.2, 0], "steps": 2}]},
     ("snapshot_every",)),
])
def test_keys_the_protocol_does_not_read_exit_2(tmp_path, capsys, raw, keys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert main(["run", str(bad), "--out", str(tmp_path / "o"), "--quiet"]) == 2
    err = capsys.readouterr().err
    for key in keys:
        assert f"{key}: unknown key" in err


def test_protocol_required_keys_reported_missing():
    for raw, key in (
        ({"protocol": "tweezer_stretch", "dim": 40}, "alpha_free"),
        ({"protocol": "tweezer_move", "dim": 40}, "trajectories"),
        ({"protocol": "realistic", "dim": 40}, "pulse"),
    ):
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        assert err.value.problems == [f"{key}: missing (required)"]


def test_small_dim_parses_where_the_protocol_has_no_s():
    # four_cat kicks at s = 1, whose guard-band rule holds from dim 5
    assert parse_config({"protocol": "four_cat", "dim": 8}).dim == 8
    # crush kicks at s = 1 too, but its default centres +-2.5 do not fit at dim 8
    with pytest.raises(ConfigError) as err:
        parse_config({"protocol": "crush", "dim": 8})
    assert [p.split(":")[0] for p in err.value.problems] == ["crush_centers[0]",
                                                             "crush_centers[1]"]
    # realistic has no s either: at dim 8 only its default cats do not fit
    with pytest.raises(ConfigError) as err:
        parse_config({"protocol": "realistic", "dim": 8, "pulse": {}})
    assert [p.split(":")[0] for p in err.value.problems] == ["cat_init", "target_alpha"]
    # a zero cat is still built from coherent states, which need dim >= 10
    with pytest.raises(ConfigError) as err:
        parse_config({"protocol": "crush", "dim": 8, "cat_init": 0})
    assert err.value.problems == ["cat_init: |z| = 0 needs dim >= |z|^2 + 6|z| + 10 "
                                  "= 10, got dim=8",
                                  "crush_centers[0]: |z| = 2.5 needs dim >= |z|^2 + 6|z| + 10 "
                                  "= 31.25, got dim=8",
                                  "crush_centers[1]: |z| = 2.5 needs dim >= |z|^2 + 6|z| + 10 "
                                  "= 31.25, got dim=8"]
    with pytest.raises(ConfigError, match="s: kick at s=6 reaches the guard band"):
        parse_config({"protocol": "zeno_confine", "dim": 8})


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config({"protocol": "crush", "dim": 32, "betta": 0.1})
    assert "betta" in str(err.value)


def test_complex_values_parse():
    cfg = parse_config({
        "protocol": "zeno_upper",
        "dim": 72,
        "alpha_init": [-5, 0],
        "beta": 0.1,
        "steps": 45,
    })
    assert cfg.alpha_init == complex(-5, 0)
    assert cfg.beta == complex(0.1, 0)


def test_trajectory_cap_validated_in_config():
    with pytest.raises(ConfigError) as err:
        parse_config({
            "protocol": "tweezer_move",
            "dim": 80,
            "trajectories": [
                {"start": [2, 0], "stop": [0, 5], "steps": 50}
            ],
        })
    assert "trajectories[0]: waypoint jump 0.1077 exceeds adiabatic cap 0.1" in str(err.value)


def test_all_presets_load():
    names = list_presets()
    assert {"fig2a", "fig2b", "fig2c", "fig3", "fig4ab", "fig4c", "fig4d",
            "realistic"} <= set(names)
    for name in names:
        cfg = parse_config(preset_raw(name))
        assert cfg.dim >= 2


def test_preset_fig2a_emits_ten_snapshots(tmp_path):
    rc = main(["preset", "fig2a", "--out", str(tmp_path), "--quiet"])
    assert rc == 0
    csvs = sorted(tmp_path.glob("wigner_step*.csv"))
    assert len(csvs) == 10
    steps = [int(p.stem.split("step")[1]) for p in csvs]
    assert steps == list(range(0, 50, 5))
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["truncation_ok"] is True
    assert (tmp_path / "trace.npy").exists() and not (tmp_path / "trace.csv").exists()


def test_preset_fig4ab_summary_fidelity(tmp_path):
    rc = main(["preset", "fig4ab", "--out", str(tmp_path), "--quiet"])
    assert rc == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert abs(summary["fidelity"] - 0.988) < 0.005
    assert summary["kicks"] == 100


def test_run_matches_preset_and_is_deterministic(tmp_path):
    raw = preset_raw("qze")
    cfg_path = tmp_path / "qze.json"
    cfg_path.write_text(json.dumps(raw))
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["run", str(cfg_path), "--out", str(out_a), "--quiet"]) == 0
    assert main(["run", str(cfg_path), "--out", str(out_b), "--quiet"]) == 0
    assert (out_a / "trace.npy").read_bytes() == (out_b / "trace.npy").read_bytes()


def test_dim_override(tmp_path, capsys):
    rc = main(["preset", "qze", "--out", str(tmp_path), "--dim", "24", "--quiet"])
    assert rc == 0
    assert json.loads((tmp_path / "summary.json").read_text())["dim"] == 24
    for dim in ("0", "1"):
        rc = main(["preset", "qze", "--out", str(tmp_path / dim), "--dim", dim, "--quiet"])
        assert rc == 2
        assert "dim: must be >= 2" in capsys.readouterr().err


def test_invalid_config_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"protocol": "crush"}))
    assert main(["run", str(bad), "--out", str(tmp_path / "o"), "--quiet"]) == 2
    # undecodable JSON and a top level that is not an object
    bad.write_text('{"protocol": "crush", ')
    for cmd in (["run"], ["sweep"]):
        argv = cmd + [str(bad)] + (["dim=40"] if cmd == ["sweep"] else [])
        assert main(argv + ["--out", str(tmp_path / "o"), "--quiet"]) == 2
        assert "not valid JSON" in capsys.readouterr().err
    bad.write_text("[1, 2]")
    for argv in (["run", str(bad)], ["run", str(bad), "--dim", "40"],
                 ["sweep", str(bad), "dim=40"]):
        assert main(argv + ["--out", str(tmp_path / "o"), "--quiet"]) == 2
        assert "top level: expected a JSON object" in capsys.readouterr().err
    missing = tmp_path / "missing.json"
    for argv in (["run", str(missing)], ["sweep", str(missing), "dim=40"]):
        assert main(argv + ["--out", str(tmp_path / "o"), "--quiet"]) == 2
        assert f"{missing}: cannot read" in capsys.readouterr().err
    # a dotted range key cannot pass through a scalar
    bad.write_text(json.dumps({"protocol": "zeno_confine", "dim": 40, "steps": 3}))
    argv = ["sweep", str(bad), "dim.x=1,2", "--out", str(tmp_path / "o"), "--quiet"]
    assert main(argv) == 2
    assert "range 'dim.x': dim holds 40, not an object" in capsys.readouterr().err


@pytest.mark.parametrize("raw, fragment", [
    ({"protocol": "zeno_confine", "dim": "abc"}, "dim: expected an integer"),
    ({"protocol": "tweezer_move", "dim": 80, "trajectories": [3]},
     "trajectories[0]: expected an object"),
    ({"protocol": "zeno_confine", "dim": 40, "wigner": {"bounds": [-6, 6]}},
     "wigner.bounds"),
    ({"protocol": "realistic", "dim": 40, "pulse": {}, "lindblad": {"n_th": -0.1}},
     "lindblad.n_th: must be non-negative"),
    ({"protocol": "tweezer_move", "dim": 40,
      "trajectories": [{"start": [2, 0], "stop": [2.5, 0], "steps": 0}]},
     "trajectories[0].steps: must be >= 1"),
    ({"protocol": "zeno_confine", "dim": 40, "guard_levels": 0},
     "guard_levels: unknown key (the guard band"),
    ({"protocol": "crush", "dim": 48, "guard_levels": 3},
     "guard_levels: unknown key (the guard band"),
    ({"protocol": "crush", "dim": 48, "crush_steps": 0}, "crush_steps: must be >= 1"),
    ({"protocol": "four_cat", "dim": 48, "steps_per_crush": 0},
     "steps_per_crush: must be >= 1"),
    ({"protocol": "realistic", "dim": 40, "pulse": {}, "waypoints_per_component": 0},
     "waypoints_per_component: must be >= 2"),
    ({"protocol": "realistic", "dim": 40, "pulse": {}, "theta_grid": []},
     "theta_grid: length must be >= 1"),
    ({"protocol": "realistic", "dim": 40, "pulse": {}, "theta_grid": [20.0]},
     "theta_grid[0]: must be in (0, 12.5664]"),
    ({"protocol": "zeno_confine", "dim": 40, "kick_theta": 20, "kick_rabi_drive": 3e4},
     "kick_theta: must be in [0, 12.5664]"),
    ({"protocol": "zeno_confine", "dim": 40, "kick_theta": 1.0, "kick_rabi_drive": -3e4},
     "kick_rabi_drive: must be non-negative"),
    ({"protocol": "zeno_confine", "dim": 40, "wigner": {"bounds": [6, -6, -6, 6]}},
     "wigner.bounds: need x_min < x_max"),
    ({"protocol": "zeno_confine", "dim": 40, "snapshot_steps": [-2]},
     "snapshot_steps: unknown key (snapshots"),
    ({"protocol": "zeno_confine", "dim": 40, "snapshot_every": -1},
     "snapshot_every: must be non-negative"),
    ({"protocol": "tweezer_move", "dim": 10,
      "trajectories": [{"start": [0, 0], "stop": [0.5, 0], "steps": 5, "s": 7}]},
     "trajectories[0].s: kick at s=7 reaches the guard band"),
    ({"protocol": "zeno_confine", "dim": 40, "dump_states": "false"},
     "dump_states: expected true or false, got 'false'"),
    ({"protocol": "zeno_confine", "dim": 40, "record_every": True},
     "record_every: expected an integer, got True"),
    ({"protocol": "zeno_confine", "dim": 40.9}, "dim: expected an integer, got 40.9"),
    ({"protocol": "zeno_confine", "dim": 40, "steps": 3.7},
     "steps: expected an integer, got 3.7"),
    ({"protocol": "zeno_confine", "dim": 40, "leak_tol": "1e-6"},
     "leak_tol: expected a number, got '1e-6'"),
    ({"protocol": "zeno_confine", "dim": 40, "beta": [True, 0]},
     "beta: expected a number or [re, im] pair"),
    ({"protocol": "realistic", "dim": 40, "pulse": {}, "interleave": 1},
     "interleave: 1 is not one of roundrobin, sequential"),
    ({"protocol": "realistic", "dim": 40, "pulse": {"theta": 99.0}},
     "pulse.theta: unknown key (realistic runs take their angles from theta_grid)"),
    ({"protocol": "zeno_confine", "dim": 40, "steps": 10, "snapshot_steps": [500]},
     "snapshot_steps: unknown key (snapshots"),
    ({"protocol": [1], "dim": 40}, "protocol: [1] is not one of zeno_confine"),
    ({"protocol": "zeno_confine", "dim": 40, "beta": math.nan},
     "beta: expected a finite number, got nan"),
    ({"protocol": "zeno_confine", "dim": 40, "alpha_init": math.inf},
     "alpha_init: expected a finite number, got inf"),
    ({"protocol": "zeno_confine", "dim": 40, "alpha_init": [1, -math.inf]},
     "alpha_init: expected a finite number, got [1, -inf]"),
    ({"protocol": "tweezer_move", "dim": 80,
      "trajectories": [{"start": [2, math.nan], "stop": [2.5, 0], "steps": 5}]},
     "trajectories[0].start: expected a finite number, got [2, nan]"),
    ({"protocol": "zeno_confine", "dim": 40, "wigner": {"bounds": [-6, 6, -math.inf, 6]}},
     "wigner.bounds[2]: expected a finite number, got -inf"),
    ({"protocol": "realistic", "dim": 40, "pulse": {}, "lindblad": {"t_c": 10**400}},
     "lindblad.t_c: expected a finite number, got 1000"),
    ({"protocol": "zeno_confine", "dim": math.nan}, "dim: expected an integer, got nan"),
    ({"protocol": "realistic", "dim": 40, "pulse": {"total_duration": 0}},
     "pulse.total_duration: must be positive, got 0"),
    ({"protocol": "realistic", "dim": 40, "pulse": {"rabi_drive": 3e4}},
     "pulse.rabi_drive: unknown key (each angle's drive follows from total_duration)"),
    ({"protocol": "realistic", "dim": 40, "pulse": {}, "lindblad": {"dt": 1e-7}},
     "lindblad.dt: unknown key (damping is now exact and has no integrator step)"),
    ({"protocol": "tweezer_move", "dim": 40, "overlap_tol": 0.5,
      "trajectories": [{"start": [2, 0], "stop": [2.5, 0], "steps": 5}]},
     "overlap_tol: unknown key (components overlap above the fixed tolerance 0.001)"),
    ({"protocol": "crush", "dim": 48, "crush_steps": 20},
     "crush_steps: waypoint jump 0.125 exceeds adiabatic cap 0.1"),
    ({"protocol": "four_cat", "dim": 64, "steps_per_crush": 10},
     "steps_per_crush: waypoint jump 0.25 exceeds adiabatic cap 0.1"),
    ({"protocol": "crush", "dim": 4},
     "dim: kick at s=1 reaches the guard band, the top 3 levels of dim=4"),
    ({"protocol": "tweezer_stretch", "dim": 40, "alpha_free": [2, 0]},
     "alpha_free: components at 0j and (2+0j) overlap (1.83e-02 > 1.0e-03)"),
    ({"protocol": "tweezer_move", "dim": 40, "component_positions": [[2, 0], [-2, 0]],
      "trajectories": [{"start": [2, 0], "stop": [2.5, 0], "steps": 5}]},
     "component_positions: unknown key (the components are the lobes of the initial state)"),
    ({"protocol": "zeno_confine", "dim": 40, "kick_theta": 1.0},
     "kick_rabi_drive: omega and rabi_drive must be finite and positive"),
])
def test_malformed_values_exit_2(tmp_path, capsys, raw, fragment):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert main(["run", str(bad), "--out", str(tmp_path / "o"), "--quiet"]) == 2
    assert fragment in capsys.readouterr().err


def _float_leaves(node, path=()):
    """Paths to the float and complex values of a parsed config."""
    if dataclasses.is_dataclass(node):
        for f in dataclasses.fields(node):
            yield from _float_leaves(getattr(node, f.name), path + (f.name,))
    elif isinstance(node, tuple):
        for k, v in enumerate(node):
            yield from _float_leaves(v, path + (k,))
    elif isinstance(node, (float, complex)):
        yield path


@pytest.mark.parametrize("name", list_presets())
def test_non_finite_numbers_exit_2(tmp_path, capsys, name):
    # the preset with every key written out; Python's JSON reader takes NaN
    # and Infinity and reads 1e400 as inf, and each is rejected at its key
    cfg = parse_config(preset_raw(name))
    full = json.loads(json.dumps(dataclasses.asdict(cfg), default=lambda z: [z.real, z.imag]))
    assert parse_config(full) == cfg
    bad, out = tmp_path / "bad.json", tmp_path / "o"
    leaves = list(_float_leaves(cfg))
    assert leaves
    for path in leaves:
        key = "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)[1:]
        raw = json.loads(json.dumps(full))
        node = raw
        for p in path[:-1]:
            node = node[p]
        is_pair = isinstance(node[path[-1]], list)
        for token in ("NaN", "Infinity", "-Infinity", "1e400"):
            for value in ['"@"', '[0, "@"]'] if is_pair else ['"@"']:
                node[path[-1]] = json.loads(value)
                bad.write_text(json.dumps(raw).replace('"@"', token))
                assert main(["run", str(bad), "--out", str(out), "--quiet"]) == 2
                err = capsys.readouterr().err
                assert f"  - {key}: expected a finite number, got " in err, (key, token)
                assert err.count("\n  - ") == 1
                assert not out.exists()


@pytest.mark.parametrize("raw, key", [
    ({"protocol": "zeno_confine", "alpha_init": "@"}, "alpha_init"),
    ({"protocol": "crush", "cat_init": "@"}, "cat_init"),
    ({"protocol": "tweezer_move", "target_alpha": "@",
      "trajectories": [{"start": [3, 0], "stop": [3.1, 0], "steps": 1}]}, "target_alpha"),
    ({"protocol": "tweezer_stretch", "gamma": "@", "alpha_free": 0, "beta": 0}, "gamma"),
    ({"protocol": "tweezer_stretch", "alpha_free": "@", "beta": 0}, "alpha_free"),
    ({"protocol": "zeno_confine", "beta": "@"}, "beta"),
    ({"protocol": "realistic", "pulse": {}, "cat_init": 1, "target_alpha": "@"},
     "target_alpha"),
])
def test_amplitudes_beyond_the_basis_exit_2(tmp_path, capsys, raw, key):
    # dim 40 holds |z|^2 + 6|z| + 10 <= 40, that is |z| <= sqrt(39) - 3 = 3.2450
    def with_amplitude(z):
        return json.loads(json.dumps({**raw, "dim": 40}).replace('"@"', json.dumps(z)))

    for z in (3.24, [0, -3.24], [-2.29, 2.29]):
        assert getattr(parse_config(with_amplitude(z)), key) is not None
    bad = tmp_path / "bad.json"
    for z in (3.25, [0, -3.25], [-2.3, 2.3]):
        bad.write_text(json.dumps(with_amplitude(z)))
        assert main(["run", str(bad), "--out", str(tmp_path / "o"), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert f"  - {key}: |z| = 3.25" in err and "got dim=40" in err
        assert err.count("\n  - ") == 1
        assert not (tmp_path / "o").exists()


def test_huge_drive_exits_2(tmp_path, capsys):
    # a finite beta used to reach the run and fail in the eigensolver, exit 1
    raw = preset_raw("qze")
    bad = tmp_path / "bad.json"
    for beta in (1e308, [1.7e308, 1.7e308]):  # |beta| of the second overflows
        raw["beta"] = beta
        bad.write_text(json.dumps(raw))
        assert main(["run", str(bad), "--out", str(tmp_path / "o"), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "  - beta: |z| = " in err and "got dim=20" in err


def test_thermal_occupancy_beyond_the_basis_exits_2(tmp_path, capsys):
    # n_th + 6 sqrt(n_th) + 10 <= dim: dim 50 holds n_th = 16 and no more
    raw = {**preset_raw("realistic"), "dim": 50, "lindblad": {"t_c": 0.13, "n_th": 16.0}}
    assert parse_config(raw).lindblad.n_th == 16.0
    bad = tmp_path / "bad.json"
    # 1e308 used to reach the run and fail in the eigensolver, exit 1
    for dim, n_th in ((50, 16.01), (49, 16.0), (40, 1e6), (40, 1e308)):
        bad.write_text(json.dumps({**raw, "dim": dim, "lindblad": {"t_c": 0.13, "n_th": n_th}}))
        assert main(["run", str(bad), "--out", str(tmp_path / "o"), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert f"  - lindblad.n_th: {n_th:.6g} needs dim >= " in err and f"got dim={dim}" in err
        assert err.count("\n  - ") == 1
        assert not (tmp_path / "o").exists()
    for name in list_presets():
        parse_config(preset_raw(name))


def test_summary_records_blas_threads(tmp_path):
    src = str(Path(runner.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    env.pop("MKL_NUM_THREADS", None)
    code = "import sys; from zenocavity.cli import main; sys.exit(main(sys.argv[1:]))"
    for threads in ("1", "2"):
        env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = threads
        out = tmp_path / threads
        subprocess.run([sys.executable, "-c", code, "preset", "qze", "--out", str(out), "--quiet"],
                       env=env, check=True, timeout=300)
        assert json.loads((out / "summary.json").read_text())["blas_threads"] == {
            "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": None}


def test_integral_floats_are_integers():
    # sweep values arrive as floats, so `dim=40,48` must parse
    cfg = parse_config({"protocol": "zeno_confine", "dim": 40.0, "steps": 3.0})
    assert cfg.dim == 40 and type(cfg.dim) is int and type(cfg.steps) is int


def test_lindblad_unknown_keys_rejected():
    raw = preset_raw("realistic")
    raw["lindblad"] = {"t_c": 0.13, "dt": 1e-7, "gamma": 2}
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    dt_problem, gamma_problem = err.value.problems
    assert dt_problem.startswith("lindblad.dt: unknown key") and "exact" in dt_problem
    assert gamma_problem == "lindblad.gamma: unknown key"


def test_state_dump_format(tmp_path):
    raw = preset_raw("qze")
    raw.update({"dump_states": True, "snapshot_every": 3, "steps": 3})
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o"), "--quiet"]) == 0
    dump = (tmp_path / "o" / "state_step000000.txt").read_text().splitlines()
    assert len(dump) == 20
    idx, re_part, im_part = dump[0].split()
    assert idx == "0" and float(re_part) == 1.0 and float(im_part) == 0.0


def test_state_dump_matches_per_amplitude_writer(tmp_path):
    # small finite doubles from random bit patterns, signed zeros and subnormals
    bits = np.random.default_rng(29).integers(0, 2**64, size=400, dtype=np.uint64)
    small = bits.view(np.float64)[np.abs(bits.view(np.float64)) < 1e-3][:78]
    amps = np.concatenate([[0], small.view(np.complex128),
                           [complex(-0.0, 5e-324), complex(-2.2250738585072014e-308, -0.0)]])
    amps[0] = math.sqrt(1.0 - np.vdot(amps, amps).real)
    state = FieldState(amps)
    cfg = parse_config({**preset_raw("qze"), "dump_states": True, "wigner": {"nx": 3, "ny": 3}})
    runner._write_picture(state, cfg, tmp_path, "t")
    ref = "".join(f"{n} {c.real:.17g} {c.imag:.17g}\n" for n, c in enumerate(state.amps))
    assert (tmp_path / "state_t.txt").read_text(encoding="utf-8") == ref
    assert ref.splitlines()[-2:] == ["40 -0 4.9406564584124654e-324",
                                     "41 -2.2250738585072014e-308 -0"]


def test_stretch_window_holds_the_moving_component(tmp_path):
    # the free component ends at 4.5 + 20 * 0.05 = 5.5, beyond the s = 6 window
    raw = {"protocol": "tweezer_stretch", "dim": 80, "gamma": -2, "alpha_free": 4.5,
           "beta": 0.05, "steps": 20}
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o"), "--quiet"]) == 0
    with open(tmp_path / "o" / "wigner_step000020.csv", encoding="utf-8") as fh:
        grid = import_csv(fh)
    assert np.max(np.abs(grid.values[:, -1])) < 1e-3


def test_tweezer_move_keeps_clear_of_the_other_cat_lobe(tmp_path, capsys):
    # one tweezer drags the +2 lobe onto the -2 one: refused when parsed,
    # since the lobes of the initial state are the components
    raw = {"protocol": "tweezer_move", "dim": 40, "cat_init": [2, 0],
           "trajectories": [{"start": [2, 0], "stop": [-1.5, 0], "steps": 35}]}
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "  - trajectories: components at " in err
    assert "(trajectory 0) and -2" in err and "come within overlap" in err
    assert not (tmp_path / "o").exists()


def test_overlap_is_reported_with_the_other_problems(tmp_path, capsys):
    # a problem inside the wigner section leaves the rules across keys to run
    raw = {"protocol": "tweezer_move", "dim": 40, "cat_init": [2, 0], "wigner": {"nx": 1},
           "trajectories": [{"start": [2, 0], "stop": [-1.5, 0], "steps": 35}]}
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert [p.split(":")[0] for p in err.value.problems] == ["wigner.nx", "trajectories"]
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "  - wigner.nx: must be >= 2, got 1" in err
    assert "  - trajectories: components at " in err and "come within overlap" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("interleave", ["roundrobin", "sequential"])
def test_overlap_with_a_parked_component_is_a_config_error(interleave):
    # the geometry of tests/test_protocols.py's parked-component test: the
    # first tweezer parks at 4+3i, and the second one's path sweeps over it
    raw = {"protocol": "tweezer_move", "dim": 100, "alpha_init": [4, 0],
           "interleave": interleave,
           "trajectories": [{"start": [4, 0], "stop": [4, 3], "steps": 30},
                            {"start": [-2, 6], "stop": [6, 2], "steps": 90}]}
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    [problem] = err.value.problems
    assert problem.startswith("trajectories: components at ") and "come within overlap" in problem


def test_far_away_trajectory_is_refused_without_warnings():
    # both ends break the truncation rule; |waypoint - lobe|^2 overflows in the
    # overlap rule, which finds none, and numpy warns of nothing
    raw = {"protocol": "tweezer_move", "dim": 40, "cat_init": [2, 0],
           "trajectories": [{"start": [1e308, 1e308], "stop": [1e308, 1e308], "steps": 3}]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
    assert err.value.problems == [
        f"trajectories[0].{end}: |z| = 1.41421e+308 needs dim >= |z|^2 + 6|z| + 10 = inf, "
        "got dim=40" for end in ("start", "stop")]


def test_trajectory_ends_beyond_the_basis_exit_2(tmp_path, capsys):
    # dim 40 holds |z| <= 3.2450; +-2 -> +-6 used to parse and leak at step 20, exit 1
    def moves(stop, start=2):
        return {"protocol": "tweezer_move", "dim": 40, "cat_init": [2, 0],
                "trajectories": [{"start": [sign * start, 0], "stop": [sign * stop, 0],
                                  "steps": math.ceil(abs(stop - start) / 0.1)}
                                 for sign in (1, -1)]}

    assert parse_config(moves(3.24)).trajectories[1].stop == -3.24
    # a zero end kicks |s> in place, where any nonzero one needs dim >= 10
    parse_config({"protocol": "tweezer_move", "dim": 8,
                  "trajectories": [{"start": 0, "stop": 0, "steps": 1}]})
    bad = tmp_path / "bad.json"
    for stop in (6, 3.3):  # 3.3 ran with a leak of 7.3e-10, below leak_tol
        bad.write_text(json.dumps(moves(stop)))
        assert main(["run", str(bad), "--out", str(tmp_path / "o"), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert f"  - trajectories[0].stop: |z| = {stop:g} needs dim >= " in err
        assert f"  - trajectories[1].stop: |z| = {stop:g} needs dim >= " in err
        assert err.count("\n  - ") == 2
        assert not (tmp_path / "o").exists()
    bad.write_text(json.dumps(moves(2, start=3.3)))
    assert main(["run", str(bad), "--out", str(tmp_path / "o"), "--quiet"]) == 2
    assert "  - trajectories[0].start: |z| = 3.3 needs dim >= " in capsys.readouterr().err


def test_stretch_end_beyond_the_basis_exits_2(tmp_path, capsys):
    # the preset stretches 2 -> 3 in 50 steps of 0.02; 70 steps end at 3.4, which
    # dim 40 does not hold: it used to run all 70 steps and fail on its target, exit 1
    raw = preset_raw("stretch")
    assert parse_config({**raw, "steps": 62}).steps == 62  # ends at 3.24
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**raw, "steps": 70}))
    assert main(["run", str(bad), "--out", str(tmp_path / "o"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "  - alpha_free + steps * beta: |z| = 3.4 needs dim >= " in err and "got dim=40" in err
    assert err.count("\n  - ") == 1
    assert not (tmp_path / "o").exists()
    # without a drive the free component stays at alpha_free, reported once
    with pytest.raises(ConfigError) as refused:
        parse_config({**raw, "alpha_free": [3.4, 0], "beta": 0})
    assert [p.split(":")[0] for p in refused.value.problems] == ["alpha_free"]


def test_four_cat_dumps_its_final_state(tmp_path):
    raw = {"protocol": "four_cat", "dim": 24, "n_components": 2, "separation": 1.5,
           "steps_per_crush": 20, "dump_states": True, "wigner": {"nx": 11, "ny": 11}}
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o"), "--quiet"]) == 0
    names = sorted(p.name for p in (tmp_path / "o").iterdir())
    assert names == ["state_final.txt", "summary.json", "wigner_final.csv", "wigner_final.pgm"]
    dump = (tmp_path / "o" / "state_final.txt").read_text().splitlines()
    amps = np.array([complex(float(r), float(i)) for _, r, i in map(str.split, dump)])
    assert len(amps) == 24 and abs(np.vdot(amps, amps) - 1) < 1e-12


def test_crush_whose_matched_cat_does_not_fit_writes_nothing(tmp_path, capsys):
    # both centres fit dim 28, but the crushed state's energy-matched cat
    # needs dim 29.93: the run fails before it writes a trace or a picture
    raw = {"protocol": "crush", "dim": 28,
           "crush_centers": [[-2.1185239790419272, -0.34029543343517177],
                             [2.0463682355338024, 0.3287051610309676]],
           "crush_steps": 51, "wigner": {"nx": 21, "ny": 21}}
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o"), "--quiet"]) == 1
    assert "needs dim >= |z|^2 + 6|z| + 10 = 29.9342, got dim=28" in capsys.readouterr().err
    assert list((tmp_path / "o").iterdir()) == []


def test_sweep_forks_no_more_workers_than_points(tmp_path, monkeypatch):
    seen = []

    class InProcessPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1, 2})  # three CPUs
    rows = run_sweep(preset_raw("qze"), ["beta=0.05,0.06"], tmp_path, workers=64)
    assert seen == [2]
    assert [r["error"] for r in rows] == ["", ""]
    # and no more than the CPUs: the pool would fork every worker at once
    rows = run_sweep(preset_raw("qze"), ["beta=0.03,0.04,0.05,0.06"], tmp_path, workers=5000)
    assert seen == [2, 3]
    assert [r["error"] for r in rows] == [""] * 4


def test_single_point_sweep_equals_run(tmp_path):
    raw = preset_raw("qze")
    rows = run_sweep(raw, ["beta=0.05"], tmp_path / "sweep")
    assert len(rows) == 1 and rows[0]["error"] == ""
    point_summary = json.loads(
        (tmp_path / "sweep" / "point_0000" / "summary.json").read_text()
    )
    direct = tmp_path / "direct"
    main(["preset", "qze", "--out", str(direct), "--quiet"])
    direct_summary = json.loads((direct / "summary.json").read_text())
    assert point_summary["energy"] == direct_summary["energy"]
    table = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
    assert table[0] == "index,beta,fidelity,energy,leak,error"
    assert len(table) == 2


def test_sweep_records_individual_failures(tmp_path):
    raw = preset_raw("qze")
    rows = run_sweep(raw, ["dim=20,1"], tmp_path / "sweep")
    assert rows[0]["error"] == ""
    assert rows[1]["error"] != ""  # dim=1 is invalid, but the sweep finishes
    table = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
    assert len(table) == 3


def test_theta_sweep_on_realistic_kicks(tmp_path):
    # scanning the kick angle on the vacuum-confinement run: the ideal
    # angle 2*pi tracks the ideal kicks best and tiny angles lose it
    raw = {
        "protocol": "zeno_confine",
        "dim": 48,
        "s": 6,
        "beta": 0.1,
        "steps": 25,
        "leak_tol": 1e-3,
        "kick_omega": 2 * math.pi * 50e3,
        "kick_rabi_drive": 0.05 * 2 * math.pi * 50e3 * (math.sqrt(7) - math.sqrt(6)),
        "kick_theta": 1.0,
    }
    thetas = [2 * math.pi, 2.0, 1.0, 0.5]
    rows = run_sweep(raw, ["kick_theta=" + ",".join(str(t) for t in thetas)],
                     tmp_path)
    fids = [r["fidelity"] for r in rows]
    assert all(r["error"] == "" for r in rows)
    assert fids[0] > fids[3]  # monotone tendency across the sweep ends
    assert fids[2] > 0.9  # one radian still reproduces the run


#: the benchmark's Figure-3 sweep shape, with fewer steps
_SWEEP = {"protocol": "fig3_revival", "dim": 48, "s": 6, "beta": 0.1, "steps": 150,
          "record_every": 1, "leak_tol": 1e-4, "kick_rabi_drive": 2 * math.pi * 5e3}


@pytest.fixture
def cold_memo():
    runner._IDEAL_FINALS.clear()
    yield
    runner._IDEAL_FINALS.clear()


@pytest.fixture
def zeno_calls(monkeypatch, cold_memo):
    """The schedules zeno_run is called with, in order."""
    calls, real = [], zeno.zeno_run

    def counting(state, schedule, **kwargs):
        calls.append(schedule)
        return real(state, schedule, **kwargs)

    monkeypatch.setattr(zeno, "zeno_run", counting)
    return calls


def _files(root):
    """Each file under root by relative path; summary.json without wall_time_s."""
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            if path.name == "summary.json":
                data = json.loads(data)
                del data["wall_time_s"]
            out[path.relative_to(root).as_posix()] = data
    return out


@pytest.mark.parametrize("ranges, calls, keys", [
    (["kick_theta=0,6.4", "beta=0.099"], 2, 1),  # the benchmark's request
    (["kick_theta=0,6.4,6.1,6.0", "beta=0.099"], 4, 1),  # K = 3 with the ideal point
    (["kick_theta=6.4,6.1,6.0", "beta=0.099"], 4, 1),  # K = 3 without it
    (["kick_theta=0,6.4", "beta=0.099,0.101"], 4, 2),  # beta varies fastest
    (["beta=0.099,0.101", "kick_theta=6.4,6.1"], 6, 2),
])
def test_one_ideal_reference_per_key(tmp_path, zeno_calls, ranges, calls, keys):
    rows = run_sweep(_SWEEP, ranges, tmp_path)
    assert [r["error"] for r in rows] == [""] * len(rows)
    with open(tmp_path / "sweep.csv", newline="") as fh:
        thetas = [float(r["kick_theta"]) for r in csv.DictReader(fh)]
    assert [r["fidelity"] is None for r in rows] == [t == 0 for t in thetas]
    assert len(zeno_calls) == calls
    assert len(runner._IDEAL_FINALS) == keys


def test_reference_memo_changes_no_file(tmp_path, monkeypatch, cold_memo):
    ranges = ["kick_theta=6.4,0,6.1", "beta=0.099,0.101"]
    with monkeypatch.context() as m:  # every dressed point runs its own reference
        m.setattr(runner, "_remember_ideal", lambda key, state: None)
        run_sweep(_SWEEP, ranges, tmp_path / "off")
    assert not runner._IDEAL_FINALS
    run_sweep(_SWEEP, ranges, tmp_path / "cold")
    assert len(runner._IDEAL_FINALS) == 2
    run_sweep(_SWEEP, ranges, tmp_path / "warm")
    off = _files(tmp_path / "off")
    assert len(off) == 1 + 6 * 2
    assert _files(tmp_path / "cold") == off
    assert _files(tmp_path / "warm") == off
    fids = [off[f"point_{k:04d}/summary.json"]["fidelity"] for k in (0, 1, 4, 5)]
    assert all(0 < f < 1 for f in fids)


def test_reference_memo_keeps_the_newest_keys(tmp_path, zeno_calls):
    betas = [0.09 + 0.001 * k for k in range(runner.IDEAL_MEMO_SIZE + 1)]
    run_sweep({**_SWEEP, "steps": 3}, ["beta=" + ",".join(map(repr, betas))], tmp_path)
    kept = [key[2] for key in runner._IDEAL_FINALS]
    assert kept == [complex(b) for b in betas[1:]]
    # the oldest key is gone, so its dressed point runs the reference again
    zeno_calls.clear()
    run_sweep({**_SWEEP, "steps": 3}, ["kick_theta=6.4", f"beta={betas[0]!r},{betas[-1]!r}"],
              tmp_path / "dressed")
    assert len(zeno_calls) == 3


def test_reference_memo_evicts_from_many_threads(cold_memo):
    # concurrent inserts each evict the oldest keys: none may raise, and the
    # memo ends holding exactly the newest IDEAL_MEMO_SIZE keys
    state = vacuum(4)

    def insert(worker):
        for k in range(2000):
            runner._remember_ideal((worker, k), state)
        return worker

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(insert, w) for w in range(4)]
            assert [f.result(timeout=60) for f in futures] == [0, 1, 2, 3]
    finally:
        sys.setswitchinterval(interval)
    assert len(runner._IDEAL_FINALS) == runner.IDEAL_MEMO_SIZE
    kept = {}
    for worker, k in runner._IDEAL_FINALS:
        kept.setdefault(worker, []).append(k)
    # a worker's later keys are newer, so what survives of it is its last keys
    assert all(ks == list(range(2000 - len(ks), 2000)) for ks in kept.values())


def test_sweep_workers_write_the_same_files(tmp_path, cold_memo):
    # each worker process keeps its own memo; two workers split the points
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(_SWEEP))
    ranges = ["kick_theta=0,6.4,6.1", "beta=0.099,0.101"]
    for workers in ("2", "1"):  # the forked workers start from a cold memo
        argv = ["sweep", str(cfg), *ranges, "--workers", workers,
                "--out", str(tmp_path / workers), "--quiet"]
        assert main(argv) == 0
    assert _files(tmp_path / "2") == _files(tmp_path / "1")


def test_failing_reference_is_not_kept(tmp_path, monkeypatch, zeno_calls):
    counting = zeno.zeno_run

    def failing_reference(state, schedule, **kwargs):
        trace = counting(state, schedule, **kwargs)
        if schedule.pulse is None:  # ideal kicks
            raise zeno.ZenoTruncationError("truncation leak in the reference")
        return trace

    ranges = ["kick_theta=6.4,6.1", "beta=0.099"]
    with monkeypatch.context() as m:
        m.setattr(zeno, "zeno_run", failing_reference)
        rows = run_sweep(_SWEEP, ranges, tmp_path / "a")
    assert [r["error"] for r in rows] == ["truncation leak in the reference"] * 2
    assert [r["fidelity"] for r in rows] == [None, None]
    assert len(zeno_calls) == 4 and not runner._IDEAL_FINALS
    rows = run_sweep(_SWEEP, ranges, tmp_path / "b")
    assert [r["error"] for r in rows] == ["", ""]
    assert len(zeno_calls) == 4 + 3 and len(runner._IDEAL_FINALS) == 1


def test_summary_leak_is_the_worst_step_of_the_run(tmp_path):
    # a 400-step Figure-3 run peaks at step 327, on no 50th step and far
    # above its last row, so only the largest leak over every step matches
    raw = {**preset_raw("fig3"), "steps": 400}
    summaries = {}
    for every in (1, 50):
        summaries[every] = runner.run_config(parse_config({**raw, "record_every": every}),
                                             tmp_path / str(every))
    worst = float(np.load(tmp_path / "1" / "trace.npy")["leak"].max())
    assert summaries[1]["leak"] == summaries[50]["leak"] == worst
    assert summaries[50]["truncation_ok"] is True
    # sweep.csv carries each point's summary leak, the worst of its trace
    run_sweep(raw, ["beta=0.1,0.099"], tmp_path / "sweep")
    with open(tmp_path / "sweep" / "sweep.csv", encoding="utf-8") as fh:
        table = list(csv.DictReader(fh))
    assert [row["index"] for row in table] == ["0", "1"]
    for row in table:
        point = tmp_path / "sweep" / f"point_{int(row['index']):04d}"
        leak = json.loads((point / "summary.json").read_text())["leak"]
        assert float(row["leak"]) == leak == float(np.load(point / "trace.npy")["leak"].max())
    assert float(table[0]["leak"]) == worst


def test_realistic_summary_checks_the_top_levels(tmp_path):
    # leak is the best run's largest top-level population, read off trace.npy,
    # and energy its last row's
    raw = preset_raw("realistic")
    hot = {**raw, "lindblad": {"t_c": 1e-3, "n_th": 10.0}}  # heats toward <n> = 10 at dim 40
    for cfg, ok in ((raw, True), (hot, False)):
        out = tmp_path / str(ok)
        summary = runner.run_config(parse_config(cfg), out)
        assert not (out / "trace.csv").exists()
        rows = np.load(out / "trace.npy", allow_pickle=False)
        assert rows.dtype.names == ("t_seconds", "energy", "purity",
                                    "fidelity_vs_target", "trace_err", "leak")
        assert summary["leak"] == float(rows["leak"].max())
        assert summary["truncation_ok"] is ok
        assert (summary["leak"] < 1e-6) is ok
        assert summary["energy"] == float(rows["energy"][-1])
        *_, best = runner.realistic_point(parse_config(cfg), summary["best_theta"],
                                          keep_trace=True)
        assert rows.tobytes() == best.records.tobytes()  # the best run's records
        if ok:  # the preset's stretch ends near the +-3 target cat, about 9 photons
            assert 9.0 < summary["energy"] < 10.5


@pytest.mark.parametrize("raw, key, cap", [
    ({"protocol": "zeno_confine", "dim": "@"}, "dim", 256),
    ({"protocol": "realistic", "dim": "@", "pulse": {}}, "dim", 256),
    ({"protocol": "zeno_confine", "dim": 40, "wigner": {"nx": "@"}}, "wigner.nx", 1024),
    ({"protocol": "zeno_confine", "dim": 40, "wigner": {"ny": "@"}}, "wigner.ny", 1024),
    ({"protocol": "zeno_confine", "dim": 40, "steps": "@"}, "steps", 100_000),
    ({"protocol": "tweezer_stretch", "dim": 40, "alpha_free": 3, "beta": 0, "steps": "@"},
     "steps", 100_000),
    ({"protocol": "crush", "dim": 48, "crush_steps": "@"}, "crush_steps", 100_000),
    ({"protocol": "four_cat", "dim": 48, "steps_per_crush": "@"}, "steps_per_crush", 100_000),
    ({"protocol": "tweezer_move", "dim": 40,
      "trajectories": [{"start": [3, 0], "stop": [3.2, 0], "steps": "@"}]},
     "trajectories[0].steps", 100_000),
    ({"protocol": "realistic", "dim": 40, "pulse": {}, "waypoints_per_component": "@"},
     "waypoints_per_component", 50_000),
])
def test_sizes_beyond_their_cap_exit_2(tmp_path, capsys, raw, key, cap):
    # the caps keep one run inside a stated memory budget (README, Config schema)
    def with_size(n):
        return json.loads(json.dumps(raw).replace('"@"', str(n)))

    parse_config(with_size(cap))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(with_size(cap + 1)))
    assert main(["run", str(bad), "--out", str(tmp_path / "o"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert f"  - {key}: must be <= {cap}, got {cap + 1}" in err
    assert err.count("\n  - ") == 1
    assert not (tmp_path / "o").exists()


def test_wigner_bounds_lie_within_32(tmp_path, capsys):
    # a raster's tables grow with its window; +-32 holds any dim-256 state
    raw = {"protocol": "zeno_confine", "dim": 40}
    parse_config({**raw, "wigner": {"bounds": [-32, 32, -32, 32]}})
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**raw, "wigner": {"bounds": [-32.5, 32.5, -1, 1]}}))
    assert main(["run", str(bad), "--out", str(tmp_path / "o"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "  - wigner.bounds[0]: must be in [-32, 32], got -32.5" in err
    assert "  - wigner.bounds[1]: must be in [-32, 32], got 32.5" in err
    assert err.count("\n  - ") == 2
    assert not (tmp_path / "o").exists()


def test_csv_writer_matches_per_row_writer(tmp_path):
    # grid.csv: a header of field names, then one row per angle, every
    # field at 17 significant digits
    raw = {"protocol": "realistic", "dim": 22, "cat_init": [1, 0], "target_alpha": [1.5, 0],
           "waypoints_per_component": 2, "theta_grid": [2 * math.pi, 1.0],
           "pulse": {"total_duration": 1e-3}}
    summary = runner.run_config(parse_config(raw), tmp_path)
    names = ["theta", "fidelity", "duration_s", "kick_leak"]
    ref = ",".join(names) + "\n"
    for row in summary["grid"]:
        assert list(row) == names
        ref += ",".join(f"{v:.17g}" for v in row.values()) + "\n"
    assert (tmp_path / "grid.csv").read_text() == ref
    assert len(ref.splitlines()) == 3

def test_crush_preset_matches_direct_protocol_calls(tmp_path):
    # fig4c through run_config against crush_between and the matched-cat
    # fidelity called directly on the same settings
    cfg = parse_config(preset_raw("fig4c"))
    summary = runner.run_config(cfg, tmp_path)
    final, trace = protocols.crush_between(
        vacuum(cfg.dim), *cfg.crush_centers, cfg.crush_steps, record_every=cfg.record_every,
        leak_tol=cfg.leak_tol,
    )
    written = np.load(tmp_path / "trace.npy", allow_pickle=False)
    assert written.dtype.names == trace.records.dtype.names
    assert written.tobytes() == trace.records.tobytes()
    grid = phasespace.wigner_grid(final, runner._wigner_bounds(cfg),
                                  nx=cfg.wigner.nx, ny=cfg.wigner.ny)
    text = io.StringIO()
    phasespace.export_csv(grid, text)
    assert (tmp_path / f"wigner_step{trace.steps[-1]:06d}.csv").read_text() == text.getvalue()
    energy, matched, fid = protocols.crush_fidelity_vs_matched_cat(final)
    assert (summary["energy"], summary["matched_cat_amplitude"], summary["fidelity"]) == (
        energy, matched, fid)


def test_list_presets_prints_every_preset(capsys):
    assert main(["list-presets"]) == 0
    assert capsys.readouterr().out.splitlines() == list_presets()


# a dressed run that passes, whose ideal-kick reference leaks at step 30
_LEAKING_REFERENCE = {"protocol": "zeno_confine", "dim": 40, "s": 6, "beta": 0.15, "steps": 45,
                      "snapshot_every": 15, "kick_theta": 5.0,
                      "kick_rabi_drive": 2 * math.pi * 5e3}


@pytest.mark.parametrize("raw, message", [
    *(({**preset_raw(name), "leak_tol": 1e-300}, None)
      for name in ("qze", "stretch", "fig4ab", "fig4c", "fig4d")),
    (_LEAKING_REFERENCE, "truncation leak 1.036e-06 above 1.0e-06 at step 30"),
], ids=["zeno_confine", "tweezer_stretch", "tweezer_move", "crush", "four_cat", "reference"])
def test_run_reports_a_truncation_leak_with_exit_1(raw, message, tmp_path, capsys):
    # a leak anywhere in a run writes nothing, with `run` and as a sweep point
    cfg_path = tmp_path / "leaky.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: truncation leak ")
    assert list((tmp_path / "o").iterdir()) == []
    leak_tol = f"leak_tol={raw.get('leak_tol', 1e-6)!r}"
    assert main(["sweep", str(cfg_path), leak_tol, "--out", str(tmp_path / "s"), "--quiet"]) == 0
    assert list((tmp_path / "s" / "point_0000").iterdir()) == []
    with open(tmp_path / "s" / "sweep.csv", encoding="utf-8") as fh:
        (row,) = csv.DictReader(fh)
    assert err == f"error: {row['error']}\n"
    if message is not None:
        assert row["error"] == message

