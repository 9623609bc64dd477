import json
import math
from pathlib import Path

import numpy as np
import pytest

from zenocavity import cli
from zenocavity.cli import main, run_sweep
from zenocavity.config import (
    ConfigError,
    list_presets,
    load_preset,
    parse_config,
    preset_raw,
)


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
    for frag in ("dim", "steps", "guard_levels: ", "wigner.nx: "):
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
    # s and its guard-band rule belong to the Zeno protocols only
    for raw in ({"protocol": "four_cat", "dim": 8}, {"protocol": "crush", "dim": 8},
                {"protocol": "realistic", "dim": 8, "pulse": {}}):
        assert parse_config(raw).dim == 8
    with pytest.raises(ConfigError, match="s: 6 reaches the guard band"):
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
    assert "adiabatic_cap" in str(err.value)


def test_all_presets_load():
    names = list_presets()
    assert {"fig2a", "fig2b", "fig2c", "fig3", "fig4ab", "fig4c", "fig4d",
            "realistic"} <= set(names)
    for name in names:
        cfg = load_preset(name)
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
    assert (tmp_path / "trace.csv").exists()


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
    assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()


def test_dim_override(tmp_path):
    rc = main(["preset", "qze", "--out", str(tmp_path), "--dim", "24", "--quiet"])
    assert rc == 0
    assert json.loads((tmp_path / "summary.json").read_text())["dim"] == 24


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
    ({"protocol": "zeno_confine", "dim": 40, "guard_levels": 0}, "guard_levels: must be >= 1"),
    ({"protocol": "zeno_confine", "dim": 40, "guard_levels": -5}, "guard_levels: must be >= 1"),
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
     "snapshot_steps[0]: must be non-negative"),
    ({"protocol": "zeno_confine", "dim": 40, "snapshot_every": -1},
     "snapshot_every: must be non-negative"),
    ({"protocol": "tweezer_move", "dim": 10,
      "trajectories": [{"start": [0, 0], "stop": [0.5, 0], "steps": 5, "s": 7}]},
     "trajectories[0].s: 7 reaches the guard band"),
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
     "snapshot_steps: [500] lie beyond steps=10"),
    ({"protocol": [1], "dim": 40}, "protocol: [1] is not one of zeno_confine"),
])
def test_malformed_values_exit_2(tmp_path, capsys, raw, fragment):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert main(["run", str(bad), "--out", str(tmp_path / "o"), "--quiet"]) == 2
    assert fragment in capsys.readouterr().err


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
    raw.update({"dump_states": True, "snapshot_steps": [0], "steps": 3})
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "o"), "--quiet"]) == 0
    dump = (tmp_path / "o" / "state_step000000.txt").read_text().splitlines()
    assert len(dump) == 20
    idx, re_part, im_part = dump[0].split()
    assert idx == "0" and float(re_part) == 1.0 and float(im_part) == 0.0


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
    rows = run_sweep(preset_raw("qze"), ["beta=0.05,0.06"], tmp_path, workers=64)
    assert seen == [2]
    assert [r["error"] for r in rows] == ["", ""]


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
