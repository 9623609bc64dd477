"""Seeded mutations of every preset: parse_config returns or raises ConfigError.

Each preset is taken twice, as bundled and with every key written out.
Every value in it, at every depth, is replaced in turn by each of
REPLACEMENTS; every key is dropped in turn, and every object gains an
unknown key. Then seeded draws apply several such mutations at once.
Configs are parsed only, never run.
"""

import dataclasses
import json
import math
import random

import pytest

from zenocavity.config import ConfigError, list_presets, parse_config, preset_raw

#: wrong types, non-finite numbers, negatives and huge values, as JSON decodes them
REPLACEMENTS = (
    None, True, False, "x", "", [], {}, [1], [1, 2, 3], [[1, 2]], {"a": 1}, [None, 0],
    ["x", 1], [1, "x"], [[0, 0], "x"], [True, False],
    math.nan, math.inf, -math.inf, [math.inf, 0], [0, math.nan],
    0, 0.0, -0.0, -1, -1.5, -1e300, [-1e300, -1e300], 1e-320, 0.5, 2.5,
    1e308, -1e308, [1e308, 1e308], [-1e308, 1e308], [1.5e308, -1.5e308],
    2**63, -(2**63), 10**400, [10**400, 0],
    1e15, 4.0, 256, 257, 1024, 100_001,
)


def _full(name):
    cfg = parse_config(preset_raw(name))
    return json.loads(json.dumps(dataclasses.asdict(cfg), default=lambda z: [z.real, z.imag]))


def _paths(node, prefix=()):
    """The path of every value under node: object keys and list indices."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


def _at(raw, path):
    for key in path:
        raw = raw[key]
    return raw


def _mutations(raw):
    """Every single mutation of raw, as functions that apply it in place."""
    def replace(path, value):
        def apply(r):
            _at(r, path[:-1])[path[-1]] = json.loads(json.dumps(value))
        return apply

    def drop(path):
        def apply(r):
            del _at(r, path[:-1])[path[-1]]
        return apply

    def add(path):
        def apply(r):
            _at(r, path)["no_such_key"] = 1
        return apply

    out = [replace(p, v) for p in _paths(raw) for v in REPLACEMENTS]
    out += [drop(p) for p in _paths(raw)]
    out += [add(p) for p in [(), *_paths(raw)] if isinstance(_at(raw, p), dict)]
    return out


def _parses_or_config_error(raw):
    try:
        parse_config(raw)
    except ConfigError:
        pass
    except Exception as exc:  # noqa: BLE001 - any other exception is the finding
        pytest.fail(f"{type(exc).__name__}: {exc} on {raw!r}")


@pytest.mark.parametrize("name", list_presets())
def test_mutated_presets_parse_or_raise_config_error(name):
    rng = random.Random(name)
    for base in (preset_raw(name), _full(name)):
        muts = _mutations(base)
        for mut in muts:
            raw = json.loads(json.dumps(base))
            mut(raw)
            _parses_or_config_error(raw)
        for _ in range(300):  # several at once; one may find its path gone or retyped
            raw = json.loads(json.dumps(base))
            for mut in rng.sample(muts, rng.randint(2, 5)):
                try:
                    mut(raw)
                except (KeyError, IndexError, TypeError):
                    continue
            _parses_or_config_error(json.loads(json.dumps(raw)))  # keys as JSON has them


def test_trajectory_move_beyond_the_float_range_is_a_config_error():
    # |stop - start| overflows although both parts are finite
    raw = preset_raw("fig4ab")
    raw["trajectories"][0]["start"] = [1.5e308, -1.5e308]
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert "trajectories[0]: waypoint jump 4.329e+306 exceeds adiabatic cap 0.12" in str(err.value)
