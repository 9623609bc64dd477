"""Run configuration: JSON schema, validation, presets.

Configs are plain JSON. Complex numbers are written as [re, im] pairs.
Validation collects every problem before raising, so an invalid config
produces a single aggregated report. Presets live in the package as JSON
files, one per reproduced figure panel plus a few extras.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, is_dataclass
from functools import lru_cache
from importlib import resources
from types import UnionType
from typing import Any, get_args, get_origin, get_type_hints

PROTOCOLS = (
    "zeno_confine",
    "zeno_upper",
    "tangential",
    "fig3_revival",
    "tweezer_stretch",
    "tweezer_move",
    "crush",
    "four_cat",
    "realistic",
)


class ConfigError(ValueError):
    """Invalid configuration; message lists every detected problem."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("invalid config:\n" + "\n".join(f"  - {p}" for p in problems))


@dataclass
class TrajectoryConfig:
    start: complex
    stop: complex
    steps: int
    s: int = 1
    adiabatic_cap: float = 0.1


@dataclass
class PulseConfig:
    omega: float = 2 * math.pi * 50e3  # rad/s
    theta: float = 2 * math.pi
    rabi_drive: float = 0.0  # rad/s; 0 -> derived from total_duration
    total_duration: float = 3.4e-3  # s, whole protocol


@dataclass
class LindbladConfig:
    t_c: float = 0.13
    n_th: float = 0.0


@dataclass
class WignerConfig:
    nx: int = 121
    ny: int = 121
    bounds: tuple[float, float, float, float] | None = None  # None -> auto


@dataclass
class RunConfig:
    protocol: str
    dim: int
    s: int = 6
    beta: complex = 0.1
    alpha_init: complex = 0j
    cat_init: complex | None = None  # even cat |a> + |-a> instead of coherent
    steps: int = 45
    record_every: int = 1
    snapshot_every: int = 0  # 0 -> no wigner snapshots
    snapshot_steps: tuple[int, ...] = ()
    dump_states: bool = False
    leak_tol: float = 1e-6
    guard_levels: int = 3
    trajectories: tuple[TrajectoryConfig, ...] = ()
    interleave: str = "roundrobin"
    component_positions: tuple[complex, ...] = ()
    overlap_tol: float = 1e-3
    gamma: complex = 0j  # tweezer_stretch hold point
    alpha_free: complex | None = None  # tweezer_stretch moving component
    crush_centers: tuple[complex, complex] = (-2.5, 2.5)
    crush_steps: int = 200
    n_components: int = 4
    separation: float = 2.5
    steps_per_crush: int = 200
    pulse: PulseConfig | None = None
    kick_theta: float = 0.0  # 0 -> ideal kicks; else dressed kicks in zeno runs
    kick_rabi_drive: float = 0.0
    kick_omega: float = 2 * math.pi * 50e3
    lindblad: LindbladConfig = field(default_factory=LindbladConfig)
    wigner: WignerConfig = field(default_factory=WignerConfig)
    theta_grid: tuple[float, ...] = (2 * math.pi, 2.0, 1.0, 0.5)
    waypoints_per_component: int = 5
    target_alpha: complex | None = None


def _validate(cfg: RunConfig, problems: list[str]) -> None:
    if cfg.protocol not in PROTOCOLS:
        problems.append(
            f"protocol: {cfg.protocol!r} is not one of {', '.join(PROTOCOLS)}"
        )
    if cfg.dim < 2:
        problems.append(f"dim: must be >= 2, got {cfg.dim}")
    if cfg.steps < 1:
        problems.append(f"steps: must be >= 1, got {cfg.steps}")
    if cfg.record_every < 1:
        problems.append("record_every: must be >= 1")
    if cfg.s < 0:
        problems.append("s: must be >= 0")
    if cfg.s >= cfg.dim - cfg.guard_levels:
        problems.append(f"s: {cfg.s} reaches the guard band of dim={cfg.dim}")
    if cfg.leak_tol <= 0:
        problems.append("leak_tol: must be positive")
    if cfg.interleave not in ("roundrobin", "sequential"):
        problems.append(f"interleave: {cfg.interleave!r} not roundrobin/sequential")
    if cfg.protocol in ("tweezer_move",) and not cfg.trajectories:
        problems.append("trajectories: required for tweezer_move")
    for k, traj in enumerate(cfg.trajectories):
        if traj.steps < 1:
            problems.append(f"trajectories[{k}].steps: must be >= 1")
        if traj.s < 0:
            problems.append(f"trajectories[{k}].s: must be >= 0")
        jump = abs(traj.stop - traj.start) / traj.steps
        if jump > traj.adiabatic_cap * (1 + 1e-12):
            problems.append(
                f"trajectories[{k}]: waypoint jump {jump:.4g} exceeds "
                f"adiabatic_cap {traj.adiabatic_cap:.4g}"
            )
    if cfg.protocol == "tweezer_stretch" and cfg.alpha_free is None:
        problems.append("alpha_free: required for tweezer_stretch")
    if cfg.protocol == "four_cat":
        n = cfg.n_components
        if n < 2 or (n & (n - 1)) != 0:
            problems.append(f"n_components: must be a power of two >= 2, got {n}")
    if cfg.protocol == "realistic":
        if cfg.pulse is None:
            problems.append("pulse: required for realistic runs")
        elif cfg.pulse.total_duration <= 0 and cfg.pulse.rabi_drive <= 0:
            problems.append("pulse: needs total_duration or rabi_drive")
        if cfg.lindblad.t_c <= 0:
            problems.append("lindblad.t_c: must be positive")
        if cfg.lindblad.n_th < 0:
            problems.append("lindblad.n_th: must be non-negative")
    if cfg.kick_theta and not cfg.kick_rabi_drive:
        problems.append("kick_rabi_drive: required when kick_theta is set")
    if cfg.wigner.nx < 2 or cfg.wigner.ny < 2:
        problems.append("wigner: nx and ny must be >= 2")


#: keys that older configs may still carry, with the reason they are gone
_RETIRED_KEYS = {"lindblad.dt": "damping is now exact and has no integrator step"}


@lru_cache(maxsize=None)
def _field_types(cls: type) -> dict[str, Any]:
    return get_type_hints(cls)


def _convert(tp: Any, value: Any, key: str, problems: list[str]) -> Any:
    """value as the field type tp; a problem is recorded where it does not fit."""
    if get_origin(tp) is UnionType:  # X | None
        if value is None:
            return None
        tp = next(a for a in get_args(tp) if a is not type(None))
    if tp in (int, float, complex):
        if tp is complex and isinstance(value, list) and len(value) == 2:
            if all(isinstance(v, (int, float)) for v in value):
                value = complex(*value)
        try:
            return tp(value)
        except (TypeError, ValueError):
            kind = {int: "an integer", float: "a number", complex: "a number or [re, im] pair"}
            problems.append(f"{key}: expected {kind[tp]}, got {value!r}")
            return None
    if tp in (str, bool):
        return tp(value)
    if is_dataclass(tp):
        return _convert_object(tp, value, key, problems)
    args = get_args(tp)  # tuple[X, ...] or a fixed-length tuple
    variadic = args[-1] is Ellipsis
    if not isinstance(value, list) or not (variadic or len(value) == len(args)):
        shape = "a list" if variadic else f"a list of {len(args)} values"
        problems.append(f"{key}: expected {shape}, got {value!r}")
        return None
    types = args[:1] * len(value) if variadic else args
    return tuple(
        _convert(t, v, f"{key}[{k}]", problems) for k, (t, v) in enumerate(zip(types, value))
    )


def _convert_object(cls: type, raw: Any, key: str, problems: list[str]) -> Any:
    """An instance of the dataclass cls from a JSON object, or None after a problem."""
    if not isinstance(raw, dict):
        problems.append(f"{key}: expected an object, got {raw!r}")
        return None
    before = len(problems)
    prefix = f"{key}." if key else ""
    types = _field_types(cls)
    kwargs = {}
    for name, value in raw.items():
        if name in types:
            kwargs[name] = _convert(types[name], value, prefix + name, problems)
        else:
            note = _RETIRED_KEYS.get(prefix + name)
            problems.append(f"{prefix}{name}: unknown key" + (f" ({note})" if note else ""))
    for name, f in cls.__dataclass_fields__.items():
        if f.default is MISSING and f.default_factory is MISSING and name not in raw:
            problems.append(f"{prefix}{name}: missing (required)")
    return None if len(problems) > before else cls(**kwargs)


def parse_config(raw: dict[str, Any]) -> RunConfig:
    """Build and validate a RunConfig from decoded JSON (validation needs typed fields)."""
    problems: list[str] = []
    cfg = _convert_object(RunConfig, raw, "", problems)
    if problems:
        raise ConfigError(problems)
    _validate(cfg, problems)
    if problems:
        raise ConfigError(problems)
    return cfg


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ConfigError(["top level: expected a JSON object"])
    return parse_config(raw)


def list_presets() -> list[str]:
    files = resources.files("zenocavity").joinpath("presets")
    return sorted(p.name[:-5] for p in files.iterdir() if p.name.endswith(".json"))


def load_preset(name: str) -> RunConfig:
    return parse_config(preset_raw(name))


def preset_raw(name: str) -> dict[str, Any]:
    files = resources.files("zenocavity").joinpath("presets")
    path = files.joinpath(f"{name}.json")
    if not path.is_file():
        raise ConfigError(
            [f"preset: unknown name {name!r}; available: {', '.join(list_presets())}"]
        )
    return json.loads(path.read_text(encoding="utf-8"))
