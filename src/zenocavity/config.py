"""Run configuration: JSON schema, validation, presets.

Configs are plain JSON. Complex numbers are written as [re, im] pairs.
The dataclasses below are the schema, one per protocol family; the
`protocol` key picks the class, and a key that class does not declare is
unknown. Each field declares its type, its allowed choices (a Literal)
and its range (an Annotated Range) once, and parsing checks them while
it converts. Conversion is strict: a bool field takes only true/false, a
Literal field only one of its strings, an int field only an integer or
an integral float such as 40.0, and a number field no booleans or
strings. _validate then checks the rules that relate several fields.
Every problem is collected before raising, so an invalid config produces
a single aggregated report. Presets live in the package as JSON
files, one per reproduced figure panel plus a few extras.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, is_dataclass
from functools import lru_cache
from importlib import resources
from types import UnionType
from typing import Annotated, Any, Literal, get_args, get_origin, get_type_hints

class ConfigError(ValueError):
    """Invalid configuration; message lists every detected problem."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("invalid config:\n" + "\n".join(f"  - {p}" for p in problems))


@dataclass(frozen=True)
class Range:
    """lo <= value <= hi (lo < value when open_lo); a list field's length."""

    lo: float = -math.inf
    hi: float = math.inf
    open_lo: bool = False

    def __contains__(self, value: float) -> bool:
        return (value > self.lo if self.open_lo else value >= self.lo) and value <= self.hi

    def __str__(self) -> str:
        if self.hi == math.inf:
            if self.lo == 0:
                return "positive" if self.open_lo else "non-negative"
            return f"{'>' if self.open_lo else '>='} {self.lo:g}"
        return f"in {'(' if self.open_lo else '['}{self.lo:g}, {self.hi:g}]"


POSITIVE = Range(0, open_lo=True)
NON_NEGATIVE = Range(0)
#: Rabi angles PulseParams accepts; 0 switches dressed kicks off
ANGLE = Range(0, 4 * math.pi)


@dataclass
class TrajectoryConfig:
    start: complex
    stop: complex
    steps: Annotated[int, Range(1)]
    s: Annotated[int, NON_NEGATIVE] = 1
    adiabatic_cap: Annotated[float, POSITIVE] = 0.1


@dataclass
class PulseConfig:
    omega: Annotated[float, POSITIVE] = 2 * math.pi * 50e3  # rad/s
    rabi_drive: Annotated[float, NON_NEGATIVE] = 0.0  # rad/s; 0 -> from total_duration
    total_duration: Annotated[float, NON_NEGATIVE] = 3.4e-3  # s, whole protocol


@dataclass
class LindbladConfig:
    t_c: Annotated[float, POSITIVE] = 0.13
    n_th: Annotated[float, NON_NEGATIVE] = 0.0


@dataclass
class WignerConfig:
    nx: Annotated[int, Range(2)] = 121
    ny: Annotated[int, Range(2)] = 121
    bounds: tuple[float, float, float, float] | None = None  # None -> auto


@dataclass(kw_only=True)
class _PureRun:
    """Keys of the protocols that evolve a pure state and draw its Wigner function."""

    dim: Annotated[int, Range(2)]
    leak_tol: Annotated[float, POSITIVE] = 1e-6
    guard_levels: Annotated[int, Range(1)] = 3
    dump_states: bool = False
    wigner: WignerConfig = field(default_factory=WignerConfig)


@dataclass(kw_only=True)
class ZenoConfig(_PureRun):
    protocol: Literal["zeno_confine", "zeno_upper", "tangential", "fig3_revival"]
    s: Annotated[int, NON_NEGATIVE] = 6
    beta: complex = 0.1
    alpha_init: complex = 0j
    cat_init: complex | None = None  # even cat |a> + |-a> instead of coherent
    steps: Annotated[int, Range(1)] = 45
    record_every: Annotated[int, Range(1)] = 1
    snapshot_every: Annotated[int, NON_NEGATIVE] = 0  # 0 -> no wigner snapshots
    snapshot_steps: tuple[Annotated[int, NON_NEGATIVE], ...] = ()
    kick_theta: Annotated[float, ANGLE] = 0.0  # 0 -> ideal kicks; else dressed kicks
    kick_rabi_drive: Annotated[float, NON_NEGATIVE] = 0.0
    kick_omega: Annotated[float, POSITIVE] = 2 * math.pi * 50e3


@dataclass(kw_only=True)
class StretchConfig(_PureRun):
    protocol: Literal["tweezer_stretch"]
    gamma: complex = 0j  # hold point
    alpha_free: complex  # the moving component
    beta: complex = 0.1
    steps: Annotated[int, Range(1)] = 45
    overlap_tol: Annotated[float, POSITIVE] = 1e-3


@dataclass(kw_only=True)
class TweezerConfig(_PureRun):
    protocol: Literal["tweezer_move"]
    alpha_init: complex = 0j
    cat_init: complex | None = None
    record_every: Annotated[int, Range(1)] = 1
    trajectories: Annotated[tuple[TrajectoryConfig, ...], Range(1)]
    interleave: Literal["roundrobin", "sequential"] = "roundrobin"
    component_positions: tuple[complex, ...] = ()
    overlap_tol: Annotated[float, POSITIVE] = 1e-3
    target_alpha: complex | None = None  # even cat the fidelity compares against


@dataclass(kw_only=True)
class CrushConfig(_PureRun):
    protocol: Literal["crush"]
    alpha_init: complex = 0j
    cat_init: complex | None = None
    record_every: Annotated[int, Range(1)] = 1
    crush_centers: tuple[complex, complex] = (-2.5, 2.5)
    crush_steps: Annotated[int, Range(1)] = 200


@dataclass(kw_only=True)
class FourCatConfig(_PureRun):
    protocol: Literal["four_cat"]
    n_components: int = 4
    separation: Annotated[float, POSITIVE] = 2.5
    steps_per_crush: Annotated[int, Range(1)] = 200


@dataclass(kw_only=True)
class RealisticConfig:
    protocol: Literal["realistic"]
    dim: Annotated[int, Range(2)]
    cat_init: complex = 2 + 0j
    target_alpha: complex = 3 + 0j
    interleave: Literal["roundrobin", "sequential"] = "roundrobin"
    waypoints_per_component: Annotated[int, Range(2)] = 5  # one move at least
    theta_grid: Annotated[
        tuple[Annotated[float, Range(0, 4 * math.pi, open_lo=True)], ...], Range(1)
    ] = (2 * math.pi, 2.0, 1.0, 0.5)
    pulse: PulseConfig
    lindblad: LindbladConfig = field(default_factory=LindbladConfig)


RunConfig = (ZenoConfig | StretchConfig | TweezerConfig | CrushConfig | FourCatConfig
             | RealisticConfig)


def _validate(cfg: RunConfig, problems: list[str]) -> None:
    """Rules that relate several fields; single-field rules live on the fields."""
    if isinstance(cfg, ZenoConfig):
        if cfg.s >= cfg.dim - cfg.guard_levels:
            problems.append(
                f"s: {cfg.s} reaches the guard band of dim={cfg.dim} "
                f"with guard_levels={cfg.guard_levels}"
            )
        late = [n for n in cfg.snapshot_steps if n > cfg.steps]
        if late:
            problems.append(f"snapshot_steps: {late} lie beyond steps={cfg.steps}")
        if cfg.kick_theta and not cfg.kick_rabi_drive:
            problems.append("kick_rabi_drive: required when kick_theta is set")
    for k, traj in enumerate(cfg.trajectories if isinstance(cfg, TweezerConfig) else ()):
        if traj.s >= cfg.dim - cfg.guard_levels:
            problems.append(f"trajectories[{k}].s: {traj.s} reaches the guard band")
        jump = abs(traj.stop - traj.start) / traj.steps
        if jump > traj.adiabatic_cap * (1 + 1e-12):
            problems.append(
                f"trajectories[{k}]: waypoint jump {jump:.4g} exceeds "
                f"adiabatic_cap {traj.adiabatic_cap:.4g}"
            )
    if isinstance(cfg, FourCatConfig):
        n = cfg.n_components
        if n < 2 or (n & (n - 1)) != 0:
            problems.append(f"n_components: must be a power of two >= 2, got {n}")
    if isinstance(cfg, RealisticConfig):
        if not (cfg.pulse.total_duration or cfg.pulse.rabi_drive):
            problems.append("pulse: needs total_duration or rabi_drive")
    elif cfg.wigner.bounds is not None:
        x_min, x_max, y_min, y_max = cfg.wigner.bounds
        if not (x_min < x_max and y_min < y_max):
            problems.append(
                "wigner.bounds: need x_min < x_max and y_min < y_max, "
                f"got {list(cfg.wigner.bounds)}"
            )


#: keys that older configs may still carry, with the reason they are gone
_RETIRED_KEYS = {
    "lindblad.dt": "damping is now exact and has no integrator step",
    "pulse.theta": "realistic runs take their angles from theta_grid",
}


@lru_cache(maxsize=None)
def _field_types(cls: type) -> dict[str, Any]:
    return get_type_hints(cls, include_extras=True)


_KINDS = {
    bool: "true or false",
    int: "an integer",
    float: "a number",
    complex: "a number or [re, im] pair",
}


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _scalar(tp: type, value: Any) -> Any:
    """value as the scalar type tp, or None where JSON holds another kind."""
    if tp is bool:
        return value if isinstance(value, bool) else None
    if tp is int:
        if isinstance(value, float):
            return int(value) if value.is_integer() else None
        return value if _is_number(value) else None
    if tp is complex and isinstance(value, list) and len(value) == 2:
        return complex(*value) if all(map(_is_number, value)) else None
    return tp(value) if _is_number(value) else None


def _convert(tp: Any, value: Any, key: str, problems: list[str]) -> Any:
    """value as the field type tp, within its declared choices and ranges;
    a problem is recorded where it does not fit."""
    if get_origin(tp) is Annotated:
        tp, *ranges = get_args(tp)
        before = len(problems)
        out = _convert(tp, value, key, problems)
        if len(problems) == before:
            size, what = (len(out), "length ") if isinstance(out, tuple) else (out, "")
            for r in ranges:
                if size not in r:
                    problems.append(f"{key}: {what}must be {r}, got {value!r}")
        return out
    if get_origin(tp) is UnionType:  # X | None
        if value is None:
            return None
        tp = next(a for a in get_args(tp) if a is not type(None))
    if get_origin(tp) is Literal:
        if value in get_args(tp):
            return value
        problems.append(f"{key}: {value!r} is not one of {', '.join(get_args(tp))}")
        return None
    if tp in _KINDS:
        out = _scalar(tp, value)
        if out is None:
            problems.append(f"{key}: expected {_KINDS[tp]}, got {value!r}")
        return out
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


#: the config class of each protocol name, read off the classes' Literals
_CLASSES = {n: c for c in get_args(RunConfig) for n in get_args(_field_types(c)["protocol"])}


@dataclass(kw_only=True)
class _NoProtocol(_PureRun):  # what a config without a known protocol is judged on
    protocol: Literal[tuple(_CLASSES)]


def parse_config(raw: dict[str, Any]) -> RunConfig:
    """Build and validate the config class of raw's protocol from decoded JSON
    (validation needs typed fields); a key that class lacks is unknown."""
    problems: list[str] = []
    name = raw.get("protocol")
    cls = _CLASSES.get(name, _NoProtocol) if isinstance(name, str) else _NoProtocol
    if cls is _NoProtocol:  # the other keys cannot be judged without a protocol
        raw = {k: v for k, v in raw.items() if k in ("protocol", "dim")}
    cfg = _convert_object(cls, raw, "", problems)
    if problems:
        raise ConfigError(problems)
    _validate(cfg, problems)
    if problems:
        raise ConfigError(problems)
    return cfg


def read_config(path: str) -> dict[str, Any]:
    """The decoded JSON object of a config file, not yet parsed."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError([f"{path}: cannot read ({reason})"]) from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"{path}: not valid JSON ({exc})"]) from None
    if not isinstance(raw, dict):
        raise ConfigError([f"top level: expected a JSON object, got {raw!r}"])
    return raw


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
