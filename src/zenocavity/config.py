"""Run configuration: JSON schema, validation, presets.

Configs are plain JSON. Complex numbers are written as [re, im] pairs.
The dataclasses below are the schema, one per protocol family; the
`protocol` key picks the class, and a key that class does not declare is
unknown. Each field declares its type, its allowed choices (a Literal)
and its range (an Annotated Range) once, and parsing checks them while
it converts. Conversion is strict: a bool field takes only true/false, a
Literal field only one of its strings, an int field only an integer or
an integral float such as 40.0, and a number field no booleans or
strings. _validate then checks the rules that relate several fields,
once every key has converted; a problem inside a section with defaults
(wigner, lindblad) leaves that section at its defaults for these rules.
Every problem is collected before raising, so an invalid config produces
a single aggregated report. Presets live in the package as JSON
files, one per reproduced figure panel plus a few extras.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import MISSING, dataclass, field, is_dataclass
from functools import lru_cache
from importlib import resources
from types import UnionType
from typing import Annotated, Any, Callable, Literal, get_args, get_origin, get_type_hints

from .atomkick import PulseParams
from .fock import GUARD_LEVELS, check_fits, check_guard_band, required_dim
from .protocols import (DEFAULT_ADIABATIC_CAP, OVERLAP_TOL, TweezerTrajectory, check_apart,
                        check_overlaps, linear_trajectory)


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
        if self.lo == -math.inf:
            return f"<= {self.hi:g}"
        if self.hi == math.inf:
            if self.lo == 0:
                return "positive" if self.open_lo else "non-negative"
            return f"{'>' if self.open_lo else '>='} {self.lo:g}"
        return f"in {'(' if self.open_lo else '['}{self.lo:g}, {self.hi:g}]"


POSITIVE = Range(0, open_lo=True)
NON_NEGATIVE = Range(0)
#: Rabi angles PulseParams accepts; 0 switches dressed kicks off
ANGLE = Range(0, 4 * math.pi)
# Size caps, from one memory budget of 512 MB per run: at its cap, the
# largest allocation a key drives (peak RSS growth, README) stays inside it.
#: a realistic run's two damping propagators (8 dim^3 bytes each) peak at 296 MB;
#: a full displacement cache, 32 matrices of 16 dim^2 bytes, is 34 MB
MAX_DIM = Range(hi=256)
#: one 1024 x 1024 raster of a dim-256 state, with its CSV export, peaks near 125 MB
MAX_RASTER_SIDE = Range(hi=1024)
#: zeno_run's trace rows (8 dim bytes each) take 200 MB at dim 256, a crush 250 MB
MAX_STEPS = Range(hi=100_000)
#: a realistic run's 2 * waypoints_per_component kicks are its steps
MAX_WAYPOINTS = Range(hi=MAX_STEPS.hi // 2)
#: a raster's tables grow with its window; at +-32 they take 58 MB (dim 256, 1024^2)
_BOUND = Annotated[float, Range(-32, 32)]
#: vacuum Rabi frequency of dressed kicks, 2 pi x 50 kHz in rad/s
DEFAULT_OMEGA = 2 * math.pi * 50e3


@dataclass
class TrajectoryConfig:
    start: complex
    stop: complex
    steps: Annotated[int, Range(1), MAX_STEPS]
    s: Annotated[int, NON_NEGATIVE] = 1
    adiabatic_cap: Annotated[float, POSITIVE] = DEFAULT_ADIABATIC_CAP

    def trajectory(self) -> TweezerTrajectory:
        return linear_trajectory(self.start, self.stop, self.steps, self.s, self.adiabatic_cap)


@dataclass
class PulseConfig:
    omega: Annotated[float, POSITIVE] = DEFAULT_OMEGA
    total_duration: Annotated[float, POSITIVE] = 3.4e-3  # s, whole protocol


@dataclass
class LindbladConfig:
    t_c: Annotated[float, POSITIVE] = 0.13
    n_th: Annotated[float, NON_NEGATIVE] = 0.0


@dataclass
class WignerConfig:
    nx: Annotated[int, Range(2), MAX_RASTER_SIDE] = 121
    ny: Annotated[int, Range(2), MAX_RASTER_SIDE] = 121
    bounds: tuple[_BOUND, _BOUND, _BOUND, _BOUND] | None = None  # None -> auto


@dataclass(kw_only=True)
class _PureRun:
    """Keys of the protocols that evolve a pure state and draw its Wigner function."""

    dim: Annotated[int, Range(2), MAX_DIM]
    leak_tol: Annotated[float, POSITIVE] = 1e-6
    dump_states: bool = False
    wigner: WignerConfig = field(default_factory=WignerConfig)


@dataclass(kw_only=True)
class ZenoConfig(_PureRun):
    protocol: Literal["zeno_confine", "zeno_upper", "tangential", "fig3_revival"]
    s: Annotated[int, NON_NEGATIVE] = 6
    beta: complex = 0.1
    alpha_init: complex = 0j
    cat_init: complex | None = None  # even cat |a> + |-a> instead of coherent
    steps: Annotated[int, Range(1), MAX_STEPS] = 45
    record_every: Annotated[int, Range(1)] = 1
    snapshot_every: Annotated[int, NON_NEGATIVE] = 0  # 0 -> no wigner snapshots
    kick_theta: Annotated[float, ANGLE] = 0.0  # 0 -> ideal kicks; else dressed kicks
    kick_rabi_drive: Annotated[float, NON_NEGATIVE] = 0.0
    kick_omega: Annotated[float, POSITIVE] = DEFAULT_OMEGA

    def pulse(self) -> PulseParams | None:
        """The pulse that dresses the run's kicks at s where kick_theta is set, else None."""
        return (PulseParams(self.kick_omega, self.kick_rabi_drive, self.kick_theta, self.s)
                if self.kick_theta else None)


@dataclass(kw_only=True)
class StretchConfig(_PureRun):
    protocol: Literal["tweezer_stretch"]
    gamma: complex = 0j  # hold point
    alpha_free: complex  # the moving component
    beta: complex = 0.1
    steps: Annotated[int, Range(1), MAX_STEPS] = 45


@dataclass(kw_only=True)
class TweezerConfig(_PureRun):
    protocol: Literal["tweezer_move"]
    alpha_init: complex = 0j
    cat_init: complex | None = None
    record_every: Annotated[int, Range(1)] = 1
    trajectories: Annotated[tuple[TrajectoryConfig, ...], Range(1)]
    interleave: Literal["roundrobin", "sequential"] = "roundrobin"
    target_alpha: complex | None = None  # even cat the fidelity compares against


@dataclass(kw_only=True)
class CrushConfig(_PureRun):
    protocol: Literal["crush"]
    alpha_init: complex = 0j
    cat_init: complex | None = None
    record_every: Annotated[int, Range(1)] = 1
    crush_centers: tuple[complex, complex] = (-2.5, 2.5)
    crush_steps: Annotated[int, Range(1), MAX_STEPS] = 200


@dataclass(kw_only=True)
class FourCatConfig(_PureRun):
    protocol: Literal["four_cat"]
    n_components: int = 4
    separation: Annotated[float, POSITIVE] = 2.5
    steps_per_crush: Annotated[int, Range(1), MAX_STEPS] = 200


@dataclass(kw_only=True)
class RealisticConfig:
    protocol: Literal["realistic"]
    dim: Annotated[int, Range(2), MAX_DIM]
    cat_init: complex = 2 + 0j
    target_alpha: complex = 3 + 0j
    interleave: Literal["roundrobin", "sequential"] = "roundrobin"
    waypoints_per_component: Annotated[int, Range(2), MAX_WAYPOINTS] = 5  # one move at least
    theta_grid: Annotated[
        tuple[Annotated[float, Range(0, 4 * math.pi, open_lo=True)], ...], Range(1)
    ] = (2 * math.pi, 2.0, 1.0, 0.5)
    pulse: PulseConfig
    lindblad: LindbladConfig = field(default_factory=LindbladConfig)


RunConfig = (ZenoConfig | StretchConfig | TweezerConfig | CrushConfig | FourCatConfig
             | RealisticConfig)


#: amplitudes the runner turns into coherent states, and the drive step beta
_AMPLITUDES = ("alpha_init", "cat_init", "target_alpha", "gamma", "alpha_free", "beta")


def _check(problems: list[str], key: str, rule: Callable[..., Any], *args) -> Any:
    """rule(*args), a library rule; None where its ValueError becomes a problem at key."""
    try:
        return rule(*args)
    except ValueError as exc:
        problems.append(f"{key}: {exc}")


def _validate(cfg: RunConfig, problems: list[str]) -> None:
    """Rules that relate several fields; single-field rules live on the fields."""
    amplitudes = {key: getattr(cfg, key, None) for key in _AMPLITUDES}
    if amplitudes["cat_init"] is not None:
        amplitudes["alpha_init"] = None  # the cat is built instead
    if isinstance(cfg, StretchConfig) and cfg.beta:  # the free component's last position
        amplitudes["alpha_free + steps * beta"] = cfg.alpha_free + cfg.steps * cfg.beta
    for k, t in enumerate(getattr(cfg, "trajectories", ())):  # a zero end kicks |s> in place
        amplitudes.update({f"trajectories[{k}].start": t.start or None,
                           f"trajectories[{k}].stop": t.stop or None})
    for k, c in enumerate(getattr(cfg, "crush_centers", ())):  # a zero centre kicks |1> there
        amplitudes[f"crush_centers[{k}]"] = c or None
    for key, z in amplitudes.items():
        if z is None or not z and key in ("alpha_init", "beta"):
            continue  # no coherent state: the vacuum, or the identity D(0)
        _check(problems, key, check_fits, z, cfg.dim)
    if isinstance(cfg, ZenoConfig):
        _check(problems, "s", check_guard_band, cfg.s, cfg.dim)
        _check(problems, "kick_rabi_drive", cfg.pulse)
    elif isinstance(cfg, (StretchConfig, CrushConfig, FourCatConfig)):
        _check(problems, "dim", check_guard_band, 1, cfg.dim)  # their tweezers kick at s = 1
    if isinstance(cfg, TweezerConfig):
        trajs = []
        for k, t in enumerate(cfg.trajectories):
            _check(problems, f"trajectories[{k}].s", check_guard_band, t.s, cfg.dim)
            trajs.append(_check(problems, f"trajectories[{k}]", t.trajectory))
        # every lobe of the initial state that no trajectory carries stays put
        lobes = (cfg.alpha_init,) if cfg.cat_init is None else (cfg.cat_init, -cfg.cat_init)
        if all(trajs):
            _check(problems, "trajectories", check_overlaps, trajs, lobes, cfg.interleave)
    # a crush's circles move to their midpoint; four_cat's start +-separation about it
    if isinstance(cfg, CrushConfig):
        a, b = cfg.crush_centers
        _check(problems, "crush_steps", linear_trajectory, a, (a + b) / 2, cfg.crush_steps)
    if isinstance(cfg, FourCatConfig):
        _check(problems, "steps_per_crush", linear_trajectory, cfg.separation, 0,
               cfg.steps_per_crush)
        n = cfg.n_components
        if n < 2 or (n & (n - 1)) != 0:
            problems.append(f"n_components: must be a power of two >= 2, got {n}")
    if isinstance(cfg, StretchConfig):
        _check(problems, "alpha_free", check_apart, cfg.gamma, cfg.alpha_free)
    if isinstance(cfg, RealisticConfig):
        # the amplitude rule with |z|^2 = n_th, the bath's mean occupancy; n_th = 0 adds none
        n_th = cfg.lindblad.n_th
        if n_th and not (need := required_dim(math.sqrt(n_th))) <= cfg.dim:
            problems.append(f"lindblad.n_th: {n_th:.6g} needs dim >= n_th + 6 sqrt(n_th) + 10 "
                            f"= {need:.6g}, got dim={cfg.dim}")
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
    "pulse.rabi_drive": "each angle's drive follows from total_duration",
    "guard_levels": f"the guard band is always the top {GUARD_LEVELS} levels",
    "overlap_tol": f"components overlap above the fixed tolerance {OVERLAP_TOL:g}",
    "snapshot_steps": "snapshots are taken every snapshot_every steps",
    "component_positions": "the components are the lobes of the initial state",
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
    """value as the scalar type tp. A ValueError names what was expected where
    JSON holds another kind, or a float or complex that is not finite."""
    if tp is bool and isinstance(value, bool):
        return value
    if tp is int and _is_number(value) and (isinstance(value, int) or value.is_integer()):
        return int(value)
    parts = value if tp is complex and isinstance(value, list) and len(value) == 2 else [value]
    if tp in (float, complex) and all(map(_is_number, parts)):
        try:  # NaN, Infinity and 1e400 (read as inf) are not finite
            if cmath.isfinite(out := tp(*parts)):
                return out
        except OverflowError:  # nor is an integer beyond the float range
            pass
        raise ValueError("a finite number")
    raise ValueError(_KINDS[tp])


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
        try:
            return _scalar(tp, value)
        except ValueError as exc:
            problems.append(f"{key}: expected {exc}, got {value!r}")
            return None
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
    """An instance of the dataclass cls from a JSON object, or None after a
    problem; a section with a problem (wigner, lindblad) takes its defaults."""
    if not isinstance(raw, dict):
        problems.append(f"{key}: expected an object, got {raw!r}")
        return None
    before = len(problems)
    prefix = f"{key}." if key else ""
    types = _field_types(cls)
    kwargs = {}
    sections = 0  # problems of sections that fall back to their defaults
    for name, value in raw.items():
        if name in types:
            mark = len(problems)
            kwargs[name] = _convert(types[name], value, prefix + name, problems)
            if kwargs[name] is None and cls.__dataclass_fields__[name].default_factory != MISSING:
                del kwargs[name]  # so that the rules across the other keys still run
                sections += len(problems) - mark
        else:
            note = _RETIRED_KEYS.get(prefix + name)
            problems.append(f"{prefix}{name}: unknown key" + (f" ({note})" if note else ""))
    for name, f in cls.__dataclass_fields__.items():
        if f.default is MISSING and f.default_factory is MISSING and name not in raw:
            problems.append(f"{prefix}{name}: missing (required)")
    return None if len(problems) > before + sections else cls(**kwargs)


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
    if cfg is not None:
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


def preset_raw(name: str) -> dict[str, Any]:
    files = resources.files("zenocavity").joinpath("presets")
    path = files.joinpath(f"{name}.json")
    if not path.is_file():
        raise ConfigError(
            [f"preset: unknown name {name!r}; available: {', '.join(list_presets())}"]
        )
    return json.loads(path.read_text(encoding="utf-8"))
