"""High-level phase-space protocols built on the Zeno engine.

A tweezer is an s=1 exclusion circle whose center gamma moves a little
between kicks while the free drive stays off. A coherent component
sitting at the center is an eigenstate of the kick and follows the
trajectory adiabatically; components away from the trajectory are
untouched. Converging two tweezers onto one component crushes it into a
two-lobe superposition; repeating the crush on each lobe doubles the
component count.

Trajectory shapes are straight lines between endpoints; simultaneous
trajectories interleave their kicks round-robin (one kick each per
round), or run one after the other in sequential mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .fock import (
    DEFAULT_GUARD_LEVELS,
    DEFAULT_LEAK_TOL,
    FieldState,
    cat_state,
    coherent,
    fidelity_pure,
    mean_energy,
)
from .zeno import EvolutionTrace, KickSpec, Schedule, Step, zeno_run
from .atomkick import PulseParams

DEFAULT_ADIABATIC_CAP = 0.1
#: Gaussian overlap exp(-|d|^2 / 2) above this counts as overlapping;
#: coherent-state width is the only scale (|d| of about 3.7)
DEFAULT_OVERLAP_TOL = 1e-3


@dataclass(frozen=True)
class TweezerTrajectory:
    """Waypoints of one moving exclusion circle."""

    s: int
    waypoints: tuple[complex, ...]
    adiabatic_cap: float = DEFAULT_ADIABATIC_CAP

    def __post_init__(self):
        wps = tuple(complex(w) for w in self.waypoints)
        if len(wps) < 1:
            raise ValueError("trajectory needs at least one waypoint")
        object.__setattr__(self, "waypoints", wps)
        cap = self.adiabatic_cap * (1.0 + 1e-12)  # tolerate an exact-cap step
        for a, b in zip(wps, wps[1:]):
            if abs(b - a) > cap:
                raise ValueError(
                    f"waypoint jump {abs(b - a):.4g} exceeds adiabatic cap "
                    f"{self.adiabatic_cap:.4g}"
                )

    @property
    def n_moves(self) -> int:
        return len(self.waypoints) - 1


def linear_trajectory(
    start: complex,
    stop: complex,
    n_steps: int,
    s: int = 1,
    adiabatic_cap: float = DEFAULT_ADIABATIC_CAP,
) -> TweezerTrajectory:
    """Straight line from start to stop in n_steps equal moves."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    ts = np.linspace(0.0, 1.0, n_steps + 1)
    wps = tuple(complex(start) * (1 - t) + complex(stop) * t for t in ts)
    return TweezerTrajectory(s=s, waypoints=wps, adiabatic_cap=adiabatic_cap)


def gaussian_overlap(a: complex, b: complex) -> float:
    """|<a|b>|^2 for coherent states, exp(-|a-b|^2)."""
    return math.exp(-abs(complex(a) - complex(b)) ** 2)


def _check_overlaps(
    trajectories: Sequence[TweezerTrajectory],
    component_positions: Sequence[complex],
    overlap_tol: float,
) -> None:
    # a trajectory targets the component sitting at its first waypoint
    for k, traj in enumerate(trajectories):
        for pos in component_positions:
            if gaussian_overlap(traj.waypoints[0], pos) > 0.5:
                continue  # this is the trapped component
            worst = max(gaussian_overlap(w, pos) for w in traj.waypoints)
            if worst > overlap_tol:
                raise ValueError(
                    f"trajectory {k} passes within overlap "
                    f"{worst:.2e} > {overlap_tol:.1e} of the component at {pos}"
                )
    for k, ta in enumerate(trajectories):
        for tb in trajectories[k + 1:]:
            worst = max(
                gaussian_overlap(wa, wb)
                for wa, wb in zip(ta.waypoints, tb.waypoints)
            )
            if worst > overlap_tol:
                raise ValueError(
                    f"two trajectories overlap (gaussian overlap {worst:.2e})"
                )


def build_tweezer_schedule(
    trajectories: Sequence[TweezerTrajectory],
    interleave: Literal["roundrobin", "sequential"] = "roundrobin",
    pulse: PulseParams | None = None,
) -> Schedule:
    """Schedule for moving tweezers: one kick at every waypoint, drive off.

    Counting the kick at the initial waypoint, a trajectory of n moves
    costs n + 1 kicks. The dragged component alternates between sitting
    at the circle center and one move ahead of it (each kick reflects the
    component about the center), so for an odd number of moves it ends one
    move size past the final waypoint; this discretization is what the
    quoted tweezer fidelities correspond to.

    Round-robin: each round advances every trajectory one waypoint and
    kicks once per trajectory (coincident centers are kicked once, as
    when a crush closes). Sequential: trajectories run one after the
    other.
    """
    steps: list[Step] = []
    if interleave == "sequential":
        for traj in trajectories:
            for gamma in traj.waypoints:
                steps.append(Step(kicks=(KickSpec(s=traj.s, gamma=gamma, pulse=pulse),)))
    elif interleave == "roundrobin":
        n_rounds = max(t.n_moves for t in trajectories) + 1
        for p in range(n_rounds):
            kicks: list[KickSpec] = []
            seen: list[tuple[int, complex]] = []
            for traj in trajectories:
                gamma = traj.waypoints[min(p, traj.n_moves)]
                key = (traj.s, gamma)
                if key in seen:
                    continue
                seen.append(key)
                kicks.append(KickSpec(s=traj.s, gamma=gamma, pulse=pulse))
            steps.append(Step(kicks=tuple(kicks)))
    else:
        raise ValueError(f"unknown interleave mode {interleave!r}")
    return Schedule(steps=tuple(steps))


def tweezer_run(
    state: FieldState,
    trajectories: Sequence[TweezerTrajectory],
    interleave: Literal["roundrobin", "sequential"] = "roundrobin",
    component_positions: Sequence[complex] | None = None,
    overlap_tol: float = DEFAULT_OVERLAP_TOL,
    record_every: int = 1,
    guard_levels: int = DEFAULT_GUARD_LEVELS,
    leak_tol: float = DEFAULT_LEAK_TOL,
) -> tuple[FieldState, EvolutionTrace]:
    """Drag coherent components along their trajectories.

    component_positions lists where the state's coherent components sit,
    so trajectories can be checked against the ones they must not touch;
    pass the known centers from the protocol setup. Trajectories that
    intentionally converge (crushes) run through crush_between instead,
    which skips the pairwise check.
    """
    if not trajectories:
        raise ValueError("need at least one trajectory")
    if component_positions is not None:
        _check_overlaps(trajectories, component_positions, overlap_tol)
    schedule = build_tweezer_schedule(trajectories, interleave=interleave)
    trace = zeno_run(
        state, schedule, record_every=record_every,
        guard_levels=guard_levels, leak_tol=leak_tol,
    )
    return trace.final_state, trace


def stretch_cat(
    state: FieldState,
    gamma: complex,
    beta: complex,
    n_steps: int,
    alpha: complex | None = None,
    overlap_tol: float = DEFAULT_OVERLAP_TOL,
) -> tuple[FieldState, float | None]:
    """Hold the component at gamma with an s=1 tweezer while the drive runs.

    After n_steps the free component alpha moves to alpha + n_steps*beta
    and picks up the phase exp(i * n_steps * Im(beta * conj(alpha))).
    When alpha is given the overlap precondition is enforced and the
    fidelity against that analytic target is returned.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    gamma = complex(gamma)
    beta = complex(beta)
    fid = None
    if n_steps == 0:
        return state, (1.0 if alpha is not None else None)
    if alpha is not None:
        alpha = complex(alpha)
        if gaussian_overlap(gamma, alpha) > overlap_tol:
            raise ValueError(
                f"components at {gamma} and {alpha} overlap "
                f"({gaussian_overlap(gamma, alpha):.2e} > {overlap_tol:.1e})"
            )
    step = Step(displacement=beta, kicks=(KickSpec(s=1, gamma=gamma),))
    trace = zeno_run(state, Schedule(steps=(step,) * n_steps))
    out = trace.final_state
    if alpha is not None:
        # free component picks up Im(beta alpha*) per step; the held one
        # picks up the topological phase 2 Im(beta gamma*) per step (zero
        # for real-axis configurations, where the relative phase reduces
        # to the bare exp(i N Im(beta alpha*)))
        rel = np.exp(
            1j * n_steps * ((beta * np.conj(alpha)).imag
                            - 2.0 * (beta * np.conj(gamma)).imag)
        )
        target_amps = (
            coherent(gamma, state.dim).amps
            + rel * coherent(alpha + n_steps * beta, state.dim).amps
        )
        fid = fidelity_pure(out, FieldState(target_amps))
    return out, fid


def crush_between(
    state: FieldState,
    center_a: complex,
    center_b: complex,
    n_steps: int,
    end_a: complex | None = None,
    end_b: complex | None = None,
    record_every: int = 1,
) -> tuple[FieldState, EvolutionTrace]:
    """Converge two s=1 circles from center_a/center_b onto the midpoint.

    Both centers move simultaneously and push the wavefunction outside
    both circles; the final kick, where the circles coincide, is applied
    once. Custom endpoints allow a nonzero final separation.
    """
    mid = (complex(center_a) + complex(center_b)) / 2.0
    schedule = build_tweezer_schedule((
        linear_trajectory(center_a, mid if end_a is None else end_a, n_steps),
        linear_trajectory(center_b, mid if end_b is None else end_b, n_steps),
    ))
    trace = zeno_run(state, schedule, record_every=record_every)
    return trace.final_state, trace


def energy_matched_cat_amplitude(target_energy: float) -> float:
    """Real alpha of the |alpha> + |-alpha> cat with the given mean energy.

    Solves a^2 tanh(a^2) = E by bisection to 1e-10; the even cat's energy
    interpolates between 0 and a^2 as the components separate.
    """
    if target_energy <= 0:
        raise ValueError("target energy must be positive")

    def f(a: float) -> float:
        a2 = a * a
        return a2 * math.tanh(a2) - target_energy

    lo, hi = 0.0, math.sqrt(target_energy) + 1.0
    while f(hi) < 0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo < 1e-10:
            break
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def crush_fidelity_vs_matched_cat(state: FieldState) -> tuple[float, float, float]:
    """(mean energy, matched cat amplitude, fidelity) for a crushed state.

    The reference is the |alpha> + |-alpha> cat of equal mean energy with
    alpha aligned to the state's dominant axis (crushes split along the
    approach axis: the +-2.5 real-axis crush has <a^2> = +6.0 and two
    Wigner lobes on the real axis).
    """
    energy = mean_energy(state)
    a = energy_matched_cat_amplitude(energy)
    # orient the cat along the state's major axis via <a^2>
    from .fock import annihilation_op

    op = annihilation_op(state.dim)
    ea2 = complex(np.vdot(state.amps, op @ (op @ state.amps)))
    axis = np.exp(0.5j * np.angle(ea2)) if abs(ea2) > 1e-12 else 1.0
    best = 0.0
    for phase in (1.0, -1.0, 1j, -1j):
        target = cat_state(a * axis, phase, state.dim)
        best = max(best, fidelity_pure(state, target))
    return energy, a, best


def multi_cat_factory(
    n_components: int,
    dim: int,
    separation: float = 2.5,
    steps_per_crush: int = 200,
    initial_state: FieldState | None = None,
) -> FieldState:
    """Build a 2^k-component superposition by successive crushes.

    The first crush squeezes the vacuum between circles approaching along
    the real axis; the next generation brackets each component along the
    imaginary axis, and so on, rotating 90 degrees per generation. The
    lobes of a crush land along the approach axis (each circle pushes its
    half of the wavefunction ahead of itself), a distance estimated from
    the energy the crush added; that classical estimate is only used to
    aim the next generation's circles.
    """
    if n_components < 1 or (n_components & (n_components - 1)) != 0:
        raise ValueError("n_components must be a power of two")
    state = initial_state if initial_state is not None else coherent(0, dim)
    components: list[complex] = [0j]
    axis = 1 + 0j
    while len(components) < n_components:
        next_components: list[complex] = []
        for pos in components:
            e_before = mean_energy(state)
            state, _ = crush_between(
                state,
                pos + separation * axis,
                pos - separation * axis,
                steps_per_crush,
                end_a=pos,
                end_b=pos,
            )
            # the crushed component carries ~1/len(components) of the population
            gained = max(mean_energy(state) - e_before, 0.0)
            radius = math.sqrt(gained * len(components))
            next_components.append(pos + radius * axis)
            next_components.append(pos - radius * axis)
        components = next_components
        axis *= 1j
    return state
