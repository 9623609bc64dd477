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
    DEFAULT_LEAK_TOL,
    FieldState,
    annihilation_op,
    cat_state,
    coherent,
    fidelity_pure,
    mean_energy,
    vacuum,
)
from .zeno import EvolutionTrace, KickSpec, Schedule, Step, uniform_schedule, zeno_run
from .atomkick import PulseParams

DEFAULT_ADIABATIC_CAP = 0.1
#: gaussian_overlap above this counts as overlapping: coherent-state width
#: is the only scale, and exp(-|d|^2) = 1e-3 at a distance |d| of about 2.6
OVERLAP_TOL = 1e-3


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
        with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN beyond the float range
            jumps = np.abs(np.diff(wps))
        over = jumps[~(jumps <= self.adiabatic_cap * (1.0 + 1e-12))]  # an exact-cap step passes
        if over.size:
            raise ValueError(
                f"waypoint jump {over[0]:.4g} exceeds adiabatic cap {self.adiabatic_cap:.4g}")

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
    with np.errstate(over="ignore", invalid="ignore"):  # Python's complex product does not warn
        wps = complex(start) * (1 - ts) + complex(stop) * ts
    return TweezerTrajectory(s=s, waypoints=tuple(wps.tolist()), adiabatic_cap=adiabatic_cap)


def gaussian_overlap(a: complex, b: complex) -> float:
    """|<a|b>|^2 for coherent states, exp(-|a-b|^2); 0 where |a-b|^2 overflows."""
    d = complex(a) - complex(b)
    h = math.hypot(d.real, d.imag)  # abs(d) ** 2 raises where it overflows
    return math.exp(-h * h)


def _frames(
    trajectories: Sequence[TweezerTrajectory],
    interleave: Literal["roundrobin", "sequential"],
) -> list[tuple[tuple[complex, ...], tuple[int, ...]]]:
    """One (positions, kicking) pair per schedule step: where each
    trajectory's centre, and the component it carries, sits at that step,
    and the indices of the trajectories that kick there.

    Round-robin: step r moves every trajectory to its waypoint r (a
    finished one stays at its end) and all of them kick. Sequential:
    trajectory k runs its waypoints alone while the earlier ones sit at
    their end and the later ones wait at their start.
    """
    if interleave == "roundrobin":
        n_rounds = max(t.n_moves for t in trajectories) + 1
        everyone = tuple(range(len(trajectories)))
        paths = [t.waypoints + t.waypoints[-1:] * (n_rounds - len(t.waypoints))
                 for t in trajectories]
        return [(positions, everyone) for positions in zip(*paths)]
    if interleave == "sequential":
        ends = tuple(t.waypoints[-1] for t in trajectories)
        starts = tuple(t.waypoints[0] for t in trajectories)
        return [(ends[:k] + (gamma,) + starts[k + 1:], (k,))
                for k, traj in enumerate(trajectories) for gamma in traj.waypoints]
    raise ValueError(f"unknown interleave mode {interleave!r}")


def check_overlaps(
    trajectories: Sequence[TweezerTrajectory],
    component_positions: Sequence[complex],
    interleave: Literal["roundrobin", "sequential"],
) -> None:
    """Raise ValueError where a component comes within OVERLAP_TOL of another at
    any step: a trajectory carries the component at its first waypoint, and
    the other listed components stay where they are."""
    frames = _frames(trajectories, interleave)
    still = tuple(p for p in component_positions
                  if all(gaussian_overlap(w, p) <= 0.5 for w in frames[0][0]))
    at = np.array([positions + still for positions, _ in frames])
    with np.errstate(over="ignore", invalid="ignore"):  # far apart: overlap 0
        for k in range(len(trajectories)):
            overlap = np.exp(-np.abs(at[:, k + 1:] - at[:, k:k + 1]) ** 2)
            if overlap.size and overlap.max() > OVERLAP_TOL:
                row, col = np.unravel_index(np.argmax(overlap), overlap.shape)
                raise ValueError(
                    f"components at {at[row, k]:.4g} (trajectory {k}) and "
                    f"{at[row, k + 1 + col]:.4g} come within overlap "
                    f"{overlap[row, col]:.2e} > {OVERLAP_TOL:.1e}"
                )


def check_apart(a: complex, b: complex) -> None:
    """Raise ValueError where the coherent components at a and b overlap
    (gaussian_overlap above OVERLAP_TOL)."""
    if (overlap := gaussian_overlap(a, b)) > OVERLAP_TOL:
        raise ValueError(f"components at {a} and {b} overlap ({overlap:.2e} > {OVERLAP_TOL:.1e})")


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

    The steps follow _frames: round-robin rounds kick once per trajectory
    (coincident centers are kicked once, as when a crush closes), and
    sequential trajectories run one after the other. pulse, if given,
    dresses every kick.
    """
    steps = []
    for positions, kicking in _frames(trajectories, interleave):
        kicks = dict.fromkeys(KickSpec(trajectories[k].s, positions[k]) for k in kicking)
        steps.append(Step(kicks=tuple(kicks)))
    return Schedule(tuple(steps), pulse)


def tweezer_run(
    state: FieldState,
    trajectories: Sequence[TweezerTrajectory],
    interleave: Literal["roundrobin", "sequential"] = "roundrobin",
    record_every: int = 1,
    leak_tol: float = DEFAULT_LEAK_TOL,
) -> tuple[FieldState, EvolutionTrace]:
    """Drag coherent components along their trajectories.

    The run checks no overlaps: where the components must stay clear of
    each other, call check_overlaps first (a tweezer_move config does so
    when it is parsed). Crushes converge on purpose (crush_between).
    """
    if not trajectories:
        raise ValueError("need at least one trajectory")
    schedule = build_tweezer_schedule(trajectories, interleave=interleave)
    trace = zeno_run(state, schedule, record_every=record_every, leak_tol=leak_tol)
    return trace.final_state, trace


def stretch_cat(
    state: FieldState,
    gamma: complex,
    beta: complex,
    n_steps: int,
    alpha: complex,
    leak_tol: float = DEFAULT_LEAK_TOL,
) -> tuple[EvolutionTrace, float]:
    """Hold the component at gamma with an s=1 tweezer while the drive runs.

    After n_steps >= 1 the free component alpha moves to alpha + n_steps*beta
    and picks up the phase exp(i * n_steps * Im(beta * conj(alpha))).
    The components must not overlap (check_apart raises ValueError);
    returns the run's trace and the fidelity of its final_state against
    that analytic target.
    """
    gamma = complex(gamma)
    beta = complex(beta)
    alpha = complex(alpha)
    check_apart(gamma, alpha)
    trace = zeno_run(state, uniform_schedule(n_steps, beta, [KickSpec(s=1, gamma=gamma)]),
                     leak_tol=leak_tol)
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
    return trace, fidelity_pure(trace.final_state, FieldState(target_amps))


def crush_between(
    state: FieldState,
    center_a: complex,
    center_b: complex,
    n_steps: int,
    record_every: int = 1,
    leak_tol: float = DEFAULT_LEAK_TOL,
) -> tuple[FieldState, EvolutionTrace]:
    """Converge two s=1 circles from center_a/center_b onto the midpoint.

    Both centers move simultaneously and push the wavefunction outside
    both circles; the final kick, where the circles coincide, is applied
    once. The circles converge on purpose, so no overlap rule applies.
    """
    mid = (complex(center_a) + complex(center_b)) / 2.0
    trajs = (linear_trajectory(center_a, mid, n_steps), linear_trajectory(center_b, mid, n_steps))
    return tweezer_run(state, trajs, record_every=record_every, leak_tol=leak_tol)


def energy_matched_cat_amplitude(target_energy: float) -> float:
    """Real alpha of the |alpha> + |-alpha> cat with the given mean energy.

    Solves a^2 tanh(a^2) = E by bisection on [0, sqrt(E) + 1] to 1e-10, or
    until no float lies between the bounds; the bracket holds the root,
    since (sqrt(E) + 1)^2 tanh((sqrt(E) + 1)^2) > E for every E > 0. The
    even cat's energy interpolates between 0 and a^2 as the components
    separate. E must be positive and finite (ValueError otherwise).
    """
    if not 0 < target_energy < math.inf:
        raise ValueError("target energy must be positive and finite")

    def f(a: float) -> float:
        a2 = a * a
        return a2 * math.tanh(a2) - target_energy

    lo, hi = 0.0, math.sqrt(target_energy) + 1.0
    mid = 0.5 * (lo + hi)
    while hi - lo >= 1e-10 and lo < mid < hi:
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid


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
    leak_tol: float = DEFAULT_LEAK_TOL,
) -> tuple[FieldState, float]:
    """Build a 2^k-component superposition by successive crushes.

    The first crush squeezes the vacuum between circles approaching along
    the real axis; the next generation brackets each component along the
    imaginary axis, and so on, rotating 90 degrees per generation. The
    lobes of a crush land along the approach axis (each circle pushes its
    half of the wavefunction ahead of itself), a distance estimated from
    the energy the crush added; that classical estimate is only used to
    aim the next generation's circles. Returns the final state and the
    largest leak over every step of its crushes (0 without a crush).
    """
    if n_components < 1 or (n_components & (n_components - 1)) != 0:
        raise ValueError("n_components must be a power of two")
    state = vacuum(dim)
    max_leak = 0.0
    components: list[complex] = [0j]
    axis = 1 + 0j
    while len(components) < n_components:
        next_components: list[complex] = []
        for pos in components:
            e_before = mean_energy(state)
            state, trace = crush_between(state, pos + separation * axis, pos - separation * axis,
                                         steps_per_crush, leak_tol=leak_tol)
            max_leak = max(max_leak, trace.max_leak)
            # the crushed component carries ~1/len(components) of the population
            gained = max(mean_energy(state) - e_before, 0.0)
            radius = math.sqrt(gained * len(components))
            next_components.append(pos + radius * axis)
            next_components.append(pos - radius * axis)
        components = next_components
        axis *= 1j
    return state, max_leak
