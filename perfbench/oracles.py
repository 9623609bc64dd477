"""Reference computations written without zenocavity code.

Every check in the benchmark compares the program's output with one of
these functions, or with a property the method must have. They build
states and operators from the textbook formulas with numpy and
scipy.linalg.expm only.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

W_MAX = 2.0 / math.pi


def lowering(dim: int) -> np.ndarray:
    """Truncated annihilation operator, a|n> = sqrt(n)|n-1>."""
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)


def displacement(beta: complex, dim: int) -> np.ndarray:
    """exp(beta a+ - beta* a) on the truncated basis, by scipy's expm."""
    a = lowering(dim)
    return expm(complex(beta) * a.conj().T - np.conj(complex(beta)) * a)


def coherent(alpha: complex, dim: int) -> np.ndarray:
    """Normalised amplitudes of |alpha> on |0>..|dim-1>."""
    alpha = complex(alpha)
    if alpha == 0:
        amps = np.zeros(dim, dtype=complex)
        amps[0] = 1.0
        return amps
    n = np.arange(dim)
    log_fact = np.array([math.lgamma(k + 1.0) for k in n])
    amps = np.exp(n * math.log(abs(alpha)) - 0.5 * log_fact) * np.exp(1j * n * np.angle(alpha))
    return amps / np.linalg.norm(amps)


def even_cat(alpha: complex, dim: int) -> np.ndarray:
    amps = coherent(alpha, dim) + coherent(-alpha, dim)
    return amps / np.linalg.norm(amps)


def mean_energy(amps: np.ndarray) -> float:
    return float(np.arange(amps.size) @ (np.abs(amps) ** 2))


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    return float(abs(np.vdot(a, b)) ** 2 / (np.vdot(a, a).real * np.vdot(b, b).real))


def parity_wigner_origin(amps: np.ndarray) -> float:
    """W(0) = (2/pi) sum_n (-1)^n p_n."""
    probs = np.abs(amps) ** 2
    signs = np.where(np.arange(probs.size) % 2 == 0, 1.0, -1.0)
    return W_MAX * float(signs @ probs) / float(probs.sum())


def coherent_wigner(alpha: complex, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """(2/pi) exp(-2|xi - alpha|^2) on the raster, values[j, i] at x_i + i y_j."""
    alpha = complex(alpha)
    dx = xs[None, :] - alpha.real
    dy = ys[:, None] - alpha.imag
    return W_MAX * np.exp(-2.0 * (dx * dx + dy * dy))


def trapezoid_2d(values: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> float:
    inner = np.trapezoid(values, xs, axis=1)
    return float(np.trapezoid(inner, ys))


def pgm_levels(values: np.ndarray) -> np.ndarray:
    """Grey levels of the documented export: -2/pi -> 0, +2/pi -> 255."""
    scaled = (values + W_MAX) / (2.0 * W_MAX) * 255.0
    return np.clip(np.round(scaled), 0, 255).astype(int)


def tweezer_move(start: complex, stop: complex, n_moves: int, dim: int,
                 skip_kick: int | None = None) -> np.ndarray:
    """Final state of an even cat whose components at +-start are dragged
    to +-stop by s = 1 kicks at n_moves + 1 equally spaced centres.

    Rounds alternate the kick on the +start component with the one on the
    -start component. A kick at centre g is 1 - 2 v v+ with
    v = D(g)|1>; the columns are advanced centre to centre by the
    displacement of one move, which fixes v up to a phase that drops out
    of the projector. skip_kick leaves out the kick with that index, to
    build a deliberately wrong state for the checks' own tests.
    """
    start, stop = complex(start), complex(stop)
    step = (stop - start) / n_moves
    e1 = np.zeros(dim, dtype=complex)
    e1[1] = 1.0
    cols = [displacement(start, dim) @ e1, displacement(-start, dim) @ e1]
    moves = [displacement(step, dim), displacement(-step, dim)]
    psi = even_cat(start, dim)
    kick = 0
    for _ in range(n_moves + 1):
        for k in (0, 1):
            v = cols[k]
            if kick != skip_kick:
                psi = psi - 2.0 * np.vdot(v, psi) * v
            kick += 1
            cols[k] = moves[k] @ v
    return psi


def zeno_final_energy(beta: float, s: int, steps: int, dim: int) -> float:
    """<n> after `steps` rounds of D(beta) then the ideal kick 1 - 2|s><s|,
    starting from the vacuum."""
    d = displacement(beta, dim)
    psi = np.zeros(dim, dtype=complex)
    psi[0] = 1.0
    for _ in range(steps):
        psi = d @ psi
        psi[s] = -psi[s]
    return mean_energy(psi / np.linalg.norm(psi))


def damped_energy(n0: float, t: float, t_c: float, n_th: float) -> float:
    """<n>(t) = <n>0 e^{-t/T_c} + n_th (1 - e^{-t/T_c}) for the damped cavity."""
    decay = math.exp(-t / t_c)
    return n0 * decay + n_th * (1.0 - decay)
