"""Photon-number-selective kick from a finite interrogation pulse.

A control atom sits in a level h that is uncoupled from the resonant
cavity mode. The atom-cavity eigenstates at n photons are the doublet
|+,n>, |-,n>, split by Omega*sqrt(n) around the bare line (Omega is the
vacuum Rabi frequency). An interrogation pulse drives h towards this
doublet; because the line position depends on n it can address a single
photon number s.

Level scheme per photon number n (rotating frame of the drive, drive
tuned to the h -> |+,s> line, detunings = transition minus drive):

    n >= 1:   {|h,n>, |+,n>, |-,n>}
              delta_plus(n)  = (Omega/2)(sqrt(n) - sqrt(s))
              delta_minus(n) = -(Omega/2)(sqrt(n) + sqrt(s))
              couplings Omega_R / (2 sqrt(2)) to each branch
    n == 0:   bare two-level {|h,0>, |g,0>} at delta = -(Omega/2) sqrt(s),
              coupling Omega_R / 2 (the vacuum has no dressed doublet)

The drive never couples different photon numbers, so one kick is exactly
block-diagonal in n and the model below is exact within this level
scheme; no time-dependent joint integration is needed.

In the resolved limit (Omega_R much below the line spacing) a 2*pi pulse
flips the sign of |h,s> and leaves every other |h,n> untouched: the ideal
kick 1 - 2|s><s| on the field, the atom always back in h. Finite Omega_R
or a Rabi angle other than 2*pi leak population out of h; the conditioned
field operator then is a diagonal contraction whose per-n leak is
1 - |<h,n|U_n|h,n>|^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class PulseParams:
    """Interrogation pulse acting on photon number s.

    omega: vacuum Rabi frequency (rad/s), sets the dressed-level splitting.
    rabi_drive: drive Rabi frequency on the bare h->g line (rad/s).
    theta: target Rabi angle on the resonant dressed transition (rad).
    s: addressed photon number.

    The pulse always couples h to both dressed branches of every n >= 1.
    """

    omega: float
    rabi_drive: float
    theta: float
    s: int

    def __post_init__(self):
        if not all(math.isfinite(v) and v > 0 for v in (self.omega, self.rabi_drive)):
            raise ValueError("omega and rabi_drive must be finite and positive")
        # theta = 0 is allowed as the degenerate zero-length pulse (identity)
        if not 0 <= self.theta <= 4 * math.pi:
            raise ValueError("theta must lie in [0, 4*pi]")
        if self.s < 0:
            raise ValueError("s must be non-negative")

    @property
    def duration(self) -> float:
        """Pulse length in seconds for the target angle on the s line."""
        if self.s == 0:
            return self.theta / self.rabi_drive
        return self.theta * math.sqrt(2.0) / self.rabi_drive


def dressed_detunings(n: int | np.ndarray, params: PulseParams) -> tuple:
    """Detunings (transition minus drive) of the two branches at n photons.

    Two floats, or two arrays for an array n. At n = 0 there is a single
    bare line; its detuning is in the first slot and the second is NaN.
    """
    n = np.asarray(n)
    if np.any(n < 0):
        raise ValueError("n must be non-negative")
    half = 0.5 * params.omega
    rs = math.sqrt(params.s)
    rn = np.sqrt(n)
    return half * (rn - rs), np.where(n == 0, np.nan, -half * (rn + rs))[()]


def _pulse_unitaries(params: PulseParams, n: np.ndarray) -> np.ndarray:
    """exp(-i H_n tau) for each n in (h, +, -) slots, by one batched eigh; (len(n), 3, 3).

    H_n couples h to |+,n> and |-,n> at Omega_R / (2 sqrt 2); at n = 0 it
    couples h to the bare |g,0> (slot +) at Omega_R / 2. The slot outside
    the block, |-,0>, is the identity.
    """
    d_plus, d_minus = dressed_detunings(n, params)
    minus = n > 0
    coupling = params.rabi_drive / np.where(n == 0, 2.0, 2.0 * math.sqrt(2.0))
    h = np.zeros((len(n), 3, 3), dtype=np.complex128)
    h[:, 0, 1] = h[:, 1, 0] = coupling
    h[:, 1, 1] = d_plus
    h[minus, 0, 2] = h[minus, 2, 0] = coupling[minus]
    h[minus, 2, 2] = d_minus[minus]
    w, v = np.linalg.eigh(h)
    u = (v * np.exp(-1j * w * params.duration)[:, None, :]) @ v.conj().transpose(0, 2, 1)
    u[~minus, 2] = u[~minus, :, 2] = (0, 0, 1)  # the spare slot, exactly
    return u


def pulse_block_unitary(n: int, params: PulseParams) -> np.ndarray:
    """Propagator of the pulse on the n-photon block.

    Basis {|h,n>, |+,n>, |-,n>} for n >= 1, {|h,0>, |g,0>} at n = 0. Returns
    exp(-i H_n tau) with tau = params.duration: one pulse lasts the same
    time on every block.
    """
    k = 3 if n else 2
    return _pulse_unitaries(params, np.array([n]))[0, :k, :k]


@lru_cache(maxsize=64)
def pulse_blocks(params: PulseParams, dim: int) -> np.ndarray:
    """Per-n pulse propagators embedded in (h, +, -) slots; shape (dim, 3, 3).

    At n = 0 the spare slot is the identity, so an amplitude parked there
    is untouched.
    """
    blocks = _pulse_unitaries(params, np.arange(dim))
    blocks.flags.writeable = False
    return blocks


def conditioned_field_diagonal(params: PulseParams, dim: int) -> np.ndarray:
    """Diagonal entries <h,n|U_n|h,n> for n = 0..dim-1 (read-only)."""
    return pulse_blocks(params, dim)[:, 0, 0]
