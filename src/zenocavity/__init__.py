"""Quantum Zeno dynamics simulator for a driven cavity field.

Photon-number-selective kicks carve exclusion circles into the field's
phase space; repeating them between small drive displacements confines,
drags, stretches and crushes coherent components. The package covers the
ideal stroboscopic engine, dressed kicks from a finite pulse, cavity
damping, the tweezer, stretch and crush protocols, Wigner rasters and a
config-driven command line runner.
"""

from .fock import (
    FieldState,
    TruncationError,
    annihilation_op,
    cat_state,
    coherent,
    creation_op,
    displacement_op,
    fidelity_pure,
    fock_basis,
    mean_energy,
    photon_distribution,
    vacuum,
)
from .zeno import (
    EvolutionTrace,
    KickSpec,
    Schedule,
    Step,
    ZenoTruncationError,
    uniform_schedule,
    zeno_run,
)
from .atomkick import (
    PulseParams,
    conditioned_field_diagonal,
    dressed_detunings,
    pulse_block_unitary,
)
from .openquantum import (
    LindbladParams,
    displaced_kick,
    evolve_master,
    fidelity_mixed,
    pure_density,
)
from .protocols import (
    TweezerTrajectory,
    crush_between,
    energy_matched_cat_amplitude,
    linear_trajectory,
    multi_cat_factory,
    stretch_cat,
    tweezer_run,
)
from .phasespace import WignerGrid, wigner_grid

__version__ = "0.1.0"
