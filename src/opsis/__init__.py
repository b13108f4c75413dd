"""Exactly computable time-frequency analysis of Hilbert-Schmidt operators
on the finite phase space Z_L x Z_L: lattices and symplectic Fourier series,
time-frequency shifts and symbol transforms, lattice-shift-invariant
operator subspaces, and sampling / perfect reconstruction kits.
"""

from .phase_space import (
    Lattice,
    LatticeError,
    annihilator,
    build_lattice,
    coset_transversal,
    dual_transversal,
    inv_symp_fourier,
    lattice_convolve,
    point_add,
    point_neg,
    symp_character_matrix,
    symp_fourier,
    symplectic_form,
)
from .timefreq import (
    UnsupportedModulusError,
    cross_wigner,
    dft,
    gaussian_window,
    rihaczek,
    shift_composition_phase,
    stft,
    tf_shift,
    tf_shift_adjoint,
    tf_shift_matrix,
)
from .hs_ops import (
    OperatorStack,
    fn_op_convolve,
    fourier_wigner,
    gabor_multiplier,
    hs_inner,
    hs_norm,
    identity,
    kn_operator,
    kn_symbol,
    op_translate,
    rank_one,
    weyl_operator,
    weyl_symbol,
)
from .si_space import (
    GeneratorSystem,
    NotRieszError,
    RieszReport,
    coefficients,
    correlation_sequences,
    gram_fibers,
    riesz_check,
    synthesize,
)
from .sampling import (
    FrameBounds,
    NotAFrameError,
    ReconstructionKit,
    TransferMatrix,
    average_scheme,
    avg_samples,
    berezin,
    channel_matrix,
    coefficient_frame_expansion,
    cross_seq,
    diag_channel_samples,
    dual_left_inverse,
    frame_bounds,
    inflate_coefficients,
    interpolation_deviation,
    reconstruct,
    reconstruction_kit,
    sublattice_inflate,
    transfer_matrix,
    window_scheme,
)

__version__ = "0.2.0"
