"""Diagonal-channel and average sampling of operators, the transfer-matrix
frame test, dual construction, and perfect reconstruction.

The sample of an operator T in channel m at lattice point lam is

    s[m](lam) = <translate(-lam, T) g_m, gt_m>,

which equals both <T shift(lam) g_m, shift(lam) gt_m> (a diagonal entry of
the channel matrix) and <T, translate(lam, gt_m (x) g_m)> (an average
sample against a rank-one averager).  For T synthesized from coefficients c
over a generator system, sampling is a lattice convolution,
s[m] = sum_n a[m, n] * c[n], with a[m, n] the samples of the generators
themselves.  Fiberwise, shat(xi) = Ahat(xi) chat(xi); a left inverse
Bhat(xi) of every fiber (the Moore-Penrose pseudoinverse by default, or any
member of the family Ahat+ + C (I - Ahat Ahat+)) turns into reconstruction
operators H_m, and

    T = sum_m sum_lam s[m](lam) translate(lam, H_m)

recovers every T in the span exactly.

One batch rule holds for every entry point here and in
:mod:`opsis.si_space`: an operator T, or its transform F_T, is (..., L, L),
a sample array (..., M, |lattice|) and a coefficient array
(..., N, |lattice|).  The leading axes are batch axes, kept by every
output, and each operator of a batch gets the values it gets alone; a
wrong trailing shape raises a ValueError naming both shapes, from the
one check of :mod:`opsis.phase_space` that the lattice series share.

The frame bounds are the extreme squared singular values over the
transfer fibers Ahat(xi).  With at most 2 generators or 2 channels they
are computed in closed form over all fibers at once, within a small
multiple of eps times the fiber's largest singular value, LAPACK's bound;
np.linalg.svd serves larger fibers (see
:func:`~opsis.si_space.fiber_singular_values`).  The Moore-Penrose left
inverses, their route and pinv's cutoff PINV_RCOND are
:func:`~opsis.si_space.fiber_left_inverse`'s; :func:`dual_left_inverse`
holds only the gates: the frame bound, the C family and the residual.

:class:`ReconstructionKit` is this chain as one staged pipeline: the Riesz
report, the transfer matrix, the frame bounds, the dual fibers and the
spreading transforms of the H_m are each computed once, on first use, and
cached read-only; the dual stage gates on the Riesz and frame tolerances
the kit was built with.  The H_m and the sequences b are formed only when
read.  :class:`TransferMatrix` and :class:`ReconstructionKit` are
:class:`~opsis.phase_space.Immutable` records, equal only to themselves,
and :class:`FrameBounds` a NamedTuple.  With :class:`~opsis.si_space.RieszReport`
writing its own methods, importing the package generates no dataclass code.

Production routes run in the spreading domain and on the fibers, and read
operator records through their transforms alone.  Every sample is a
:func:`~opsis.hs_ops.lattice_pairing` of F_T = fourier_wigner(T) with the
scheme's averagers, and :func:`reconstruct_from_spreading` takes the
fibers of that fold as they are.  Both give the batch of F_T one axis
before its grid axes, F_T[..., None, :, :], or before its coset layout's,
which pairs each operator with every averager, as
:func:`~opsis.si_space.coefficients` does with every generator.  The kit's transfer fibers (:func:`transfer_fibers`) fold
the generators' cached coset layout
(:attr:`~opsis.si_space.GeneratorSystem.spreading_cosets`) against the
averagers, with no round trip through the sequences a[m, n] of
:func:`cross_seq`.  A scheme serves many lattices, so its layout is
formed per call.  A window
scheme's averagers are gt_m (x) g_m, so :func:`diag_channel_samples` is
:func:`avg_samples` after a check; the toolbox's
:func:`~opsis.timefreq.berezin` samples with a one-pair scheme on all of
Z_L^2, and :func:`~opsis.timefreq.channel_matrix` forms the channel's full
input-output matrix over shifted pulses.  F(H_m) = sum_n tile(Bhat[:, n, m]) F(S_n),
and reconstruction synthesizes the fiber data chat = Bhat shat over the
generators, one :func:`~opsis.phase_space.tile_product` with no H_m formed.
Only :func:`sublattice_inflate` reads generator kernels.  The per-translate
loops and per-channel lattice convolutions are oracles in tests/oracle.py.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .hs_ops import (
    OperatorStack,
    fourier_wigner,
    inverse_fourier_wigner,
    lattice_pairing,
    op_translate,
)
from .phase_space import (
    Immutable,
    Lattice,
    _batch,
    coset_transversal,
    cosets,
    fold_cosets,
    inv_symp_fourier,
    read_only,
    stage,
    symp_fourier,
    tile_product,
)
from .si_space import (
    PINV_RCOND,  # unused here; kept so that opsis.sampling.PINV_RCOND resolves
    GeneratorSystem,
    RieszReport,
    _clears_gate,
    coefficient_array,
    fiber_left_inverse,
    fiber_singular_values,
    riesz_check,
)


class NotAFrameError(RuntimeError):
    """The transfer matrix has no positive lower frame bound, or no usable left inverse."""


def window_scheme(pairs) -> OperatorStack:
    """The averagers gt_m (x) g_m of the pairs (g_m, gt_m), held as the pairs alone."""
    return OperatorStack(windows=tuple(pairs), what="averager")


def average_scheme(ops) -> OperatorStack:
    return OperatorStack(ops, what="averager")


def diag_channel_samples(T, scheme: OperatorStack, lattice: Lattice) -> np.ndarray:
    """Samples s[..., m, j] = <translate(-lam_j, T) g_m, gt_m>, batched over T as by :func:`avg_samples`.

    Needs a window-pair scheme; averager-only schemes sample through
    :func:`avg_samples`.
    """
    if scheme.windows is None:
        raise ValueError("scheme has no window pairs; use avg_samples")
    return avg_samples(T, scheme, lattice)


def avg_samples(T, scheme: OperatorStack, lattice: Lattice) -> np.ndarray:
    """Average samples s[..., m, j] = <T[...], translate(lam_j, Q_m)>, shape (..., M, |lattice|)."""
    return lattice_pairing(fourier_wigner(T)[..., None, :, :], scheme.spreading, lattice)


def cross_seq(system: GeneratorSystem, scheme: OperatorStack) -> np.ndarray:
    """Generator sample sequences a[m, n, j], channel m against generator n.

    a[m, n, j] = <S_n, translate(lam_j, Q_m)>, the trace pairing with the
    averagers; for window schemes Q_m = gt_m (x) g_m, so this is the
    diagonal-channel definition.  The inverse symplectic series of
    :func:`transfer_fibers`.
    """
    return inv_symp_fourier(transfer_fibers(system, scheme).transpose(1, 2, 0), system.lattice)


class TransferMatrix(Immutable):
    """Fiberwise transform of the generator sample sequences.

    fibers[k] is the M x N matrix [symp_fourier(a[m, n])(xi_k)] at the k-th
    dual-transversal point, constant on annihilator cosets, read-only and a
    copy of a caller's; the lattice is not kept.  Fibers of any shape but
    (K, M, N), every size at least 1, raise ValueError.  Immutable; equal
    only to itself.
    """

    fibers: np.ndarray  # (K, M, N)

    def __init__(self, fibers):
        fibers = np.array(fibers, dtype=complex)
        if fibers.ndim != 3 or not fibers.size:
            raise ValueError(f"transfer fibers must have shape (K, M, N), each at least 1, got {fibers.shape}")
        self.__dict__.update(fibers=read_only(fibers))

    @property
    def num_channels(self) -> int:
        return self.fibers.shape[1]

    @property
    def num_generators(self) -> int:
        return self.fibers.shape[2]

    @stage
    def singular_values(self) -> np.ndarray:
        """Singular values of every fiber, descending, shape (K, min(M, N)), read-only.

        By :func:`~opsis.si_space.fiber_singular_values`: in closed form when
        min(M, N) <= 2, within a small multiple of eps times the fiber's
        largest singular value, and by np.linalg.svd above that.
        """
        return fiber_singular_values(self.fibers)

    @stage
    def bounds(self) -> FrameBounds:
        """The frame bounds of :func:`frame_bounds`."""
        return frame_bounds(self)


def transfer_matrix(A, lattice: Lattice) -> TransferMatrix:
    """Fiber matrices Ahat[k, m, n] = symp_fourier(a[m, n])(xi_k)."""
    return TransferMatrix._of(fibers=symp_fourier(A, lattice).transpose(2, 0, 1))


def transfer_fibers(system: GeneratorSystem, scheme: OperatorStack) -> np.ndarray:
    """The fibers of transfer_matrix(cross_seq(system, scheme)), shape (K, M, N).

    Read directly as the fold of F(S_n) conj(F(Q_m)), without the sequences
    a[m, n] and their round trip through two lattice transforms.  The
    generators' side is the system's cached coset layout.
    """
    lat = system.lattice
    QC = cosets(scheme.spreading, lat)
    return fold_cosets(system.spreading_cosets[None, :], QC[:, None], lat).transpose(2, 0, 1)


class FrameBounds(NamedTuple):
    """Extreme eigenvalues of Ahat(xi)^* Ahat(xi) over all fibers."""

    alpha: float
    beta: float
    diagnostic: str | None = None


def frame_bounds(tm: TransferMatrix) -> FrameBounds:
    """alpha = min over fibers of the smallest eigenvalue of Ahat^* Ahat, beta the max.

    Read off the cached singular values (closed form when min(M, N) <= 2,
    np.linalg.svd above), so both bounds are within a small multiple of eps
    times beta.  Fewer channels than generators forces a zero lower bound;
    a zero alpha is a result, not an error.  A fiber with a NaN entry makes
    beta NaN, and alpha too unless M < N; one with an inf entry makes beta
    non-finite.
    """
    sv = tm.singular_values
    beta = float((sv[:, 0] ** 2).max())
    if tm.num_channels < tm.num_generators:
        return FrameBounds(0.0, beta, "rank deficient: M < N")
    alpha = float((sv[:, -1] ** 2).min())
    return FrameBounds(alpha, beta)


def dual_left_inverse(tm: TransferMatrix, C=None, tol: float | None = None) -> np.ndarray:
    """Fiberwise left inverses Bhat[k] with Bhat[k] @ Ahat[k] = I_N, behind the frame and residual gates.

    Default is the Moore-Penrose pseudoinverse with pinv's cutoff
    PINV_RCOND, by :func:`~opsis.si_space.fiber_left_inverse` on the cached
    singular values, which owns the route: closed form or np.linalg.pinv.
    An optional C of shape (K, N, M) selects the family member
    Ahat+ + C (I_M - Ahat Ahat+).  Raises NotAFrameError when the frame
    bounds fail riesz_check's gate (alpha > tol, default 1e-10 beta, and a
    finite beta), or when the result misses I_N by more than 1e-10 in some entry.
    """
    fb = tm.bounds
    if not _clears_gate(fb.alpha, fb.beta, tol):
        raise NotAFrameError(fb.diagnostic or f"alpha_A = {fb.alpha:.3e}")
    K, M, N = tm.fibers.shape
    B = fiber_left_inverse(tm.fibers, tm.singular_values)
    if C is not None:
        B = B + _selector(C, (K, N, M)) @ (np.eye(M) - tm.fibers @ B)
    worst = _residual(B, tm.fibers)
    if not worst <= 1e-10:
        raise NotAFrameError(f"left-inverse residual {worst:.3e} exceeds 1e-10")
    return B


def _residual(B, A) -> float:
    """max |B(xi) A(xi) - I_N| over all fibers and entries, the sum over m of a broadcast product."""
    return float(np.abs((B[..., None] * A[:, None]).sum(2) - np.eye(A.shape[-1])).max())


def _selector(C, shape) -> np.ndarray:
    """C as a complex array of shape (K, N, M), the selector of a left inverse; ValueError otherwise."""
    C = np.asarray(C, dtype=complex)
    if C.shape != shape:
        raise ValueError(f"C must have shape {shape}, got {C.shape}")
    return C


class ReconstructionKit(Immutable):
    """The staged pipeline from a generator system and a scheme to the H_m.

    Each stage is computed on first use, cached and read-only (a
    :class:`~opsis.phase_space.stage`), and C is kept as a read-only copy.
    dual_fibers (the left inverse selected by C) raises NotRieszError unless
    the system passes riesz_check at riesz_tol, and NotAFrameError unless
    dual_left_inverse succeeds at the frame tolerance tol; None means the
    default of either.  left_inverse_residual is the residual that gate
    measured.  spreading holds the transforms of the H_m, read off
    the dual fibers; b[n, m] are the inverse transforms of the Bhat entries,
    and recon_ops the H_m themselves, both formed only when read.  A scheme
    of another modulus raises ValueError.  Immutable; equal only to itself.
    """

    system: GeneratorSystem
    scheme: OperatorStack
    C: np.ndarray | None
    tol: float | None
    riesz_tol: float | None

    def __init__(self, system: GeneratorSystem, scheme: OperatorStack, C=None,
                 tol: float | None = None, riesz_tol: float | None = None):
        L = system.lattice.modulus
        if scheme.spreading.shape[1:] != (L, L):
            raise ValueError(f"averager shape {scheme.spreading.shape[1:]} does not match L={L}")
        if C is not None:
            C = read_only(_selector(C, (system.lattice.size, system.num_generators, len(scheme))).copy())
        self.__dict__.update(system=system, scheme=scheme, C=C, tol=tol, riesz_tol=riesz_tol)

    @stage
    def riesz(self) -> RieszReport:
        return riesz_check(self.system, tol=self.riesz_tol)

    @stage
    def transfer(self) -> TransferMatrix:
        return TransferMatrix._of(fibers=transfer_fibers(self.system, self.scheme))

    @property
    def alpha(self) -> float:
        return self.transfer.bounds.alpha

    @property
    def beta(self) -> float:
        return self.transfer.bounds.beta

    @stage
    def dual_fibers(self) -> np.ndarray:
        """Left inverses Bhat of the transfer fibers, shape (K, N, M)."""
        self.riesz.require()
        return dual_left_inverse(self.transfer, C=self.C, tol=self.tol)

    @property
    def left_inverse_residual(self) -> float:
        """max |Bhat(xi) Ahat(xi) - I_N| over all fibers and entries: the residual gated at 1e-10, bit for bit."""
        return _residual(self.dual_fibers, self.transfer.fibers)

    @stage
    def b(self) -> np.ndarray:
        """Dual coefficient sequences, shape (N, M, |lattice|)."""
        return inv_symp_fourier(self.dual_fibers.transpose(1, 2, 0), self.system.lattice)

    @stage
    def spreading(self) -> np.ndarray:
        """Spreading transforms of the reconstruction operators H_m, shape (M, L, L).

        F(H_m) = sum_n tile(Bhat[:, n, m]) F(S_n).
        """
        return tile_product(self.dual_fibers.transpose(2, 1, 0), self.system.spreading, self.system.lattice)

    @stage
    def recon_ops(self) -> tuple[np.ndarray, ...]:
        return tuple(inverse_fourier_wigner(self.spreading))


def reconstruction_kit(system: GeneratorSystem, scheme: OperatorStack,
                       C=None, tol: float | None = None) -> ReconstructionKit:
    """Build the kit and run it through the dual fibers.

    Raises at once when the generators fail the Riesz gate at its default
    tolerance or the transfer matrix fails the frame gate at tol.
    """
    kit = ReconstructionKit(system, scheme, C, tol)
    kit.dual_fibers  # runs the gates now
    return kit


def _dual_apply(shat, kit: ReconstructionKit) -> np.ndarray:
    """Fiber data chat(xi) = Bhat(xi) shat(xi), shape (..., N, K), of sample fibers shat, shape (..., M, K)."""
    return np.einsum("knm,...mk->...nk", kit.dual_fibers, shat)


def _sample_fibers(samples, kit: ReconstructionKit) -> np.ndarray:
    """:func:`_dual_apply` of the series of samples checked to be (..., M, |lattice|)."""
    lat = kit.system.lattice
    return _dual_apply(symp_fourier(_batch(samples, (len(kit.scheme), lat.size), "sample array"), lat), kit)


def reconstruct(samples, kit: ReconstructionKit) -> np.ndarray:
    """Evaluate sum_m sum_lam samples[..., m](lam) translate(lam, H_m), shape (..., L, L).

    Exact on the generator span.  Fed samples of an operator outside the
    span it returns the kit-induced consistent estimate, with no projection
    property claimed.  Computed as the synthesis of the fiber data
    chat(xi) = Bhat(xi) shat(xi) over the generators, sum_n tile(chat_n) F(S_n).
    """
    return inverse_fourier_wigner(tile_product(_sample_fibers(samples, kit), kit.system.spreading, kit.system.lattice))


def reconstruct_from_spreading(FT, kit: ReconstructionKit) -> np.ndarray:
    """The spreading transform of the reconstruction of T from its samples, read from FT = F(T).

    The sample fibers shat = symp_fourier(avg_samples(T)) are the fold of F_T conj(F_Q_m),
    taken as they are, with no round trip through the samples: equal up to rounding.
    Then as :func:`reconstruct`, with the fiber data chat(xi) = Bhat(xi) shat(xi); shape (..., L, L).
    """
    lat = kit.system.lattice
    shat = fold_cosets(cosets(FT, lat)[..., None, :, :, :, :], cosets(kit.scheme.spreading, lat), lat)
    return tile_product(_dual_apply(shat, kit), kit.system.spreading, lat)


def coefficient_frame_expansion(samples, kit: ReconstructionKit) -> np.ndarray:
    """Coefficient recovery c[..., n] = sum_m samples[..., m] * b[n, m] (lattice convolutions).

    Computed fiberwise, chat(xi) = Bhat(xi) shat(xi), between one batched
    symplectic series and its inverse.
    """
    return inv_symp_fourier(_sample_fibers(samples, kit), kit.system.lattice)


def sublattice_inflate(system: GeneratorSystem, sub: Lattice) -> GeneratorSystem:
    """Rewrite the system over a sub-lattice with one generator per coset.

    With coset representatives lam_1..lam_I of `sub` inside the system
    lattice, the new generators are translate(lam_i, S_n), ordered n-major,
    and the span is unchanged: re-indexed coefficients (see
    :func:`inflate_coefficients`) synthesize the same operator.  The one
    reader of generator kernels, so that the translates come out exact.
    """
    reps = coset_transversal(system.lattice, sub)
    gens = tuple(op_translate(rep, S) for S in system.generators for rep in reps)
    return GeneratorSystem(sub, gens)


def inflate_coefficients(system: GeneratorSystem, sub: Lattice, coefs) -> np.ndarray:
    """Re-index (..., N, |lattice|) coefficients for an inflated system: c'[..., n, i](mu) = c[..., n](lam_i + mu)."""
    coefs = coefficient_array(system, coefs)
    lat, L = system.lattice, system.lattice.modulus
    reps = np.array(coset_transversal(lat, sub))
    index, _ = lat.locate((reps[:, :1] + sub.xs) % L, (reps[:, 1:] + sub.ws) % L)
    return coefs[..., index].reshape(coefs.shape[:-2] + (-1, sub.size))


def interpolation_deviation(kit: ReconstructionKit) -> float:
    """Max |samples of H_m in channel n - delta_{m,n} delta_{lam,0}| over all m, n, lam.

    Zero (to rounding) exactly when the number of channels equals the number
    of generators and the fibers are invertible.
    """
    lat = kit.system.lattice
    s = lattice_pairing(kit.spreading[..., None, :, :], kit.scheme.spreading, lat)
    # the origin is the first lattice point in lexicographic order
    s[..., 0] -= np.eye(len(s))
    return float(np.abs(s).max())
