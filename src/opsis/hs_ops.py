"""Hilbert-Schmidt operators on Z_L as L x L kernel matrices.

An operator S acts as (S f)(t) = sum_s kernel[t, s] f(s); the trace inner
product <S, T> = tr(S T^*) coincides with the entrywise product of kernels.
Operator translation conjugates with a time-frequency shift,

    translate(z, S) = shift(z) S shift(z)^*,

an honest group action (the shift phases cancel).  The module provides the
raw spreading transform tr[shift(-z) S] with its inverse, the trace inner
product, the one dense translate :func:`op_translate`, and the lattice
pairings of the sampling engine; the symbol transforms, Gabor multipliers
and the convolution of a phase-space function with an operator are in the
toolbox :mod:`opsis.timefreq`, which loads on first use.

Trace pairings over a lattice are computed in the spreading domain, where
translation is a pointwise multiplication by a character and the lattice
enters through the grid-lattice maps of :mod:`opsis.phase_space`:
:func:`lattice_pairing` is the inverse symplectic series of a fold
(fold_cosets), run on the lattice's own size, never on an L x L grid FFT.
An :class:`OperatorStack` holds operators with no lattice, as kernels or
window pairs, and transforms them when built; every system, scheme and
rank-one atom reads those transforms alone.
"""

from __future__ import annotations

import numpy as np

from .phase_space import Immutable, Point, cosets, diagonal_index, fold_cosets, inv_symp_fourier, read_only, stage


def _as_kernel(S) -> np.ndarray:
    S = np.asarray(S, dtype=complex)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError(f"operator kernel must be square, got shape {S.shape}")
    return S


class OperatorStack(Immutable):
    """n >= 1 operators on Z_L with no lattice: their spreading transforms and the operators as given.

    Either form is copied and transformed when built, and every array kept
    is read-only: spreading, shape (n, L, L) and C-ordered, is a field, and
    every stage reads it and len() alone.  Kernels are kept as kernels, and
    windows is None.  Window pairs (g_m, gt_m) stand for the averagers
    gt_m (x) g_m; they are kept as windows, shape (n, 2, L), transformed
    with no kernel formed, and form the kernels only when read.  Given both
    or neither, a window item that is not a pair, or any operator shape but
    (L, L), L the first one's, it raises ValueError, naming the operators
    by what.  Immutable; equal only to itself.
    """

    windows: np.ndarray | None
    spreading: np.ndarray

    def __init__(self, kernels=None, windows=None, what: str = "operator"):
        if (kernels is None) == (windows is None):
            raise ValueError(f"give the {what}s as kernels or as window pairs, not both or neither")
        ops = tuple(kernels if windows is None else windows)
        for op in () if windows is None else ops:
            if len(op) != 2:
                raise ValueError(f"{what} window item of length {len(op)} is not a pair (g, gt)")
        # a pair (g, gt) stands for the kernel gt (x) g, of shape gt.shape + g.shape
        shapes = [np.shape(op) if windows is None else np.shape(op[1]) + np.shape(op[0]) for op in ops]
        if not shapes:
            raise ValueError(f"at least one {what} is required")
        L = shapes[0][0] if shapes[0] else 0
        for shape in shapes:
            if shape != (L, L):
                raise ValueError(f"{what} shape {shape} does not match L={L}")
        stack = read_only(np.array(ops, dtype=complex))
        if windows is None:
            self.__dict__.update(kernels=stack)
            F = fourier_wigner(stack)
        else:
            # row x of F(gt (x) g) is the DFT of the diagonal gt[(t + x) mod L] conj(g[t]),
            # gt read through a strided view of [gt, gt]: no kernel and no L^2 gather
            twice = np.concatenate([stack[:, 1], stack[:, 1]], axis=-1)
            rows = np.ndarray((len(ops), L, L), complex, twice, 0, twice.strides + twice.strides[-1:])
            F = np.fft.fft(rows * np.conj(stack[:, :1]), axis=-1)
        self.__dict__.update(windows=None if windows is None else stack, spreading=read_only(F))

    @stage
    def kernels(self) -> np.ndarray:
        """The (n, L, L) kernels, read-only: the stored copy, or formed from the pairs on first read."""
        return self.windows[:, 1, :, None] * np.conj(self.windows[:, :1])

    def __len__(self) -> int:
        return len(self.spreading)

    def __getitem__(self, index):
        return self.kernels[index]


def identity(L: int) -> np.ndarray:
    return np.eye(L, dtype=complex)


def hs_inner(S, T) -> complex:
    """Trace inner product <S, T> = tr(S T^*) = sum kernel_S * conj(kernel_T)."""
    S = _as_kernel(S)
    T = _as_kernel(T)
    if S.shape != T.shape:
        raise ValueError(f"size mismatch: {S.shape} vs {T.shape}")
    return complex(np.vdot(T, S))


def hs_norm(S) -> float:
    return float(np.linalg.norm(_as_kernel(S)))


def rank_one(phi, psi) -> np.ndarray:
    """Rank-one operator e -> <e, psi> phi, with kernel phi(t) conj(psi(s))."""
    return np.outer(np.asarray(phi, dtype=complex), np.conj(np.asarray(psi, dtype=complex)))


def op_translate(z: Point, S) -> np.ndarray:
    """Conjugate S with the shift by z: kernel[t, u] -> e^{2 pi i w (t-u)/L} kernel[t-x, u-x]."""
    S = _as_kernel(S)
    L = S.shape[0]
    x, w = z[0] % L, z[1] % L
    # w t is reduced mod L before it is scaled by 2 pi / L: a large angle loses bits of phase
    ph = np.exp(2j * np.pi * (w * np.arange(L) % L) / L)
    return np.roll(S, (x, x), axis=(0, 1)) * np.outer(ph, ph.conj())


def _diagonals(A, step: int) -> np.ndarray:
    """V[..., x, t] = A[..., (x + step t) % L, t], step = +-1, C-ordered: one take by diagonal_index(L, step)."""
    A = np.asarray(A, dtype=complex)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise ValueError(f"kernels must be square in the last two axes, got shape {A.shape}")
    L = A.shape[-1]
    return np.take(A.reshape(A.shape[:-2] + (L * L,)), diagonal_index(L, step), axis=-1)


def fourier_wigner(S) -> np.ndarray:
    """Raw spreading transform F[x, w] = tr[shift(-(x, w)) S], over any leading batch axes, C-ordered.

    Row x is the DFT of the x-th cyclic diagonal, D[x, t] = kernel[t + x, t],
    taken by one cached index.  The half phase that sometimes decorates this
    transform is ill-defined for even L and cancels in every product
    F_n(z) conj(F_m(z)) used here, so the raw trace is stored.  Satisfies
    F(translate(lam, S))(z) = e^{2 pi i sigma(lam, z)/L} F(S)(z) and
    sum_z |F(z)|^2 = L ||S||^2.
    """
    return np.fft.fft(_diagonals(S, 1), axis=-1)


def inverse_fourier_wigner(F) -> np.ndarray:
    """Inverse of :func:`fourier_wigner`: kernel[r, t] = D[r - t, t] with D = ifft(F) along w, C-ordered."""
    return _diagonals(np.fft.ifft(np.asarray(F, dtype=complex), axis=-1), -1)


def lattice_pairing(FT, FQ, lattice) -> np.ndarray:
    """Trace pairings <T, translate(lam, Q)> for every lam of the lattice, shape (..., |lattice|).

    Takes the spreading transforms F_T and F_Q, which broadcast against each
    other over leading axes.  By Parseval the pairing is
    (1/L) sum_z F_T(z) conj(F_Q(z)) e^{-2 pi i sigma(lam, z)/L}, which Poisson
    summation over the annihilator turns into the inverse symplectic series
    of the fold of F_T conj(F_Q), contracted coset by coset
    (:func:`~opsis.phase_space.fold_cosets`): the product is never formed.
    """
    return inv_symp_fourier(fold_cosets(cosets(FT, lattice), cosets(FQ, lattice), lattice), lattice)
