"""Hilbert-Schmidt operators on Z_L as L x L kernel matrices.

An operator S acts as (S f)(t) = sum_s kernel[t, s] f(s); the trace inner
product <S, T> = tr(S T^*) coincides with the entrywise product of kernels.
Operator translation conjugates with a time-frequency shift,

    translate(z, S) = shift(z) S shift(z)^*,

an honest group action (the shift phases cancel).  The module provides the
two unitary symbol transforms (Kohn-Nirenberg for every L, Weyl for odd L),
the raw spreading transform tr[shift(-z) S] with its inverse, Gabor
multipliers, and the convolution of a phase-space function with an operator.

Translate sums and trace pairings over a lattice are computed in the
spreading domain, where translation is a pointwise multiplication by a
character and the lattice enters through the two grid-lattice maps of
:mod:`opsis.phase_space`: :func:`lattice_pairing` is the inverse symplectic
series of a fold (fold_cosets), and a translate sum (a Gabor multiplier, or
:func:`fn_op_convolve`) is the tile_product of the symplectic series of its
coefficients with the spreading transform.  Every lattice Fourier step runs
on the lattice's own size, never on an L x L grid FFT;
:func:`fn_op_convolve` runs the same code on the full lattice Z_L^2, where
it is the plain 2-D DFT.  :func:`op_translate` builds one translate as a
dense kernel.  An :class:`OperatorStack` holds operators with no lattice,
as kernels or window pairs, and transforms them when built; every system,
scheme and rank-one atom reads those transforms alone.

Normalizations are pinned by exact unitarity: with the L^{-1/2} prefactor
below, kn_symbol satisfies <sigma_S, sigma_T> = <S, T> identically, and the
symbol of the identity operator is the constant L^{-1/2}.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .phase_space import (Immutable, Point, UnsupportedModulusError, build_lattice, cosets,
                          diagonal_index, fold_cosets, inv_symp_fourier, symp_fourier, tile_product)


def _as_kernel(S) -> np.ndarray:
    S = np.asarray(S, dtype=complex)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError(f"operator kernel must be square, got shape {S.shape}")
    return S


class OperatorStack(Immutable):
    """n >= 1 operators on Z_L with no lattice: their spreading transforms and the operators as given.

    Either form is transformed when built: spreading, shape (n, L, L),
    C-ordered and read-only, is a field, and every stage reads it and len()
    alone.  Kernels are kept as a read-only copy, kernels, and windows is
    None.  Window pairs (g_m, gt_m) stand for the averagers gt_m (x) g_m;
    they are kept as windows, read-only, shape (n, 2, L), transformed with
    no kernel formed, and form the kernels only when read.  Given both or
    neither, or any operator shape but (L, L), L the first one's, it raises
    ValueError, naming the operators by what.  Immutable; equal only to itself.
    """

    windows: np.ndarray | None
    spreading: np.ndarray

    def __init__(self, kernels=None, windows=None, what: str = "operator"):
        if (kernels is None) == (windows is None):
            raise ValueError(f"give the {what}s as kernels or as window pairs, not both or neither")
        ops = tuple(kernels if windows is None else windows)
        # a pair (g, gt) stands for the kernel gt (x) g, of shape gt.shape + g.shape
        shapes = [np.shape(op) if windows is None else np.shape(op[1]) + np.shape(op[0]) for op in ops]
        if not shapes:
            raise ValueError(f"at least one {what} is required")
        L = shapes[0][0] if shapes[0] else 0
        for shape in shapes:
            if shape != (L, L):
                raise ValueError(f"{what} shape {shape} does not match L={L}")
        stack = np.array(ops, dtype=complex)
        stack.setflags(write=False)
        if windows is None:
            self.__dict__.update(kernels=stack)
            F = fourier_wigner(stack)
        else:
            # row x of F(gt (x) g) is the DFT of the diagonal gt[(t + x) mod L] conj(g[t]),
            # gt read through a strided view of [gt, gt]: no kernel and no L^2 gather
            twice = np.concatenate([stack[:, 1], stack[:, 1]], axis=-1)
            rows = np.ndarray((len(ops), L, L), complex, twice, 0, twice.strides + twice.strides[-1:])
            F = np.fft.fft(rows * np.conj(stack[:, :1]), axis=-1)
        F.setflags(write=False)
        self.__dict__.update(windows=None if windows is None else stack, spreading=F)

    @cached_property
    def kernels(self) -> np.ndarray:
        """The (n, L, L) kernels, read-only: the stored copy, or formed from the pairs on first read."""
        stack = self.windows[:, 1, :, None] * np.conj(self.windows[:, :1])
        stack.setflags(write=False)
        return stack

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
    ph = np.exp(2j * np.pi * w * np.arange(L) / L)
    return np.roll(S, (x, x), axis=(0, 1)) * np.outer(ph, ph.conj())


def kn_symbol(S) -> np.ndarray:
    """Kohn-Nirenberg symbol sigma[t, nu] = L^{-1/2} sum_s kernel[t, s] e^{-2 pi i nu (t-s)/L}.

    A unitary map from kernels to phase-space functions; translating the
    operator by z translates the symbol cyclically by z in both axes.
    """
    S = _as_kernel(S)
    L = S.shape[0]
    A = np.fft.ifft(S, axis=1) * L
    tn = np.outer(np.arange(L), np.arange(L))
    return A * np.exp(-2j * np.pi * tn / L) / np.sqrt(L)


def kn_operator(sigma) -> np.ndarray:
    """Inverse of :func:`kn_symbol`: kernel[t, s] = L^{-1/2} sum_nu sigma[t, nu] e^{2 pi i nu (t-s)/L}."""
    sigma = _as_kernel(sigma)
    L = sigma.shape[0]
    tn = np.outer(np.arange(L), np.arange(L))
    B = sigma * np.exp(2j * np.pi * tn / L)
    return np.fft.fft(B, axis=1) / np.sqrt(L)


def weyl_symbol(S) -> np.ndarray:
    """Weyl symbol on odd L: a[x, w] = L^{-1/2} sum_t kernel[x + t h, x - t h] e^{-2 pi i w t/L}.

    h = 2^{-1} mod L.  Unitary, with the same translation covariance as the
    Kohn-Nirenberg symbol.
    """
    S = _as_kernel(S)
    L = S.shape[0]
    if L % 2 == 0:
        raise UnsupportedModulusError(f"weyl_symbol needs odd modulus, got L={L}")
    h = pow(2, -1, L)
    x = np.arange(L)[:, None]
    t = np.arange(L)[None, :]
    D = S[(x + t * h) % L, (x - t * h) % L]
    return np.fft.fft(D, axis=1) / np.sqrt(L)


def weyl_operator(a) -> np.ndarray:
    """Inverse of :func:`weyl_symbol` (odd L)."""
    a = _as_kernel(a)
    L = a.shape[0]
    if L % 2 == 0:
        raise UnsupportedModulusError(f"weyl_operator needs odd modulus, got L={L}")
    h = pow(2, -1, L)
    E = np.fft.ifft(a, axis=1) * L
    u = np.arange(L)[:, None]
    v = np.arange(L)[None, :]
    return E[(h * (u + v)) % L, (u - v) % L] / np.sqrt(L)


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


# The spreading-domain engine.  By covariance, the spreading transform of
# sum_lam c(lam) translate(lam, H) is tile(symp_fourier(c)) * F(H), which
# :func:`opsis.phase_space.tile_product` forms on the grid, and by Parseval
# <T, translate(lam, Q)> = (1/L) sum_z F_T(z) conj(F_Q(z)) e^{-2 pi i sigma(lam, z)/L},
# which Poisson summation over the annihilator turns into the inverse
# symplectic series of the fold of F_T conj(F_Q).  That fold is contracted
# coset by coset (:func:`opsis.phase_space.fold_cosets`), so the product
# F_T conj(F_Q) over all pairs is never formed.

def lattice_pairing(FT, FQ, lattice) -> np.ndarray:
    """Trace pairings <T, translate(lam, Q)> for every lam of the lattice, shape (..., |lattice|).

    Takes the spreading transforms F_T and F_Q, which broadcast against each
    other over leading axes.
    """
    return inv_symp_fourier(fold_cosets(cosets(FT, lattice), cosets(FQ, lattice), lattice), lattice)


def gabor_multiplier(mask, lattice, psi, phi) -> np.ndarray:
    """Operator sum_lam mask(lam) translate(lam, phi (x) psi) for a mask on a lattice.

    Acting on eta this is sum_lam mask(lam) V_psi eta(lam) shift(lam) phi:
    analyze with window psi, reweight on the lattice, resynthesize with
    atom phi.  The atom is OperatorStack(windows=[(psi, phi)]): no kernel
    is formed, windows of unequal length raise that record's ValueError, and
    windows of another length than the lattice's modulus L raise ValueError.
    """
    atom = OperatorStack(windows=[(psi, phi)]).spreading
    if atom.shape[-1] != lattice.modulus:
        raise ValueError(f"window length {atom.shape[-1]} does not match the modulus L={lattice.modulus}")
    chat = symp_fourier(mask, lattice)[..., None, :]
    return inverse_fourier_wigner(tile_product(chat, atom, lattice))


def fn_op_convolve(g, S) -> np.ndarray:
    """Convolution of a phase-space function with an operator: sum_z g[z] translate(z, S).

    On the symbol side this is plain cyclic convolution: the Kohn-Nirenberg
    symbol of the result equals g convolved with the symbol of S.
    """
    g = np.asarray(g, dtype=complex)
    S = _as_kernel(S)
    L = S.shape[0]
    if g.shape != (L, L):
        raise ValueError(f"phase-space function shape {g.shape} does not match L={L}")
    # the full lattice Z_L^2 indexes its points x-major, as the [x, w] table;
    # it is built from its normal form and never lists them
    full = build_lattice((1, 1), L)
    chat = symp_fourier(g.reshape(1, L * L), full)
    return inverse_fourier_wigner(tile_product(chat, fourier_wigner(S)[None], full))

