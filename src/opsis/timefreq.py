"""The time-frequency toolbox: signals on Z_L, phase-space points, and the
phase-space functions and constructions of single operators.  No stage of
the sampling pipeline calls it, so it loads on first use (the package
resolves its names through a PEP 562 ``__getattr__``), never with the
engine.

* Signals: the unitary DFT, time-frequency shifts, the short-time Fourier
  transform, the Rihaczek and cross-Wigner distributions, and a
  periodized Gaussian window.
* Points: the symplectic form of two phase-space points, with point
  negation and addition.
* Operators: the two unitary symbol transforms (Kohn-Nirenberg for every
  L, Weyl for odd L), Gabor multipliers, the convolution of a phase-space
  function with an operator, the Berezin (lower) symbol, and the
  input-output matrix of a channel over shifted pulses.

A signal is a length-L complex vector.  The time-frequency shift by
z = (x, w) acts as

    (shift(z) f)(t) = exp(2 pi i w t / L) f(t - x),

a unitary operator whose adjoint is exp(-2 pi i x w / L) shift(-z).  Two
shifts compose up to a phase; the exact phase is returned by
:func:`shift_composition_phase`.  Phase-space functions (STFT tables,
distributions, symbols) are (L, L) arrays indexed [x, w].  Every phase
character exp(2 pi i m / L) reduces its integer m mod L before scaling
it (:func:`_character`), as the lattice transforms' twiddles do, so a
phase is exact to rounding at every L.

Normalizations are pinned by exact unitarity: with the L^{-1/2} prefactor
below, kn_symbol satisfies <sigma_S, sigma_T> = <S, T> identically, and the
symbol of the identity operator is the constant L^{-1/2}.

The operator constructions run on the engine.  By covariance a translate
sum, a Gabor multiplier or :func:`fn_op_convolve`, is one
:func:`~opsis.phase_space.tile_product` of the symplectic series of its
coefficients with a spreading transform; :func:`fn_op_convolve` runs it on
the full lattice Z_L^2, where that series is the plain 2-D DFT.
:func:`berezin` is :func:`~opsis.sampling.avg_samples` with a one-pair
window scheme on Z_L^2.  The rank-one atoms of both are one-pair
:class:`~opsis.hs_ops.OperatorStack` records, so neither forms an L x L
kernel.
"""

from __future__ import annotations

import numpy as np

from .hs_ops import OperatorStack, _as_kernel, fourier_wigner, inverse_fourier_wigner
from .phase_space import (Lattice, LatticeError, Point, UnsupportedModulusError, build_lattice, symp_fourier,
                          tile_product)
from .sampling import avg_samples, window_scheme


def _character(m, L: int) -> np.ndarray:
    """exp(2 pi i m / L) of integers m, m reduced mod L before it is scaled: a large angle loses bits of phase."""
    return np.exp(2j * np.pi * (np.asarray(m) % L) / L)


def _as_signal(f) -> np.ndarray:
    f = np.asarray(f, dtype=complex)
    if f.ndim != 1:
        raise ValueError("signal must be a 1-d complex vector")
    return f


def _as_signals(f, g) -> tuple[np.ndarray, np.ndarray]:
    """Two signals of one length; ValueError naming both lengths otherwise."""
    f, g = _as_signal(f), _as_signal(g)
    if len(f) != len(g):
        raise ValueError(f"signal lengths {len(f)} and {len(g)} differ")
    return f, g


def dft(f) -> np.ndarray:
    """Unitary discrete Fourier transform, fhat(w) = L^{-1/2} sum_t f(t) e^{-2 pi i w t/L}."""
    f = _as_signal(f)
    return np.fft.fft(f) / np.sqrt(len(f))


def tf_shift(z: Point, f) -> np.ndarray:
    """Apply the time-frequency shift by z = (x, w)."""
    f = _as_signal(f)
    L = len(f)
    x, w = z[0] % L, z[1] % L
    return _character(w * np.arange(L), L) * np.roll(f, x)


def tf_shift_adjoint(z: Point, f) -> np.ndarray:
    """Apply the adjoint shift, exp(-2 pi i x w / L) shift(-z); equals the inverse."""
    f = _as_signal(f)
    L = len(f)
    x, w = z[0] % L, z[1] % L
    return _character(-x * w, L) * tf_shift((-x % L, -w % L), f)


def tf_shift_matrix(z: Point, L: int) -> np.ndarray:
    """The L x L matrix of the shift by z."""
    x, w = z[0] % L, z[1] % L
    P = np.zeros((L, L), dtype=complex)
    t = np.arange(L)
    P[t, (t - x) % L] = _character(w * t, L)
    return P


def shift_composition_phase(z: Point, zp: Point, L: int) -> int:
    """Integer theta with shift(z) shift(z') = exp(2 pi i theta / L) shift(z + z').

    Composing the two shifts on f(t) picks up the factor
    exp(-2 pi i z.x * z'.w / L), so theta = -z.x * z'.w mod L.
    """
    return (-(z[0] % L) * (zp[1] % L)) % L


def stft(phi, psi) -> np.ndarray:
    """Short-time Fourier transform V[x, w] = <phi, shift((x, w)) psi>.

    `psi` is the analysis window.  Row x of the output is the DFT (without
    prefactor) of phi(t) conj(psi(t - x)): one gather and one batched FFT.
    """
    phi, psi = _as_signals(phi, psi)
    t = np.arange(len(phi))
    return np.fft.fft(phi * np.conj(psi[(t - t[:, None]) % len(phi)]), axis=1)


def rihaczek(psi, phi) -> np.ndarray:
    """Rihaczek distribution R[x, w] = psi(x) conj(dft(phi)(w)) e^{-2 pi i x w / L}.

    This is exactly the Kohn-Nirenberg symbol of the rank-one operator
    built from (psi, phi).
    """
    psi, phi = _as_signals(psi, phi)
    L = len(psi)
    xw = np.outer(np.arange(L), np.arange(L))
    return psi[:, None] * np.conj(dft(phi))[None, :] * _character(-xw, L)


def cross_wigner(psi, phi) -> np.ndarray:
    """Cross-Wigner distribution on odd L.

    W[x, w] = sum_t psi(x + t h) conj(phi(x - t h)) e^{-2 pi i w t / L} with
    h = 2^{-1} mod L.  Even moduli are rejected: the half shift t/2 has no
    canonical meaning there.
    """
    psi, phi = _as_signals(psi, phi)
    L = len(psi)
    if L % 2 == 0:
        raise UnsupportedModulusError(f"cross_wigner needs odd modulus, got L={L}")
    h = pow(2, -1, L)
    x = np.arange(L)[:, None]
    t = np.arange(L)[None, :]
    D = psi[(x + t * h) % L] * np.conj(phi[(x - t * h) % L])
    return np.fft.fft(D, axis=1)


def gaussian_window(L: int) -> np.ndarray:
    """Unit-norm periodized Gaussian, the finite stand-in for the L2-normalized Gaussian.

    g(t) is proportional to sum_{|k| <= 3} exp(-pi (tc + k L)^2 / L) with tc
    the centered representative of t in [-L/2, L/2).  The truncation tail is
    below 1e-12 for L >= 4.
    """
    t = np.arange(L)
    tc = ((t + L // 2) % L) - L // 2
    g = np.zeros(L)
    for k in range(-3, 4):
        g += np.exp(-np.pi * (tc + k * L) ** 2 / L)
    return (g / np.linalg.norm(g)).astype(complex)


def _check_point(z, L: int) -> None:
    x, w = z
    if not (0 <= x < L and 0 <= w < L):
        raise LatticeError(f"point {tuple(z)!r} is not a residue pair mod {L}")


def symplectic_form(z: Point, zp: Point, L: int) -> int:
    """Standard symplectic form sigma(z, z') = z.w*z'.x - z'.w*z.x, reduced mod L."""
    _check_point(z, L)
    _check_point(zp, L)
    return (z[1] * zp[0] - zp[1] * z[0]) % L


def point_neg(z: Point, L: int) -> Point:
    return (-z[0]) % L, (-z[1]) % L


def point_add(z: Point, zp: Point, L: int) -> Point:
    return (z[0] + zp[0]) % L, (z[1] + zp[1]) % L


def kn_symbol(S) -> np.ndarray:
    """Kohn-Nirenberg symbol sigma[t, nu] = L^{-1/2} sum_s kernel[t, s] e^{-2 pi i nu (t-s)/L}.

    A unitary map from kernels to phase-space functions; translating the
    operator by z translates the symbol cyclically by z in both axes.
    """
    S = _as_kernel(S)
    L = S.shape[0]
    A = np.fft.ifft(S, axis=1) * L
    tn = np.outer(np.arange(L), np.arange(L))
    return A * _character(-tn, L) / np.sqrt(L)


def kn_operator(sigma) -> np.ndarray:
    """Inverse of :func:`kn_symbol`: kernel[t, s] = L^{-1/2} sum_nu sigma[t, nu] e^{2 pi i nu (t-s)/L}."""
    sigma = _as_kernel(sigma)
    L = sigma.shape[0]
    tn = np.outer(np.arange(L), np.arange(L))
    B = sigma * _character(tn, L)
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


def berezin(T, g, gt) -> np.ndarray:
    """Lower-symbol table B[..., x, w] = <T[...] shift((x, w)) g, shift((x, w)) gt> on all of Z_L^2.

    Restricted to a lattice this reproduces the diagonal channel samples.
    The averager is window_scheme([(g, gt)]), which refuses unequal lengths;
    windows of another length than T's modulus L raise ValueError.
    """
    L = np.shape(T)[-1]
    scheme = window_scheme([(g, gt)])
    if scheme.windows.shape[-1] != L:
        raise ValueError(f"window length {scheme.windows.shape[-1]} does not match the modulus L={L}")
    # the full lattice Z_L^2, built from its normal form, indexes its points x-major, as the [x, w] table
    return avg_samples(T, scheme, build_lattice((1, 1), L))[..., 0, :].reshape(np.shape(T))


def channel_matrix(H, g, gt, lattice: Lattice) -> np.ndarray:
    """Input-output matrix of the channel H over shifted pulses.

    A[i, j] = <H shift(mu_j) g, shift(lam_i) gt> with rows lam_i and columns
    mu_j in the canonical lattice ordering: the received data is A @ c for
    transmitted coefficients c, and the diagonal equals the channel's
    diagonal samples for the pair (g, gt).  Windows of unequal length, or
    an H that is not L x L for their length L and the lattice's modulus,
    raise ValueError naming the sizes.
    """
    g, gt = _as_signals(g, gt)
    H = np.asarray(H, dtype=complex)
    L = len(g)
    if H.shape != (L, L) or lattice.modulus != L:
        raise ValueError(f"channel shape {H.shape}, window length {L} and modulus L={lattice.modulus} do not agree")
    U = np.stack([tf_shift(p, g) for p in lattice.points], axis=1)
    V = np.stack([tf_shift(p, gt) for p in lattice.points], axis=1)
    return V.conj().T @ (H @ U)
