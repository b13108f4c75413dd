"""Signals on Z_L: unitary DFT, time-frequency shifts, short-time Fourier
transform, Rihaczek and cross-Wigner distributions, and a periodized
Gaussian window.

A signal is a length-L complex vector.  The time-frequency shift by
z = (x, w) acts as

    (shift(z) f)(t) = exp(2 pi i w t / L) f(t - x),

a unitary operator whose adjoint is exp(-2 pi i x w / L) shift(-z).  Two
shifts compose up to a phase; the exact phase is returned by
:func:`shift_composition_phase`.  Phase-space functions (STFT tables,
distributions) are (L, L) arrays indexed [x, w].
"""

from __future__ import annotations

import numpy as np

from .phase_space import Point, UnsupportedModulusError


def _as_signal(f) -> np.ndarray:
    f = np.asarray(f, dtype=complex)
    if f.ndim != 1:
        raise ValueError("signal must be a 1-d complex vector")
    return f


def dft(f) -> np.ndarray:
    """Unitary discrete Fourier transform, fhat(w) = L^{-1/2} sum_t f(t) e^{-2 pi i w t/L}."""
    f = _as_signal(f)
    return np.fft.fft(f) / np.sqrt(len(f))


def tf_shift(z: Point, f) -> np.ndarray:
    """Apply the time-frequency shift by z = (x, w)."""
    f = _as_signal(f)
    L = len(f)
    x, w = z[0] % L, z[1] % L
    phase = np.exp(2j * np.pi * w * np.arange(L) / L)
    return phase * np.roll(f, x)


def tf_shift_adjoint(z: Point, f) -> np.ndarray:
    """Apply the adjoint shift, exp(-2 pi i x w / L) shift(-z); equals the inverse."""
    f = _as_signal(f)
    L = len(f)
    x, w = z[0] % L, z[1] % L
    return np.exp(-2j * np.pi * x * w / L) * tf_shift((-x % L, -w % L), f)


def tf_shift_matrix(z: Point, L: int) -> np.ndarray:
    """The L x L matrix of the shift by z."""
    x, w = z[0] % L, z[1] % L
    P = np.zeros((L, L), dtype=complex)
    t = np.arange(L)
    P[t, (t - x) % L] = np.exp(2j * np.pi * w * t / L)
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
    prefactor) of phi(t) conj(psi(t - x)).
    """
    phi = _as_signal(phi)
    psi = _as_signal(psi)
    L = len(phi)
    V = np.empty((L, L), dtype=complex)
    for x in range(L):
        V[x] = np.fft.fft(phi * np.conj(np.roll(psi, x)))
    return V


def rihaczek(psi, phi) -> np.ndarray:
    """Rihaczek distribution R[x, w] = psi(x) conj(dft(phi)(w)) e^{-2 pi i x w / L}.

    This is exactly the Kohn-Nirenberg symbol of the rank-one operator
    built from (psi, phi).
    """
    psi = _as_signal(psi)
    phi = _as_signal(phi)
    L = len(psi)
    xw = np.outer(np.arange(L), np.arange(L))
    return psi[:, None] * np.conj(dft(phi))[None, :] * np.exp(-2j * np.pi * xw / L)


def cross_wigner(psi, phi) -> np.ndarray:
    """Cross-Wigner distribution on odd L.

    W[x, w] = sum_t psi(x + t h) conj(phi(x - t h)) e^{-2 pi i w t / L} with
    h = 2^{-1} mod L.  Even moduli are rejected: the half shift t/2 has no
    canonical meaning there.
    """
    psi = _as_signal(psi)
    phi = _as_signal(phi)
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
