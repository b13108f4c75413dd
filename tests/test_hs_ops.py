import re

import numpy as np
import pytest

from opsis.hs_ops import (
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
from opsis.phase_space import build_lattice, symplectic_form
from opsis.timefreq import (
    UnsupportedModulusError,
    cross_wigner,
    rihaczek,
    stft,
    tf_shift,
    tf_shift_matrix,
)

from conftest import rand_kernel, rand_signal


# ---------------------------------------------------------------- inner product

def test_hs_inner_identity():
    L = 6
    assert abs(hs_inner(identity(L), identity(L)) - L) < 1e-14


def test_hs_inner_rank_one_factorization(rng):
    L = 7
    phi, psi = rand_signal(rng, L, False), rand_signal(rng, L, False)
    phi2, psi2 = rand_signal(rng, L, False), rand_signal(rng, L, False)
    lhs = hs_inner(rank_one(phi, psi), rank_one(phi2, psi2))
    rhs = np.vdot(phi2, phi) * np.vdot(psi, psi2)
    assert abs(lhs - rhs) < 1e-12


def test_hs_inner_hermitian_symmetry(rng):
    L = 5
    S, T = rand_kernel(rng, L, False), rand_kernel(rng, L, False)
    assert abs(hs_inner(S, T) - np.conj(hs_inner(T, S))) < 1e-13


def test_hs_inner_size_mismatch():
    with pytest.raises(ValueError):
        hs_inner(identity(4), identity(5))


# ---------------------------------------------------------------- rank one

def test_rank_one_action(rng):
    L = 6
    phi, psi = rand_signal(rng, L, False), rand_signal(rng, L, False)
    out = rank_one(phi, psi) @ psi
    assert np.abs(out - np.linalg.norm(psi) ** 2 * phi).max() < 1e-12


def test_rank_one_trace(rng):
    L = 6
    phi, psi = rand_signal(rng, L, False), rand_signal(rng, L, False)
    assert abs(np.trace(rank_one(phi, psi)) - np.vdot(psi, phi)) < 1e-13


def test_rank_one_norm(rng):
    L = 8
    phi, psi = rand_signal(rng, L, False), rand_signal(rng, L, False)
    assert abs(
        hs_norm(rank_one(phi, psi)) - np.linalg.norm(phi) * np.linalg.norm(psi)
    ) < 1e-12


# ---------------------------------------------------------------- translation

def test_translate_identity_operator():
    L = 6
    for z in [(0, 0), (1, 4), (5, 5)]:
        assert np.abs(op_translate(z, identity(L)) - identity(L)).max() < 1e-14


def test_translate_formula_matches_conjugation(rng):
    L = 6
    S = rand_kernel(rng, L)
    for z in [(0, 0), (1, 2), (5, 3), (4, 4)]:
        P = tf_shift_matrix(z, L)
        assert np.abs(op_translate(z, S) - P @ S @ P.conj().T).max() < 1e-13


def test_translate_rank_one_shifts_both_windows(rng):
    L = 8
    phi, psi = rand_signal(rng, L), rand_signal(rng, L)
    for z in [(3, 5), (7, 1)]:
        lhs = op_translate(z, rank_one(phi, psi))
        rhs = rank_one(tf_shift(z, phi), tf_shift(z, psi))
        assert np.abs(lhs - rhs).max() < 1e-13


def test_translate_is_group_action(rng):
    L = 6
    S = rand_kernel(rng, L)
    for z, zp in [((1, 2), (3, 4)), ((5, 1), (2, 5))]:
        lhs = op_translate(z, op_translate(zp, S))
        rhs = op_translate(((z[0] + zp[0]) % L, (z[1] + zp[1]) % L), S)
        assert np.abs(lhs - rhs).max() < 1e-12


def test_translate_preserves_hs_norm(rng):
    L = 7
    S = rand_kernel(rng, L, False)
    for z in [(2, 3), (6, 1)]:
        assert abs(hs_norm(op_translate(z, S)) - hs_norm(S)) < 1e-12


# ---------------------------------------------------------------- Kohn-Nirenberg

def test_kn_symbol_of_identity():
    L = 9
    sig = kn_symbol(identity(L))
    assert np.abs(sig - 1 / np.sqrt(L)).max() < 1e-13
    assert abs(np.vdot(sig, sig).real - L) < 1e-12


def test_kn_round_trip(rng):
    L = 8
    S = rand_kernel(rng, L, False)
    assert np.abs(kn_operator(kn_symbol(S)) - S).max() < 1e-12


def test_kn_symbol_of_shifted_rank_one_is_rihaczek(rng):
    L = 8
    g, gt = rand_signal(rng, L), rand_signal(rng, L)
    for lam in [(0, 0), (2, 4), (6, 2)]:
        u, v = tf_shift(lam, gt), tf_shift(lam, g)
        assert np.abs(kn_symbol(rank_one(u, v)) - rihaczek(u, v)).max() < 1e-12


def test_kn_unitarity(rng):
    L = 8
    S, T = rand_kernel(rng, L, False), rand_kernel(rng, L, False)
    lhs = np.vdot(kn_symbol(T), kn_symbol(S))
    rhs = hs_inner(S, T)
    assert abs(lhs - rhs) < 1e-10 * abs(rhs)


def test_kn_covariance_all_shifts(rng):
    L = 6
    S = rand_kernel(rng, L)
    sig = kn_symbol(S)
    for x in range(L):
        for w in range(L):
            lhs = kn_symbol(op_translate((x, w), S))
            rhs = np.roll(sig, (x, w), axis=(0, 1))
            assert np.abs(lhs - rhs).max() < 1e-12


# ---------------------------------------------------------------- Weyl

def test_weyl_rejects_even_modulus():
    with pytest.raises(UnsupportedModulusError):
        weyl_symbol(identity(4))
    with pytest.raises(UnsupportedModulusError):
        weyl_operator(np.zeros((4, 4)))


def test_weyl_symbol_of_identity():
    L = 7
    assert np.abs(weyl_symbol(identity(L)) - 1 / np.sqrt(L)).max() < 1e-13


def test_weyl_round_trip(rng):
    L = 5
    S = rand_kernel(rng, L, False)
    assert np.abs(weyl_operator(weyl_symbol(S)) - S).max() < 1e-12


def test_weyl_unitarity(rng):
    L = 9
    S, T = rand_kernel(rng, L, False), rand_kernel(rng, L, False)
    lhs = np.vdot(weyl_symbol(T), weyl_symbol(S))
    rhs = hs_inner(S, T)
    assert abs(lhs - rhs) < 1e-10 * abs(rhs)


def test_weyl_covariance(rng):
    L = 5
    S = rand_kernel(rng, L)
    a = weyl_symbol(S)
    for x in range(L):
        for w in range(L):
            lhs = weyl_symbol(op_translate((x, w), S))
            assert np.abs(lhs - np.roll(a, (x, w), axis=(0, 1))).max() < 1e-12


def test_weyl_weak_pairing(rng):
    # <a, W(psi, phi)> = sqrt(L) <L_a phi, psi> with the prefactor-free Wigner table
    L = 5
    a = rand_kernel(rng, L, False)
    phi, psi = rand_signal(rng, L), rand_signal(rng, L)
    La = weyl_operator(a)
    lhs = np.vdot(cross_wigner(psi, phi), a)
    rhs = np.sqrt(L) * np.vdot(psi, La @ phi)
    assert abs(lhs - rhs) < 1e-12


# ---------------------------------------------------------------- spreading transform

def test_fourier_wigner_at_origin_is_trace(rng):
    L = 8
    S = rand_kernel(rng, L, False)
    assert abs(fourier_wigner(S)[0, 0] - np.trace(S)) < 1e-12


def test_fourier_wigner_of_rank_one(rng):
    L = 8
    phi, psi = rand_signal(rng, L), rand_signal(rng, L)
    F = fourier_wigner(rank_one(phi, psi))
    xw = np.outer(np.arange(L), np.arange(L))
    expected = np.exp(2j * np.pi * xw / L) * stft(phi, psi)
    assert np.abs(F - expected).max() < 1e-12


def test_fourier_wigner_covariance_on_lattice(rng):
    L = 8
    lat = build_lattice((2, 4), L)
    S = rand_kernel(rng, L)
    F = fourier_wigner(S)
    for lam in lat.points:
        Ft = fourier_wigner(op_translate(lam, S))
        for x in range(L):
            for w in range(L):
                phase = np.exp(2j * np.pi * symplectic_form(lam, (x, w), L) / L)
                assert abs(Ft[x, w] - phase * F[x, w]) < 1e-12


def test_shift_basis_orthogonality():
    L = 5
    zs = [(x, w) for x in range(L) for w in range(L)]
    for z in zs:
        for zp in zs:
            val = hs_inner(tf_shift_matrix(z, L), tf_shift_matrix(zp, L))
            expected = L if z == zp else 0.0
            assert abs(val - expected) < 1e-12


def test_fourier_wigner_energy(rng):
    L = 7
    S = rand_kernel(rng, L, False)
    total = (np.abs(fourier_wigner(S)) ** 2).sum()
    assert abs(total - L * hs_norm(S) ** 2) < 1e-10 * total


# ---------------------------------------------------------------- Gabor multipliers

def test_gabor_multiplier_delta_masks(rng):
    L = 8
    lat = build_lattice((2, 2), L)
    phi, psi = rand_signal(rng, L), rand_signal(rng, L)
    mask = np.zeros(lat.size)
    mask[lat.index[(0, 0)]] = 1.0
    assert np.abs(gabor_multiplier(mask, lat, psi, phi) - rank_one(phi, psi)).max() < 1e-14
    lam = (4, 6)
    mask = np.zeros(lat.size)
    mask[lat.index[lam]] = 1.0
    expected = op_translate(lam, rank_one(phi, psi))
    assert np.abs(gabor_multiplier(mask, lat, psi, phi) - expected).max() < 1e-13


def test_gabor_multiplier_kernel_sum_equals_action(rng):
    L = 8
    lat = build_lattice((4, 2), L)
    phi, psi = rand_signal(rng, L), rand_signal(rng, L)
    mask = rng.standard_normal(lat.size) + 1j * rng.standard_normal(lat.size)
    G = gabor_multiplier(mask, lat, psi, phi)
    eta = rand_signal(rng, L, False)
    V = stft(eta, psi)
    expected = sum(
        mask[j] * V[p] * tf_shift(p, phi) for j, p in enumerate(lat.points)
    )
    assert np.abs(G @ eta - expected).max() < 1e-12


@pytest.mark.parametrize("length", [1, 7, 9])
def test_gabor_multiplier_refuses_windows_of_unequal_length(rng, length):
    # the rank-one atom phi (x) psi must be square; its one-pair record says so
    L = 8
    lat = build_lattice((2, 2), L)
    phi, psi = rand_signal(rng, L), rand_signal(rng, length)
    message = f"^{re.escape(f'operator shape {(L, length)} does not match L={L}')}$"
    with pytest.raises(ValueError, match=message):
        OperatorStack(windows=[(psi, phi)])
    with pytest.raises(ValueError, match=message):
        gabor_multiplier(np.ones(lat.size), lat, psi, phi)


@pytest.mark.parametrize("desc, L, length", [((2, 3), 6, 5), ((2, 3), 6, 7), ((2, 3), 6, 8),
                                             ((2, 2), 12, 14), ([(2, 1), (0, 4)], 12, 14)])
def test_gabor_multiplier_refuses_windows_that_do_not_fit_the_modulus(rng, desc, L, length):
    lat = build_lattice(desc, L)
    phi, psi = rand_signal(rng, length), rand_signal(rng, length)
    with pytest.raises(ValueError, match=f"^window length {length} does not match the modulus L={L}$"):
        gabor_multiplier(np.ones(lat.size), lat, psi, phi)


# ---------------------------------------------------------------- convolution lemma

def test_fn_op_convolve_delta_cases(rng):
    L = 6
    S = rand_kernel(rng, L)
    g = np.zeros((L, L))
    g[0, 0] = 1.0
    assert np.abs(fn_op_convolve(g, S) - S).max() < 1e-14
    g = np.zeros((L, L))
    g[3, 2] = 1.0
    assert np.abs(fn_op_convolve(g, S) - op_translate((3, 2), S)).max() < 1e-13


def test_fn_op_convolve_symbol_identity(rng):
    # the symbol of g * S is the plain cyclic convolution g * sigma_S,
    # with unit constant; checked against an fft-based convolution oracle
    for L in (4, 5, 8):
        g = rand_kernel(rng, L, False)
        S = rand_kernel(rng, L)
        lhs = kn_symbol(fn_op_convolve(g, S))
        rhs = np.fft.ifft2(np.fft.fft2(g) * np.fft.fft2(kn_symbol(S)))
        assert np.abs(lhs - rhs).max() < 1e-10
