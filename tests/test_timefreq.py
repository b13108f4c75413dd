import re

import numpy as np
import pytest

from opsis.hs_ops import op_translate
from opsis.phase_space import build_lattice
from opsis.timefreq import (
    UnsupportedModulusError,
    channel_matrix,
    cross_wigner,
    dft,
    gaussian_window,
    kn_operator,
    kn_symbol,
    rihaczek,
    shift_composition_phase,
    stft,
    tf_shift,
    tf_shift_adjoint,
    tf_shift_matrix,
    weyl_operator,
)

from conftest import rand_signal


def delta(L, at=0):
    v = np.zeros(L, complex)
    v[at] = 1.0
    return v


# ---------------------------------------------------------------- dft

def test_dft_delta_is_constant():
    L = 8
    assert np.abs(dft(delta(L)) - 1 / np.sqrt(L)).max() < 1e-14


def test_dft_constant_is_delta():
    L = 8
    out = dft(np.ones(L))
    expected = np.sqrt(L) * delta(L)
    assert np.abs(out - expected).max() < 1e-12


def test_dft_parseval(rng):
    f = rand_signal(rng, 11, unit=False)
    assert abs(np.linalg.norm(dft(f)) ** 2 - np.linalg.norm(f) ** 2) < 1e-12


# ---------------------------------------------------------------- shifts

def test_shift_at_origin_is_identity(rng):
    f = rand_signal(rng, 6)
    assert np.abs(tf_shift((0, 0), f) - f).max() == 0


def test_shift_moves_delta():
    assert np.abs(tf_shift((1, 0), delta(4)) - delta(4, 1)).max() == 0


def test_shift_is_unitary(rng):
    L = 9
    f = rand_signal(rng, L, unit=False)
    for z in [(0, 0), (3, 5), (8, 1), (4, 4)]:
        assert abs(np.linalg.norm(tf_shift(z, f)) - np.linalg.norm(f)) < 1e-12


def test_shift_composition_phase_matches_matrices():
    L = 4
    for zx in range(L):
        for zw in range(L):
            for px in range(L):
                for pw in range(L):
                    z, zp = (zx, zw), (px, pw)
                    lhs = tf_shift_matrix(z, L) @ tf_shift_matrix(zp, L)
                    theta = shift_composition_phase(z, zp, L)
                    rhs = np.exp(2j * np.pi * theta / L) * tf_shift_matrix(
                        ((zx + px) % L, (zw + pw) % L), L
                    )
                    assert np.abs(lhs - rhs).max() < 1e-12


def test_shift_commutation_example():
    # shifting then modulating versus modulating then shifting differ by a phase
    L = 4
    rng = np.random.default_rng(0)
    f = rand_signal(rng, L)
    lhs = tf_shift((1, 0), tf_shift((0, 1), f))
    rhs = np.exp(-2j * np.pi / 4) * tf_shift((0, 1), tf_shift((1, 0), f))
    assert np.abs(lhs - rhs).max() < 1e-14


def test_adjoint_at_origin(rng):
    f = rand_signal(rng, 5)
    assert np.abs(tf_shift_adjoint((0, 0), f) - f).max() == 0


def test_adjoint_explicit_phase_example():
    L = 4
    rng = np.random.default_rng(1)
    f = rand_signal(rng, L)
    lhs = tf_shift_adjoint((1, 1), f)
    rhs = -1j * tf_shift((3, 3), f)
    assert np.abs(lhs - rhs).max() < 1e-14


def test_adjoint_matches_conjugate_transpose(rng):
    L = 6
    f = rand_signal(rng, L)
    for x in range(L):
        for w in range(L):
            P = tf_shift_matrix((x, w), L)
            assert np.abs(P.conj().T @ f - tf_shift_adjoint((x, w), f)).max() < 1e-12


def test_adjoint_pairing(rng):
    L = 7
    f = rand_signal(rng, L, unit=False)
    g = rand_signal(rng, L, unit=False)
    for z in [(0, 0), (2, 5), (6, 6), (3, 1)]:
        lhs = np.vdot(g, tf_shift(z, f))
        rhs = np.vdot(tf_shift_adjoint(z, g), f)
        assert abs(lhs - rhs) < 1e-12


# ---------------------------------------------------------------- stft

def test_stft_at_origin_is_inner_product(rng):
    L = 8
    phi = rand_signal(rng, L, unit=False)
    psi = rand_signal(rng, L, unit=False)
    assert abs(stft(phi, psi)[0, 0] - np.vdot(psi, phi)) < 1e-12


def test_stft_of_deltas():
    L = 4
    V = stft(delta(L), delta(L))
    expected = np.zeros((L, L))
    expected[0, :] = 1.0
    assert np.abs(V - expected).max() < 1e-14


def test_stft_moyal_identity(rng):
    L = 10
    phi = rand_signal(rng, L, unit=False)
    psi = rand_signal(rng, L, unit=False)
    total = (np.abs(stft(phi, psi)) ** 2).sum()
    expected = L * np.linalg.norm(phi) ** 2 * np.linalg.norm(psi) ** 2
    assert abs(total - expected) < 1e-10 * expected


@pytest.mark.parametrize("L", [8, 60, 512])
def test_stft_rows_are_the_ffts_of_the_shifted_window_products(L):
    # the batched FFT of one gather gives the row-by-row loop's values
    rng = np.random.default_rng(L)
    phi, psi = rand_signal(rng, L, unit=False), rand_signal(rng, L, unit=False)
    rows = np.array([np.fft.fft(phi * np.conj(np.roll(psi, x))) for x in range(L)])
    np.testing.assert_allclose(stft(phi, psi), rows, rtol=0, atol=1e-13 * np.abs(rows).max())


@pytest.mark.parametrize("lengths", [(5, 7), (7, 1), (7, 5)])
@pytest.mark.parametrize("name", ["stft", "rihaczek", "cross_wigner", "channel_matrix"])
def test_two_signal_routines_refuse_signals_of_two_lengths(name, lengths):
    # before the check, cross_wigner read 5 samples of a 7-sample phi and rihaczek
    # broadcast a 1-sample phi; stft and channel_matrix raised numpy's errors
    f, g = (np.ones(n, dtype=complex) for n in lengths)
    L = lengths[0]
    run = {"stft": stft, "rihaczek": rihaczek, "cross_wigner": cross_wigner,
           "channel_matrix": lambda f, g: channel_matrix(np.eye(L), f, g, build_lattice((1, 1), L))}[name]
    with pytest.raises(ValueError, match=f"^signal lengths {lengths[0]} and {lengths[1]} differ$"):
        run(f, g)


@pytest.mark.parametrize("H_shape, modulus", [((5, 5), 7), ((7, 5), 7), ((7, 7), 5), ((1, 7, 7), 7)])
def test_channel_matrix_names_the_sizes_it_needs(H_shape, modulus):
    # checked before any product, so that the error names all three sizes
    g = np.ones(7, dtype=complex)
    message = f"channel shape {H_shape}, window length 7 and modulus L={modulus} do not agree"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        channel_matrix(np.ones(H_shape), g, g, build_lattice((1, 1), modulus))


# ---------------------------------------------------------------- rihaczek

def test_rihaczek_of_deltas():
    L = 4
    R = rihaczek(delta(L), delta(L))
    expected = np.zeros((L, L), complex)
    expected[0, :] = 1 / np.sqrt(L)
    assert np.abs(R - expected).max() < 1e-14


def test_rihaczek_origin_value(rng):
    L = 6
    psi = rand_signal(rng, L)
    phi = rand_signal(rng, L)
    assert abs(rihaczek(psi, phi)[0, 0] - psi[0] * np.conj(dft(phi)[0])) < 1e-14


def test_rihaczek_weak_pairing(rng):
    # <sigma, R(psi, phi)> equals <K_sigma phi, psi> for the symbol transform
    L = 8
    sigma = rand_signal(rng, L * L, unit=False).reshape(L, L)
    phi = rand_signal(rng, L)
    psi = rand_signal(rng, L)
    K = kn_operator(sigma)
    lhs = np.vdot(rihaczek(psi, phi), sigma)
    rhs = np.vdot(psi, K @ phi)
    assert abs(lhs - rhs) < 1e-12


# ---------------------------------------------------------------- cross-wigner

def test_cross_wigner_rejects_even_modulus():
    with pytest.raises(UnsupportedModulusError):
        cross_wigner(delta(4), delta(4))


def test_cross_wigner_zero_frequency_row(rng):
    L = 7
    h = pow(2, -1, L)
    psi = rand_signal(rng, L)
    phi = rand_signal(rng, L)
    W = cross_wigner(psi, phi)
    t = np.arange(L)
    for x in range(L):
        expected = (psi[(x + t * h) % L] * np.conj(phi[(x - t * h) % L])).sum()
        assert abs(W[x, 0] - expected) < 1e-12


def test_cross_wigner_delta_table():
    L = 5
    h = pow(2, -1, L)
    W = cross_wigner(delta(L), delta(L))
    expected = np.zeros((L, L), complex)
    for x in range(L):
        for w in range(L):
            for t in range(L):
                if (x + t * h) % L == 0 and (x - t * h) % L == 0:
                    expected[x, w] += np.exp(-2j * np.pi * w * t / L)
    assert np.abs(W - expected).max() < 1e-13
    assert np.abs(W[0] - 1.0).max() < 1e-13  # only t = 0 contributes at x = 0


def test_cross_wigner_weak_pairing_constant(rng):
    # <f, W(psi, phi)> = sqrt(L) <L_f phi, psi>; the sqrt(L) comes from the
    # prefactor-free table versus the unitary symbol normalization
    L = 5
    f = rand_signal(rng, L * L, unit=False).reshape(L, L)
    phi = rand_signal(rng, L)
    psi = rand_signal(rng, L)
    Lf = weyl_operator(f)
    lhs = np.vdot(cross_wigner(psi, phi), f)
    rhs = np.sqrt(L) * np.vdot(psi, Lf @ phi)
    assert abs(lhs - rhs) < 1e-12


# ---------------------------------------------------------------- gaussian window

def test_gaussian_is_normalized():
    for L in (4, 5, 8, 12, 16, 33):
        assert abs(np.linalg.norm(gaussian_window(L)) - 1) < 1e-12


def test_gaussian_even_symmetry():
    for L in (8, 12, 13):
        g = gaussian_window(L)
        for t in range(L):
            assert abs(g[t] - g[-t % L]) < 1e-12


def test_gaussian_monotone_decay():
    g = gaussian_window(12).real
    for t in range(6):
        assert g[t] > g[t + 1]


# ---------------------------------------------------------------- phase characters

PHASE_ROUTINES = ("tf_shift", "tf_shift_adjoint", "tf_shift_matrix", "rihaczek", "kn_symbol", "kn_operator",
                  "op_translate", "covariance")


def _phase_case(name, L):
    """(computed, exact) of one routine at L, the exact value a table of L-th roots of unity or an identity.

    z = (L - 3, L - 1) makes the integer m of each exp(2 pi i m / L) as large as
    it gets, up to L^2; an unreduced m loses about log2(m / L) bits of phase.
    """
    roots = np.exp(2j * np.pi * np.arange(L) / L)
    t = np.arange(L)
    x, w = z = (L - 3, L - 1)
    ones = np.ones(L, dtype=complex)
    delta = np.zeros(L, dtype=complex)
    delta[0] = 1.0
    symbol = np.conj(roots[np.multiply.outer(t, t) % L]) / np.sqrt(L)
    cases = {
        "tf_shift": lambda: (tf_shift(z, ones), roots[w * t % L]),
        "tf_shift_adjoint": lambda: (tf_shift_adjoint(z, ones), np.conj(roots[(x * w + w * t) % L])),
        "tf_shift_matrix": lambda: (tf_shift_matrix(z, L)[t, (t - x) % L], roots[w * t % L]),
        "rihaczek": lambda: (rihaczek(ones, delta), symbol),
        # the kernel whose first column is ones
        "kn_symbol": lambda: (kn_symbol(np.outer(ones, delta)), symbol),
        "kn_operator": lambda: (kn_operator(np.outer(ones, ones)), np.sqrt(L) * np.eye(L)),
        "op_translate": lambda: (op_translate(z, np.outer(ones, ones)), roots[w * np.subtract.outer(t, t) % L]),
        # translating an operator translates its symbol
        "covariance": lambda: (kn_symbol(op_translate(z, np.outer(ones, t))),
                               np.roll(kn_symbol(np.outer(ones, t)), z, axis=(0, 1))),
    }
    return cases[name]()


@pytest.mark.parametrize("L", [64, 1024, 2048])
@pytest.mark.parametrize("name", PHASE_ROUTINES)
def test_phase_characters_stay_exact_as_L_grows(name, L):
    # each routine reduces its integer mod L before forming exp(2 pi i m / L); the
    # unreduced products (w t, x w, t n) deviated by 1e-14 at L = 64 and 1e-12 at L = 2048
    got, want = _phase_case(name, L)
    err = float(np.linalg.norm(got - want) / np.linalg.norm(want))
    assert err <= 4e-15, f"relative deviation {err:.1e}"
