import numpy as np
import pytest

from opsis.hs_ops import hs_norm, op_translate, rank_one
from opsis.phase_space import build_lattice
from opsis.si_space import (
    GeneratorSystem,
    NotRieszError,
    coefficients,
    correlation_sequences,
    gram_fibers,
    riesz_check,
    synthesize,
)
from opsis.timefreq import gaussian_window, kn_symbol, point_add, stft

from conftest import rand_kernel, rand_seq
from oracle import brute_gram, gw_fibers, gw_matrix, translate_stack


def delta_vec(L, at=0):
    v = np.zeros(L, complex)
    v[at] = 1.0
    return v


def seeded_system(seed, L, desc, N):
    rng = np.random.default_rng(seed)
    lat = build_lattice(desc, L)
    return GeneratorSystem(lat, tuple(rand_kernel(rng, L) for _ in range(N))), rng


def project_out(T, system):
    """Brute-force orthogonal residual of T against all translates (lstsq oracle)."""
    V = translate_stack(system)
    L = system.lattice.modulus
    x, *_ = np.linalg.lstsq(V.T, T.reshape(L * L), rcond=None)
    return T - (V.T @ x).reshape(L, L)


# ---------------------------------------------------------------- synthesize

def test_synthesize_delta_returns_generator():
    system, _ = seeded_system(0, 8, (2, 2), 2)
    c = np.zeros((2, system.lattice.size))
    c[0, system.lattice.index[(0, 0)]] = 1.0
    assert np.abs(synthesize(system, c) - system.generators[0]).max() < 1e-14


def test_synthesize_is_linear():
    system, rng = seeded_system(1, 8, (2, 2), 2)
    c = rand_seq(rng, (2, system.lattice.size))
    d = rand_seq(rng, (2, system.lattice.size))
    lhs = synthesize(system, c + d)
    rhs = synthesize(system, c) + synthesize(system, d)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_synthesize_single_delta_translate():
    system, _ = seeded_system(2, 8, (2, 2), 1)
    lam = (6, 4)
    c = np.zeros((1, system.lattice.size))
    c[0, system.lattice.index[lam]] = 1.0
    expected = op_translate(lam, system.generators[0])
    assert np.abs(synthesize(system, c) - expected).max() < 1e-13


# ---------------------------------------------------------------- gram fibers

def test_gram_fiber_single_point_lattice(rng):
    L = 6
    lat = build_lattice([], L)
    S = rand_kernel(rng, L)
    fibers = gram_fibers(GeneratorSystem(lat, (S,)))
    assert fibers.shape == (1, 1, 1)
    assert abs(fibers[0, 0, 0] - 1.0) < 1e-12


def test_gram_fibers_orthogonal_translates():
    # a generator with unit-modulus spreading function has exactly
    # orthogonal translates, so every fiber equals the squared norm
    from opsis.timefreq import tf_shift_matrix

    L = 8
    rng = np.random.default_rng(40)
    lat = build_lattice((4, 4), L)
    S = np.zeros((L, L), complex)
    for x in range(L):
        for w in range(L):
            S += np.exp(2j * np.pi * rng.random()) * tf_shift_matrix((x, w), L)
    S /= L ** 1.5
    system = GeneratorSystem(lat, (S,))
    r = correlation_sequences(system)[0, 0]
    expected = np.zeros(lat.size)
    expected[lat.index[(0, 0)]] = 1.0
    assert np.abs(r - expected).max() < 1e-12
    fibers = gram_fibers(system)
    assert np.abs(fibers - 1.0).max() < 1e-11


def test_gram_fibers_hermitian_psd():
    for seed, L, desc, N in [(3, 8, (2, 2), 2), (4, 6, (2, 3), 2), (5, 12, (3, 4), 1)]:
        system, _ = seeded_system(seed, L, desc, N)
        fibers = gram_fibers(system)
        for F in fibers:
            assert np.abs(F - F.conj().T).max() < 1e-10
            assert np.linalg.eigvalsh(F).min() > -1e-10


def test_fiber_spectra_match_brute_gram():
    for seed, L, desc, N in [(6, 4, (2, 2), 1), (7, 8, (2, 2), 2), (8, 6, (2, 3), 2)]:
        system, _ = seeded_system(seed, L, desc, N)
        fibers = gram_fibers(system)
        G, _, _ = brute_gram(system)
        lhs = np.sort(np.linalg.eigvalsh(fibers).ravel())
        rhs = np.sort(np.linalg.eigvalsh(G))
        assert np.abs(lhs - rhs).max() < 1e-9


# ---------------------------------------------------------------- brute gram

def test_brute_gram_orthonormal_family():
    L = 4
    lat = build_lattice([], L)
    gens = (rank_one(delta_vec(L, 0), delta_vec(L, 0)),
            rank_one(delta_vec(L, 1), delta_vec(L, 1)))
    G, lmin, lmax = brute_gram(GeneratorSystem(lat, gens))
    assert np.abs(G - np.eye(2)).max() < 1e-14
    assert abs(lmin - 1) < 1e-12 and abs(lmax - 1) < 1e-12


def test_brute_gram_repeated_generator_is_singular():
    system, _ = seeded_system(9, 8, (2, 2), 1)
    S = system.generators[0]
    doubled = GeneratorSystem(system.lattice, (S, S))
    _, lmin, _ = brute_gram(doubled)
    assert abs(lmin) < 1e-10


def test_brute_gram_refuses_oversize():
    L = 16
    lat = build_lattice((1, 1), L)  # 256 points
    gens = tuple(np.eye(L, dtype=complex) for _ in range(17))
    with pytest.raises(ValueError):
        brute_gram(GeneratorSystem(lat, gens))


# ---------------------------------------------------------------- gw route

def test_gw_matrix_full_lattice_single_term(rng):
    L = 4
    lat = build_lattice((1, 1), L)
    S = rand_kernel(rng, L)
    system = GeneratorSystem(lat, (S,))
    from opsis.hs_ops import fourier_wigner

    F = fourier_wigner(S)
    for xi in [(0, 0), (1, 2), (3, 3)]:
        val = gw_matrix(system, xi)[0, 0]
        assert abs(val - abs(F[xi]) ** 2) < 1e-12


def test_gw_matrix_periodic_on_annihilator_cosets():
    system, _ = seeded_system(10, 8, (2, 2), 2)
    from opsis.phase_space import annihilator

    ann = annihilator(system.lattice)
    xi = (1, 1)
    base = gw_matrix(system, xi)
    for a in ann.points:
        shifted = gw_matrix(system, point_add(xi, a, 8))
        assert np.abs(shifted - base).max() < 1e-10


def test_gw_proportionality_constant():
    # the correlation fibers equal (|lattice| / L) times the periodized
    # spreading outer products, uniformly over fibers and entries
    for seed, L, desc, N in [(11, 4, (2, 2), 1), (12, 6, (2, 3), 2), (13, 12, (3, 4), 2)]:
        system, _ = seeded_system(seed, L, desc, N)
        lhs = gram_fibers(system)
        rhs = gw_fibers(system) * (system.lattice.size / L)
        assert np.abs(lhs - rhs).max() < 1e-10 * max(1.0, np.abs(lhs).max())


# ---------------------------------------------------------------- riesz check

def test_riesz_check_delta_on_full_lattice_fails():
    L = 4
    lat = build_lattice((1, 1), L)
    S = rank_one(delta_vec(L), delta_vec(L))
    report = riesz_check(GeneratorSystem(lat, (S,)))
    assert not report.is_riesz
    assert report.lower < 1e-12
    _, lmin, _ = brute_gram(GeneratorSystem(lat, (S,)))
    assert abs(lmin) < 1e-12


def test_riesz_check_gaussian_full_lattice_matches_stft_zeros():
    L = 4
    lat = build_lattice((1, 1), L)
    g = gaussian_window(L)
    system = GeneratorSystem(lat, (rank_one(g, g),))
    report = riesz_check(system)
    V = stft(g, g)
    assert report.is_riesz == bool(np.abs(V).min() > 1e-10)
    _, lmin, lmax = brute_gram(system)
    assert abs(report.lower - max(lmin, 0.0)) < 1e-9
    assert abs(report.upper - lmax) < 1e-9


def test_riesz_check_duplicate_generator():
    system, _ = seeded_system(14, 8, (2, 2), 1)
    S = system.generators[0]
    report = riesz_check(GeneratorSystem(system.lattice, (S, S)))
    assert not report.is_riesz
    assert report.lower < 1e-12


def test_riesz_check_dimension_short_circuit():
    L = 4
    lat = build_lattice((1, 1), L)
    rng = np.random.default_rng(15)
    gens = tuple(rand_kernel(rng, L) for _ in range(2))  # 2 * 16 > 16
    report = riesz_check(GeneratorSystem(lat, gens))
    assert not report.is_riesz
    assert report.lower == 0.0
    assert "dimension count" in report.diagnostic


def test_riesz_routes_agree():
    system, _ = seeded_system(16, 8, (2, 2), 2)
    a = riesz_check(system, route="fibers")
    b = riesz_check(system, route="gw")
    assert a.is_riesz == b.is_riesz
    assert abs(a.lower - b.lower) < 1e-9
    assert abs(a.upper - b.upper) < 1e-9


def test_riesz_sandwich(rng):
    system, srng = seeded_system(17, 8, (2, 2), 2)
    report = riesz_check(system)
    for _ in range(5):
        c = rand_seq(srng, (2, system.lattice.size))
        c2 = (np.abs(c) ** 2).sum()
        t2 = hs_norm(synthesize(system, c)) ** 2
        assert report.lower * c2 - 1e-9 * t2 <= t2 <= report.upper * c2 + 1e-9 * t2


def test_kn_symbol_route_for_correlations():
    # <S_n, translate(lam, S_m)> equals the symbol-domain inner product
    # <sigma_n, roll(sigma_m, lam)>
    system, _ = seeded_system(18, 6, (2, 3), 2)
    r = correlation_sequences(system)
    sigs = [kn_symbol(S) for S in system.generators]
    for n in range(2):
        for m in range(2):
            for j, lam in enumerate(system.lattice.points):
                val = np.vdot(np.roll(sigs[m], lam, axis=(0, 1)), sigs[n])
                assert abs(val - r[n, m, j]) < 1e-12


# ---------------------------------------------------------------- coefficients

def test_coefficients_of_generator_is_delta():
    system, _ = seeded_system(19, 8, (2, 2), 2)
    c = coefficients(system, system.generators[0])
    expected = np.zeros((2, system.lattice.size), complex)
    expected[0, system.lattice.index[(0, 0)]] = 1.0
    assert np.abs(c - expected).max() < 1e-10


def test_coefficients_round_trip():
    system, rng = seeded_system(20, 8, (2, 2), 2)
    c = rand_seq(rng, (2, system.lattice.size))
    T = synthesize(system, c)
    assert np.abs(coefficients(system, T) - c).max() < 1e-9
    assert hs_norm(synthesize(system, coefficients(system, T)) - T) < 1e-9


def test_coefficients_of_orthogonal_operator_vanish():
    system, rng = seeded_system(21, 8, (2, 2), 1)
    T = project_out(rand_kernel(rng, 8), system)
    assert np.abs(coefficients(system, T)).max() < 1e-10


def test_coefficients_refuses_non_riesz():
    L = 4
    lat = build_lattice((1, 1), L)
    S = rank_one(delta_vec(L), delta_vec(L))
    with pytest.raises(NotRieszError):
        coefficients(GeneratorSystem(lat, (S,)), np.eye(L, dtype=complex))
