"""The spreading-domain engine and the lattice-size transforms, coset
layout, fold_cosets and tile_product against the kernel-domain,
dense-character, grid-series, coset-sum and index-gather oracles of
oracle.py, on random lattices (separable or not) from random generator
lists, odd, even and prime L, the edge shapes {0}, Z_L^2 and a diagonal
lattice, and random numbers of generators and channels."""

import tracemalloc
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opsis
import oracle
from opsis import hs_ops, phase_space, sampling, si_space
from opsis.hs_ops import (
    fourier_wigner,
    inverse_fourier_wigner,
    lattice_pairing,
    rank_one,
)
from opsis.phase_space import (
    LatticeError,
    annihilator,
    build_lattice,
    coset_transversal,
    cosets,
    dual_transversal,
    fold_cosets,
    inv_symp_fourier,
    lattice_convolve,
    symp_fourier,
    tile_product,
)
from opsis.sampling import (
    avg_samples,
    average_scheme,
    coefficient_frame_expansion,
    cross_seq,
    diag_channel_samples,
    inflate_coefficients,
    interpolation_deviation,
    reconstruct,
    reconstruction_kit,
    transfer_matrix,
    window_scheme,
)
from opsis.si_space import (
    GeneratorSystem,
    coefficients,
    correlation_sequences,
    gram_fibers,
    riesz_check,
    synthesize,
)
from opsis.timefreq import fn_op_convolve, gabor_multiplier

from conftest import rand_kernel, rand_seq, rand_signal

# derandomized, so every run of the suite checks the same examples
SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


def assert_agrees(fast, slow, tol=1e-12):
    scale = max(1.0, float(np.abs(slow).max()))
    assert fast.shape == slow.shape
    assert float(np.abs(fast - slow).max()) <= tol * scale


@st.composite
def setups(draw, max_L=12):
    """(system, window scheme, rng) on the lattice generated by 1-3 random points."""
    L = draw(st.integers(2, max_L))
    point = st.tuples(st.integers(0, L - 1), st.integers(0, L - 1))
    lat = build_lattice(draw(st.lists(point, min_size=1, max_size=3)), L)
    N = draw(st.integers(1, 3))
    M = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    system = GeneratorSystem(lat, tuple(rand_kernel(rng, L) for _ in range(N)))
    scheme = window_scheme([(rand_signal(rng, L), rand_signal(rng, L)) for _ in range(M)])
    return system, scheme, rng


@SETTINGS
@given(st.integers(2, 13), st.lists(st.integers(1, 3), max_size=2), st.integers(0, 2**32 - 1))
def test_inverse_fourier_wigner_round_trip(L, batch, seed):
    rng = np.random.default_rng(seed)
    S = rng.standard_normal((*batch, L, L)) + 1j * rng.standard_normal((*batch, L, L))
    F = fourier_wigner(S)
    assert F.shape == S.shape
    assert_agrees(inverse_fourier_wigner(F), S, 1e-14)
    for index in np.ndindex(*batch):
        assert np.array_equal(F[index], fourier_wigner(S[index]))


@SETTINGS
@given(setups())
def test_lattice_duality_matches_oracle(setup):
    lat = setup[0].lattice
    assert annihilator(lat).points == oracle.annihilator(lat)
    assert dual_transversal(lat) == oracle.dual_transversal(lat)


@st.composite
def generator_lists(draw, max_L=30):
    """(L, 1-3 generators with entries in [-2L, 2L])."""
    L = draw(st.integers(2, max_L))
    entry = st.integers(-2 * L, 2 * L)
    return L, draw(st.lists(st.tuples(entry, entry), min_size=1, max_size=3))


@SETTINGS
@given(generator_lists())
def test_build_lattice_matches_closure_walk(case):
    L, gens = case
    assert build_lattice(gens, L).points == oracle.closure(gens, L)


@SETTINGS
@given(setups(), st.lists(st.integers(1, 3), max_size=2))
def test_batched_symp_fourier_matches_oracle(setup, batch):
    system, _, rng = setup
    lat = system.lattice
    c = rand_seq(rng, (*batch, lat.size))
    F = symp_fourier(c, lat)
    assert_agrees(F, oracle.symp_fourier(c, lat))
    assert_agrees(inv_symp_fourier(F, lat), oracle.inv_symp_fourier(F, lat))
    assert_agrees(inv_symp_fourier(F, lat), c)


@SETTINGS
@given(setups())
def test_fibers_match_oracle(setup):
    system, scheme, _ = setup
    assert_agrees(gram_fibers(system), oracle.gram_fibers(system))
    A = cross_seq(system, scheme)
    assert_agrees(transfer_matrix(A, system.lattice).fibers, oracle.fibers(A, system.lattice))


@SETTINGS
@given(setups())
def test_riesz_routes_match_brute_gram(setup):
    system = setup[0]
    # N |lattice| <= 3 * 12^2, inside brute_gram's 4096 vectors
    _, lower, upper = oracle.brute_gram(system)
    lower = max(lower, 0.0)
    for report in (riesz_check(system), riesz_check(system, route="gw")):
        assert abs(report.lower - lower) <= 1e-10 * upper
        assert abs(report.upper - upper) <= 1e-10 * upper
        assert report.is_riesz == (lower > 1e-10 * upper)


@SETTINGS
@given(setups())
def test_gw_route_matches_the_per_fiber_oracle(setup):
    system = setup[0]
    lat = system.lattice
    L, N, K = lat.modulus, system.num_generators, lat.size
    want = oracle.gw_fibers(system) * (K / L)
    # the fibers riesz_check hands to eigvalsh, and the bounds it reads off
    eigvalsh = np.linalg.eigvalsh
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "eigvalsh", lambda G: seen.append(G) or eigvalsh(G))
        report = riesz_check(system, route="gw")
    [fibers] = seen
    assert_agrees(fibers, want, 1e-13)
    eigs = eigvalsh(want)
    scale = max(1.0, float(np.abs(eigs).max()))
    lower = 0.0 if N * K > L * L else max(float(eigs[:, 0].min()), 0.0)
    assert abs(report.lower - lower) <= 1e-13 * scale
    assert abs(report.upper - float(eigs[:, -1].max())) <= 1e-13 * scale


@SETTINGS
@given(setups())
def test_synthesize_matches_oracle(setup):
    system, _, rng = setup
    c = rand_seq(rng, (system.num_generators, system.lattice.size))
    assert_agrees(synthesize(system, c), oracle.synthesize(system, c))


@SETTINGS
@given(setups())
def test_samples_match_oracle(setup):
    system, scheme, rng = setup
    lat = system.lattice
    T = rand_kernel(rng, lat.modulus)
    want = oracle.diag_channel_samples(T, scheme, lat)
    assert_agrees(diag_channel_samples(T, scheme, lat), want)
    assert_agrees(avg_samples(T, scheme, lat), oracle.avg_samples(T, scheme, lat))
    averagers = average_scheme([rand_kernel(rng, lat.modulus) for _ in range(2)])
    assert_agrees(avg_samples(T, averagers, lat), oracle.avg_samples(T, averagers, lat))
    A = cross_seq(system, averagers)
    for n, S in enumerate(system.generators):
        assert_agrees(A[:, n], oracle.avg_samples(S, averagers, lat))


@SETTINGS
@given(setups())
def test_correlation_sequences_match_oracle(setup):
    system, _, _ = setup
    assert_agrees(correlation_sequences(system), oracle.correlation_sequences(system))


@SETTINGS
@given(setups())
def test_coefficients_match_oracle(setup):
    system, _, rng = setup
    lat = system.lattice
    L = lat.modulus
    # the generic random system is a Riesz sequence when N |lattice| < L^2
    system = GeneratorSystem(lat, system.generators[: max(1, (L * L - 1) // lat.size)])
    T = rand_kernel(rng, L)
    assert_agrees(coefficients(system, T), oracle.coefficients(system, T), 1e-10)


def kit_and_samples(setup):
    """A kit on a prefix of the generators, and random samples for it."""
    system, scheme, rng = setup
    lat = system.lattice
    L = lat.modulus
    # a kit needs a Riesz system (N |lattice| < L^2) and at least N channels
    N = min(system.num_generators, max(1, (L * L - 1) // lat.size), len(scheme))
    kit = reconstruction_kit(GeneratorSystem(lat, system.generators[:N]), scheme)
    return kit, rand_seq(rng, (len(scheme), lat.size))


@SETTINGS
@given(setups())
def test_reconstruct_matches_oracle(setup):
    kit, s = kit_and_samples(setup)
    assert_agrees(reconstruct(s, kit), oracle.reconstruct(s, kit))


@SETTINGS
@given(setups())
def test_coefficient_frame_expansion_matches_oracle(setup):
    kit, s = kit_and_samples(setup)
    assert_agrees(coefficient_frame_expansion(s, kit), oracle.coefficient_frame_expansion(s, kit))


@SETTINGS
@given(setups(max_L=9))
def test_multipliers_match_oracle(setup):
    system, scheme, rng = setup
    lat = system.lattice
    L = lat.modulus
    g = rand_kernel(rng, L, False)
    S = system.generators[0]
    assert_agrees(fn_op_convolve(g, S), oracle.fn_op_convolve(g, S))
    mask = rand_seq(rng, lat.size)
    psi, phi = scheme.windows[0]
    want = oracle.translate_sum(mask[None], [rank_one(phi, psi)], lat)
    assert_agrees(gabor_multiplier(mask, lat, psi, phi), want)


def test_cached_spreading_transforms_are_read_only():
    rng = np.random.default_rng(5)
    L = 8
    lat = build_lattice([(2, 2), (0, 4)], L)
    system = GeneratorSystem(lat, (rand_kernel(rng, L),))
    scheme = window_scheme([(rand_signal(rng, L), rand_signal(rng, L))])
    kit = reconstruction_kit(system, scheme)
    for F in (system.spreading, scheme.spreading, kit.spreading):
        assert not F.flags.writeable
        with pytest.raises(ValueError):
            F[0, 0, 0] = 0
    assert system.spreading is system.spreading


# ---------------------------------------------------------------- lattice-size transforms, fold and tile products

# (L, descriptor): the trivial lattice {0} (a = b = L), the full Z_L^2, a
# diagonal lattice with b = L, prime L, and L = 2
EDGE_LATTICES = [
    (6, []),
    (2, []),
    (5, (1, 1)),
    (2, (1, 1)),
    (12, [(1, 7)]),
    (7, [(1, 3)]),
    (11, [(0, 1)]),
    (13, [(2, 5)]),
    (2, [(1, 1)]),
    (2, (1, 2)),
]


@st.composite
def engine_lattices(draw, max_L=40):
    """An edge-shape lattice, or the lattice generated by 1-2 random points (mostly non-separable)."""
    if draw(st.booleans()):
        L, desc = draw(st.sampled_from(EDGE_LATTICES))
        return build_lattice(desc, L)
    L = draw(st.integers(2, max_L))
    point = st.tuples(st.integers(0, L - 1), st.integers(0, L - 1))
    return build_lattice(draw(st.lists(point, min_size=1, max_size=2)), L)


batches = st.lists(st.integers(1, 3), max_size=2)
seeds = st.integers(0, 2**32 - 1)


@st.composite
def normal_form_lattices(draw, max_L=40):
    """The lattice of a random normal form (a, b, c) on L <= max_L: separable when c = 0, else sheared."""
    L = draw(st.integers(2, max_L))
    divisors = [d for d in range(1, L + 1) if L % d == 0]
    a, b = draw(st.sampled_from(divisors)), draw(st.sampled_from(divisors))
    # c with b | (L/a) c, 0 <= c < b
    c = draw(st.sampled_from(range(0, b, b // gcd(b, L // a))))
    lat = build_lattice([(a, c), (0, b)], L)
    assert lat._hnf == (a, b, c)
    return lat


def assert_relative(fast, slow, tol=1e-14):
    assert fast.shape == slow.shape
    assert float(np.abs(fast - slow).max()) <= tol * float(np.abs(slow).max())


@SETTINGS
@given(st.one_of(engine_lattices(), normal_form_lattices()), batches, seeds)
def test_symp_fourier_matches_character_matrix(lat, batch, seed):
    # sides up to DFT_SIDE run as DFT-matrix products, longer ones as FFTs
    rng = np.random.default_rng(seed)
    c = rand_seq(rng, (*batch, lat.size))
    F = symp_fourier(c, lat)
    assert_relative(F, oracle.symp_fourier(c, lat))
    assert_relative(inv_symp_fourier(F, lat), oracle.inv_symp_fourier(F, lat))
    assert_agrees(inv_symp_fourier(F, lat), c)


# (L, descriptor) whose sides P = L/a and Q = L/b are both at most DFT_SIDE,
# both above it, or one of each, separable and sheared
ROUTE_LATTICES = {"short": [(64, (4, 4)), (48, [(4, 1), (0, 4)])],
                  "long": [(66, (2, 2)), (68, [(2, 1), (0, 2)])],
                  "mixed": [(60, (1, 20)), (60, [(1, 7), (0, 20)]), (60, (20, 1))]}


@pytest.mark.parametrize("route, L, desc", [(route, L, desc) for route, cases in ROUTE_LATTICES.items()
                                            for L, desc in cases])
def test_each_route_agrees_with_the_character_matrix(route, L, desc):
    lat = build_lattice(desc, L)
    a, b, shear = lat._hnf
    long_sides = sum(side > phase_space.DFT_SIDE for side in (L // a, L // b))
    assert long_sides == {"short": 0, "mixed": 1, "long": 2}[route] and (shear != 0) == isinstance(desc, list)
    rng = np.random.default_rng(L + shear)
    c = rand_seq(rng, (2, 3, lat.size))
    F = symp_fourier(c, lat)
    assert_relative(F, oracle.symp_fourier(c, lat))
    assert_relative(inv_symp_fourier(F, lat), oracle.inv_symp_fourier(F, lat))
    assert_relative(inv_symp_fourier(F, lat), c, 1e-13)


@pytest.mark.parametrize("L, desc", ROUTE_LATTICES["long"])
def test_long_sides_are_the_two_ffts_bit_for_bit(L, desc):
    # both series written out with np.fft on both sides and the cached twiddles
    lat = build_lattice(desc, L)
    a, b, shear = lat._hnf
    P, Q = L // a, L // b
    rng = np.random.default_rng(L)
    c = rand_seq(rng, (2, lat.size))
    D = np.fft.ifft(c.reshape(2, P, Q), axis=-1, norm="forward").swapaxes(-1, -2)
    D = D.copy() if shear == 0 else np.multiply(D, lat._twiddles[0], order="C")
    F = np.fft.fft(D, axis=-1).reshape(c.shape)
    assert symp_fourier(c, lat).tobytes() == F.tobytes()
    E = np.fft.ifft(F.reshape(2, Q, P), axis=-1).swapaxes(-1, -2)
    E = E.copy() if shear == 0 else np.multiply(E, lat._twiddles[1], order="C")
    assert inv_symp_fourier(F, lat).tobytes() == np.fft.fft(E, axis=-1, norm="forward").reshape(c.shape).tobytes()


@pytest.mark.parametrize("L, desc", [(12, (12, 1)), (12, (1, 12)), (21, (3, 7)), (35, [(5, 2), (0, 7)]),
                                     (64, (4, 4)), (60, (2, 3)), (60, (20, 1))])
def test_each_sequence_of_a_batch_gets_the_series_it_gets_alone(L, desc):
    # one product per (rows, n) table: a single product over the whole batch,
    # whose rows a BLAS may tile differently, changed the bits of these lattices
    lat = build_lattice(desc, L)
    rng = np.random.default_rng(L)
    for lead in [(7,), (4, 3), (1, 5)]:
        c = rand_seq(rng, (*lead, lat.size))
        for series in (symp_fourier, inv_symp_fourier):
            alone = np.array([series(x, lat) for x in c.reshape(-1, lat.size)])
            assert series(c, lat).tobytes() == alone.tobytes()


def test_short_dft_matrices_are_exact_at_quarter_turns():
    for n in range(1, phase_space.DFT_SIDE + 1):
        R = phase_space._dft_matrix(n, 1, False)
        assert R.shape == (2 * n, 2 * n)
        # rows 2j hold the (re, im) pairs of row j of the complex matrix, rows 2j + 1 those of i times it
        M = R[0::2].view(complex)
        assert np.array_equal(R[1::2].view(complex), 1j * M)
        j = np.arange(n)
        turns = np.multiply.outer(j, j) % n
        # e^{2 pi i m/n} exactly 1, i, -1, -i where 4 m is a multiple of n
        quarter = 4 * turns % n == 0
        assert np.array_equal(M[quarter], np.array([1, 1j, -1, -1j])[4 * turns[quarter] // n])
        assert np.abs(M - np.exp(2j * np.pi * turns / n)).max() < 2e-15
        assert np.array_equal(phase_space._dft_matrix(n, -1, False)[0::2].view(complex), M.conj())
        assert np.array_equal(phase_space._dft_matrix(n, 1, True), R * (1 / n))


@SETTINGS
@given(engine_lattices(), st.integers(1, 3), batches, seeds)
def test_span_spreading_is_the_tiled_product_bit_for_bit(lat, N, batch, seed):
    # the spreading function of a span element sum_n c_n * g_n is
    # tile_product of its fiber coefficients with the generators' spreading
    rng = np.random.default_rng(seed)
    L = lat.modulus
    system = GeneratorSystem(lat, tuple(rand_kernel(rng, L) for _ in range(N)))
    chat = rand_seq(rng, (*batch, N, lat.size))
    out = tile_product(chat, system.spreading, lat)
    assert out.shape == (*batch, L, L)
    assert np.array_equal(out, (oracle.tile(chat, lat) * system.spreading).sum(axis=-3))
    F = rand_seq(rng, (N, L, L))
    assert np.array_equal(tile_product(chat, F, lat), (oracle.tile(chat, lat) * F).sum(axis=-3))


@SETTINGS
@given(engine_lattices(), batches, seeds)
def test_tile_matches_cosets_and_grid_series(lat, batch, seed):
    rng = np.random.default_rng(seed)
    L = lat.modulus
    F = rand_seq(rng, (*batch, lat.size))
    # the tile of ones times a grid function is the function itself
    G = rand_seq(rng, (L, L))
    assert np.array_equal(tile_product(np.ones((1, lat.size)), G[None], lat), G)
    # the tile of a symplectic series is the series on the whole grid
    c = inv_symp_fourier(F[..., None, :], lat)
    assert_agrees(tile_product(symp_fourier(c, lat), np.ones((1, L, L)), lat),
                  oracle.lattice_series(c, lat)[..., 0, :, :])
    # tile is the adjoint of fold up to |lat| / L
    f = F.reshape(-1, lat.size)[0]
    lhs = np.vdot(f, fold_cosets(cosets(G, lat), cosets(np.ones((L, L)), lat), lat))
    rhs = np.vdot(oracle.tile(f, lat), G) * (lat.size / L)
    assert abs(lhs - rhs) <= 1e-12 * np.abs(f).sum() * np.abs(G).sum()


@SETTINGS
@given(engine_lattices(max_L=24), seeds)
def test_lattice_pairing_matches_grid(lat, seed):
    rng = np.random.default_rng(seed)
    L = lat.modulus
    FT = rand_seq(rng, (2, 1, L, L))
    FQ = rand_seq(rng, (3, L, L))
    assert_agrees(lattice_pairing(FT, FQ, lat), oracle.lattice_pairing(FT, FQ, lat))


@SETTINGS
@given(engine_lattices(), batches, seeds)
def test_cosets_lays_the_grid_out_coset_by_coset(lat, batch, seed):
    L = lat.modulus
    a, b, c = lat._hnf
    P, Q = L // a, L // b
    flat = cosets(np.arange(L * L).reshape(L, L), lat)
    assert flat.shape == (b, Q, a, P)
    assert np.array_equal(np.sort(flat, axis=None), np.arange(L * L))
    # fixing the transversal point xi, the (k', j') entries run over xi + ann
    ann = oracle.annihilator(lat)
    for x0, w0 in oracle.dual_transversal(lat):
        members = {((x0 + ax) % L) * L + (w0 + aw) % L for ax, aw in ann}
        assert sorted(flat[:, x0, :, w0].ravel().tolist()) == sorted(members)
    # entry [k', x0, j', w0] is (x0, w0) + k'(Q, c') + j'(0, P)
    k, x0, j, w0 = np.ix_(range(b), range(Q), range(a), range(P))
    assert np.array_equal(flat, (x0 + k * Q) * L + (w0 + k * (P * c // b) + j * P) % L)
    rng = np.random.default_rng(seed)
    G = rand_seq(rng, (*batch, L, L))
    assert np.array_equal(cosets(G, lat), G.reshape(*batch, L * L)[..., flat])
    assert_agrees(cosets(G, lat).sum(axis=(-4, -2)).reshape(*batch, lat.size) * (lat.size / L),
                  oracle.fold(G, lat))


# (leading shape of F_T, leading shape of F_Q): a channel-by-generator
# grid, one operator against a stack, a stack against one operator, pairs
# and single operators
PAIRING_SHAPES = [((2, 1), (1, 3)), ((1, 3), (2, 1)), ((), (3,)), ((3,), ()),
                  ((2,), (2,)), ((), ()), ((2, 1, 2), (3, 1))]


def check_fold_product(lat, shapes, seed):
    rng = np.random.default_rng(seed)
    L = lat.modulus
    FT = rand_seq(rng, (*shapes[0], L, L))
    FQ = rand_seq(rng, (*shapes[1], L, L))
    assert_agrees(fold_cosets(cosets(FT, lat), cosets(FQ, lat), lat), oracle.fold(FT * np.conj(FQ), lat))
    # integer layouts sum to integers, and the scale makes them floats
    ones = cosets(np.ones((L, L), dtype=int), lat)
    F = fold_cosets(ones, ones, lat)
    assert F.dtype == np.float64 and np.array_equal(F, oracle.fold(np.ones((L, L), dtype=int), lat))


@pytest.mark.parametrize("L, desc", EDGE_LATTICES)
@pytest.mark.parametrize("shapes", PAIRING_SHAPES)
def test_fold_product_on_edge_lattices(L, desc, shapes):
    check_fold_product(build_lattice(desc, L), shapes, L)


@SETTINGS
@given(engine_lattices(max_L=24), st.sampled_from(PAIRING_SHAPES), seeds)
def test_fold_product_is_the_fold_of_the_product(lat, shapes, seed):
    check_fold_product(lat, shapes, seed)


# separable lattices with a, b > 1, where the fold contracts k' and then j'; and
# with a = 1 or rows of P > FOLD_ROW, where one einsum contracts (k', j')
SEPARABLE_LATTICES = [(24, (2, 6)), (30, (5, 3)), (48, (4, 4)), (60, (6, 4)), (48, (1, 3)), (72, (2, 3))]


@pytest.mark.parametrize("L, desc", SEPARABLE_LATTICES)
@pytest.mark.parametrize("shapes", PAIRING_SHAPES)
def test_fold_product_on_separable_lattices(L, desc, shapes):
    lat = build_lattice(desc, L)
    check_fold_product(lat, shapes, L)
    # a read-only stack, and one operator broadcast to a stack with stride 0
    rng = np.random.default_rng(L + 1)
    FT = rand_seq(rng, (*shapes[0], L, L))
    FT.setflags(write=False)
    FQ = np.broadcast_to(rand_seq(rng, (L, L)), (*shapes[1], L, L))
    for X, Y in ((FT, FQ), (FQ, FT)):
        assert_agrees(fold_cosets(cosets(X, lat), cosets(Y, lat), lat), oracle.fold(X * np.conj(Y), lat))


def test_separable_fold_past_the_product_bound_is_the_coset_sum():
    # 12 pairs at L = 128 on 4Z x Z_L hold more than FOLD_PRODUCTS
    # k'-contracted products, so one einsum contracts (k', j')
    rng = np.random.default_rng(17)
    L = 128
    lat = build_lattice((4, 1), L)
    FT, FQ = rand_seq(rng, (2, 1, 2, L, L)), rand_seq(rng, (3, 1, L, L))
    assert 12 * L * L > phase_space.FOLD_PRODUCTS and L // 4 <= phase_space.FOLD_ROW
    want = cosets(FT * np.conj(FQ), lat).sum(axis=(-4, -2)).reshape(2, 3, 2, lat.size) * (lat.size / L)
    assert_agrees(fold_cosets(cosets(FT, lat), cosets(FQ, lat), lat), want)


@pytest.mark.parametrize("desc", [(4, 1), [(4, 3), (0, 2)]], ids=["4Z_x_Z_L", "sheared"])
@pytest.mark.parametrize("shapes", [((2, 1), (1, 3)), ((), (3,))])
def test_fold_product_at_L_128(desc, shapes):
    # the oracle's duality is one 2-D FFT and one coset minimum, so it reaches
    # L = 128; on 4Z x Z_L one operator against 3 takes the two-stage fold and
    # (2, 1) against (1, 3) the one einsum past FOLD_PRODUCTS, and the sheared
    # lattice takes the gathered layout
    check_fold_product(build_lattice(desc, 128), shapes, 128)


@pytest.mark.parametrize("desc", [(4, 4), (16, 16)])
def test_separable_fold_forms_no_product_of_the_operands(desc):
    # L = 256, (2, 1) against (1, 3): the fold holds at most the product
    # contracted over k', shape (2, 3, Q, a, P), the conjugated smaller
    # operand and the output; the product of the operands would be 6 L^2
    rng = np.random.default_rng(15)
    L = 256
    lat = build_lattice(desc, L)
    CT = cosets(rand_seq(rng, (2, 1, L, L)), lat)
    CQ = cosets(rand_seq(rng, (1, 3, L, L)), lat)
    a, b, _ = lat._hnf
    item = np.dtype(complex).itemsize
    budget = 1.25 * item * (6 * L * L // b + CT.size + 6 * lat.size)
    tracemalloc.start()
    try:
        F = fold_cosets(CT, CQ, lat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert F.shape == (2, 3, lat.size)
    assert peak <= budget < 6 * L * L * item


@pytest.mark.parametrize("desc", [(4, 4), [(2, 5), (0, 6)]])
@pytest.mark.parametrize("shapes", [((1,), (3,)), ((2, 1), (1, 3)), ((2,), (2,))])
def test_swapping_the_fold_operands_conjugates_the_fold_exactly(desc, shapes):
    # the fold conjugates its smaller operand (the second when both have the
    # same size), and conj(conj(x) y) = x conj(y) holds bit for bit up to the
    # sign of a zero
    rng = np.random.default_rng(3)
    L = 24
    lat = build_lattice(desc, L)
    assert (lat._hnf[2] == 0) == (desc == (4, 4))
    CT = cosets(rand_seq(rng, (*shapes[0], L, L)), lat)
    CQ = cosets(rand_seq(rng, (*shapes[1], L, L)), lat)
    assert np.array_equal(fold_cosets(CT, CQ, lat), np.conj(fold_cosets(CQ, CT, lat)))


@pytest.mark.parametrize("desc", [(4, 4), [(2, 5), (0, 6)]])
@pytest.mark.parametrize("batch", [(), (3,), (2, 3)])
def test_lattice_series_are_c_ordered_whatever_the_input_strides(desc, batch):
    # fibers transposed to a lattice-last axis, as cross_seq,
    # correlation_sequences and kit.b pass them, give bit for bit what
    # their contiguous copy gives
    rng = np.random.default_rng(4)
    lat = build_lattice(desc, 24)
    c = np.moveaxis(rand_seq(rng, (lat.size, *batch, 2)), 0, -1)[..., 0, :]
    assert c.shape == (*batch, lat.size) and not c.flags.c_contiguous
    for series in (symp_fourier, inv_symp_fourier):
        out = series(c, lat)
        assert out.flags.c_contiguous
        assert np.array_equal(out, series(np.ascontiguousarray(c), lat))


@pytest.mark.parametrize("desc", [(4, 4), [(1, 3), (0, 32)]])
def test_pairings_and_fibers_never_form_the_product(desc):
    # the N M L^2 product alone is 4.2 MB here; forming it and folding it
    # takes either call past 7 MB, the coset-wise contraction needs under 3.5 MB
    rng = np.random.default_rng(7)
    L, N, M = 128, 4, 4
    lat = build_lattice(desc, L)
    system = GeneratorSystem(lat, tuple(rand_kernel(rng, L) for _ in range(N)))
    scheme = average_scheme([rand_kernel(rng, L) for _ in range(M)])
    system.spreading, scheme.spreading
    for run in (lambda: cross_seq(system, scheme), lambda: gram_fibers(system)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6


@SETTINGS
@given(st.integers(2, 15), batches, seeds, st.booleans())
def test_spreading_transforms_match_the_index_gather(L, batch, seed, transposed):
    rng = np.random.default_rng(seed)
    S = rand_seq(rng, (*batch, L, L))
    if transposed:
        S = np.swapaxes(S, -1, -2)  # a non-contiguous input
    F = fourier_wigner(S)
    K = inverse_fourier_wigner(F)
    assert np.array_equal(F, oracle.fourier_wigner(S))
    assert np.array_equal(K, oracle.inverse_fourier_wigner(F))
    for out in (F, K):
        assert out.flags.owndata and out.flags.writeable and out.flags.c_contiguous


@pytest.mark.parametrize("desc", [(2, 2), [(2, 2), (0, 4)]])
def test_spreading_transforms_are_c_ordered(desc):
    rng = np.random.default_rng(5)
    L = 8
    system = GeneratorSystem(build_lattice(desc, L), tuple(rand_kernel(rng, L) for _ in range(2)))
    scheme = window_scheme([(rand_signal(rng, L), rand_signal(rng, L)) for _ in range(3)])
    kit = reconstruction_kit(system, scheme)
    for F in (system.spreading, scheme.spreading, kit.spreading):
        assert F.flags.c_contiguous
    for step in (1, -1):
        index = phase_space.diagonal_index(L, step)
        assert index is phase_space.diagonal_index(L, step)
        assert not index.flags.writeable


def test_diagonal_index_is_the_cyclic_diagonal_formula():
    for L in range(2, 65):
        t = np.arange(L)
        for step in (1, -1):
            index = phase_space.diagonal_index(L, step)
            assert index.flags.c_contiguous and not index.flags.writeable
            assert np.array_equal(index, ((t[:, None] + step * t) % L) * L + t)


def test_fourier_wigner_holds_no_doubled_stack():
    # the diagonals and their FFT, 2x the output; a doubled [A; A] makes it 3x
    rng = np.random.default_rng(8)
    S = rand_seq(rng, (2, 256, 256))
    fourier_wigner(S)  # caches the diagonal index
    tracemalloc.start()
    try:
        F = fourier_wigner(S)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.2 * F.nbytes


def test_lattice_transforms_run_ffts_of_lattice_size(monkeypatch):
    # no length-L FFT runs on lattice data: a side of P = L/a or Q = L/b above
    # DFT_SIDE is an FFT of that length, a shorter one a product with a DFT matrix
    rng = np.random.default_rng(11)
    lengths = []

    def recording(f):
        def wrapper(x, *args, axis=-1, **kwargs):
            lengths.append(np.shape(x)[axis])
            return f(x, *args, axis=axis, **kwargs)
        return wrapper

    fft = {name: getattr(np.fft, name) for name in ("fft", "ifft")}
    for L, desc, long_sides in [(24, [(2, 5), (0, 6)], set()), (80, [(2, 2), (0, 16)], {40}),
                                (120, [(2, 1), (0, 3)], {60, 40})]:
        lat = build_lattice(desc, L)
        a, b, shear = lat._hnf
        assert 1 < a < L and 1 < b < L and shear
        assert {side for side in (L // a, L // b) if side > phase_space.DFT_SIDE} == long_sides
        system = GeneratorSystem(lat, tuple(rand_kernel(rng, L) for _ in range(2)))
        scheme = average_scheme([rand_kernel(rng, L) for _ in range(3)])
        system.spreading, scheme.spreading  # the operator transforms are length-L FFTs
        for name, f in fft.items():
            monkeypatch.setattr(np.fft, name, recording(f))
        lengths.clear()
        c = rand_seq(rng, (2, lat.size))
        tile_product(symp_fourier(c, lat), system.spreading, lat)
        inv_symp_fourier(symp_fourier(c, lat), lat)
        lattice_pairing(system.spreading, scheme.spreading[:, None], lat)
        gram_fibers(system)
        kit = reconstruction_kit(system, scheme)
        kit.spreading
        assert set(lengths) == long_sides
        monkeypatch.undo()


@pytest.mark.parametrize("desc", [(4, 4), [(4, 3), (0, 4)]])
def test_kit_spreading_forms_no_tiled_copy(desc):
    # at L = 128, N = 2, M = 3 the tiles alone are 1.6 MB, and tiling then
    # multiplying peaks at 3.3 MB; accumulating over the generators in the
    # grid blocks needs the output and one product, 1.6 MB, plus the gathered
    # block on the sheared lattice
    rng = np.random.default_rng(7)
    L = 128
    system = GeneratorSystem(build_lattice(desc, L), tuple(rand_kernel(rng, L) for _ in range(2)))
    kit = reconstruction_kit(system, average_scheme([rand_kernel(rng, L) for _ in range(3)]))
    tracemalloc.start()
    try:
        kit.spreading
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.6e6


@SETTINGS
@given(setups())
def test_kit_spreading_is_the_transform_of_recon_ops(setup):
    kit, _ = kit_and_samples(setup)
    assert_agrees(kit.spreading, fourier_wigner(np.array(kit.recon_ops)))


def test_reconstruction_kit_forms_no_operator(monkeypatch):
    rng = np.random.default_rng(3)
    L = 12
    lat = build_lattice([(2, 1), (0, 6)], L)
    system = GeneratorSystem(lat, tuple(rand_kernel(rng, L) for _ in range(2)))
    scheme = window_scheme([(rand_signal(rng, L), rand_signal(rng, L)) for _ in range(3)])
    calls = []
    original = inverse_fourier_wigner

    def counting(F):
        calls.append(np.shape(F))
        return original(F)

    for module in (opsis, hs_ops, si_space, sampling):
        if getattr(module, "inverse_fourier_wigner", None) is original:
            monkeypatch.setattr(module, "inverse_fourier_wigner", counting)
    kit = reconstruction_kit(system, scheme)
    assert calls == []
    T = synthesize(system, rand_seq(rng, (2, lat.size)))
    calls.clear()
    assert_agrees(reconstruct(avg_samples(T, scheme, lat), kit), T)
    assert calls == [(L, L)]


# ---------------------------------------------------------------- cached coset layouts

@st.composite
def sheared_setups(draw, max_L=48):
    """(system, averager scheme, rng) on the lattice of 2 random points with c' != 0, 1-3 of each."""
    L = draw(st.integers(4, max_L))
    point = st.tuples(st.integers(0, L - 1), st.integers(0, L - 1))
    lat = draw(st.lists(point, min_size=2, max_size=2)
               .map(lambda gens: build_lattice(gens, L))
               .filter(lambda lat: lat._hnf[2] != 0))
    N = draw(st.integers(1, 3))
    M = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(seeds))
    system = GeneratorSystem(lat, tuple(rand_kernel(rng, L) for _ in range(N)))
    scheme = average_scheme([rand_kernel(rng, L) for _ in range(M)])
    return system, scheme, rng


def assert_relative(fast, slow, tol=1e-13):
    assert fast.shape == slow.shape
    assert float(np.abs(fast - slow).max()) <= tol * float(np.abs(slow).max())


@SETTINGS
@given(sheared_setups())
def test_coset_layout_routes_match_the_grid_oracles(setup):
    system, scheme, rng = setup
    lat = system.lattice
    L, N, M = lat.modulus, system.num_generators, len(scheme)
    FS = oracle.fourier_wigner(np.array(system.generators))
    FQ = oracle.fourier_wigner(scheme.kernels)
    gram = oracle.fold(FS[:, None] * FS[None, :].conj(), lat)
    assert_relative(system.riesz_fibers, gram.transpose(2, 0, 1))
    assert_relative(correlation_sequences(system), oracle.lattice_pairing(FS[:, None], FS[None, :], lat))
    assert_relative(cross_seq(system, scheme), oracle.lattice_pairing(FS[None, :], FQ[:, None], lat))
    transfer = oracle.fold(FS[None, :] * FQ[:, None].conj(), lat).transpose(2, 0, 1)
    kit = sampling.ReconstructionKit(system, scheme)
    assert_relative(sampling.transfer_fibers(system, scheme), transfer)
    assert_relative(kit.transfer.fibers, transfer)
    report = riesz_check(system)
    if not report.is_riesz:
        return
    T = rand_kernel(rng, L)
    qhat = oracle.fold(oracle.fourier_wigner(T) * FS.conj(), lat)
    chat = np.linalg.solve(gram.transpose(2, 1, 0), qhat.T[..., None])[..., 0]
    # the fiberwise solve multiplies the fibers' rounding by their condition number
    assert_relative(coefficients(system, T), oracle.lattice_inverse_series(chat.T, lat),
                    1e-13 * max(1.0, report.upper / report.lower))
    if M != N or not kit.transfer.bounds.alpha > 1e-10 * kit.transfer.bounds.beta:
        return
    FH = oracle.fourier_wigner(np.array(kit.recon_ops))
    s = oracle.lattice_pairing(FH[:, None], FQ[None, :], lat)
    s[np.arange(M), np.arange(M), 0] -= 1.0
    assert abs(interpolation_deviation(kit) - float(np.abs(s).max())) <= 1e-13


@pytest.mark.parametrize("desc, shared", [([(2, 1), (0, 4)], False), ((2, 2), True)])
def test_one_gather_of_the_generator_transforms_per_system(monkeypatch, desc, shared):
    rng = np.random.default_rng(12)
    L = 8
    system = GeneratorSystem(build_lattice(desc, L), tuple(rand_kernel(rng, L) for _ in range(2)))
    scheme = window_scheme([(rand_signal(rng, L), rand_signal(rng, L)) for _ in range(3)])
    lat = system.lattice
    F = system.spreading
    gathered = []
    taken = []
    take = np.take

    def counting(a, indices, *args, **kwargs):
        # a coset gather, and whether it reads F itself, not a copy; and the size of
        # every other index but the kernel diagonals of inverse_fourier_wigner
        if indices is lat._coset_gather:
            gathered.append(np.shares_memory(a, F))
        elif indices is not phase_space.diagonal_index(L, -1):
            taken.append(np.size(indices))
        return take(a, indices, *args, **kwargs)

    monkeypatch.setattr(phase_space.np, "take", counting)
    riesz_check(system)
    cross_seq(system, scheme)
    sampling.transfer_fibers(system, scheme)
    coefficients(system, rand_kernel(rng, L))
    # sheared: the generators once, then the averagers twice and T once
    assert gathered == ([] if shared else [True, False, False, False])
    assert np.shares_memory(system.spreading_cosets, F) == shared
    # the tiles multiply on the grid: the kit's folds read the cached layout, and
    # synthesis, kit.spreading and reconstruct make no coset take, sheared, only
    # one take of the fiber data by a (b, P) index each
    kit = reconstruction_kit(system, scheme)
    kit.dual_fibers
    assert gathered == ([] if shared else [True, False, False, False, False])
    taken.clear()
    synthesize(system, rand_seq(rng, (2, system.lattice.size)))
    kit.spreading
    reconstruct(rand_seq(rng, (3, system.lattice.size)), kit)
    a, b, _ = lat._hnf
    assert gathered == ([] if shared else [True, False, False, False, False])
    assert taken == ([] if shared else [b * L // a] * 3)


def test_gw_route_reads_no_coset_layout(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the gw route read a coset layout")

    for module in (phase_space, si_space):
        monkeypatch.setattr(module, "cosets", refuse)
    rng = np.random.default_rng(13)
    L = 12
    system = GeneratorSystem(build_lattice([(2, 1), (0, 6)], L), tuple(rand_kernel(rng, L) for _ in range(2)))
    assert riesz_check(system, route="gw").is_riesz
    assert "spreading_cosets" not in system.__dict__


def test_translate_sums_read_no_coset_layout(monkeypatch):
    # the sheared Gabor multiplier and the phase-space convolution multiply on the grid
    def refuse(*args, **kwargs):
        raise AssertionError("a translate sum read a coset layout")

    for module in (phase_space, hs_ops):
        monkeypatch.setattr(module, "cosets", refuse)
    rng = np.random.default_rng(16)
    L = 12
    lat = build_lattice([(2, 1), (0, 6)], L)
    assert lat._hnf[2] != 0
    psi, phi = rand_signal(rng, L), rand_signal(rng, L)
    mask = rand_seq(rng, lat.size)
    want = oracle.translate_sum(mask[None], [rank_one(phi, psi)], lat)
    assert_agrees(gabor_multiplier(mask, lat, psi, phi), want)
    g, S = rand_kernel(rng, L, False), rand_kernel(rng, L)
    assert_agrees(fn_op_convolve(g, S), oracle.fn_op_convolve(g, S))


# entry points handed a grid stack whose size is not the lattice's: the operator T
# and the system `other` are of modulus 14, system and scheme of 12
MISMATCHES = {
    "avg_samples operator": lambda system, other, scheme, T: avg_samples(T, scheme, system.lattice),
    "avg_samples scheme": lambda system, other, scheme, T: avg_samples(system.generators[0], average_scheme([T]),
                                                                       system.lattice),
    "coefficients": lambda system, other, scheme, T: coefficients(system, T),
    "cross_seq scheme": lambda system, other, scheme, T: cross_seq(system, average_scheme([T])),
    "cross_seq system": lambda system, other, scheme, T: cross_seq(other, scheme),
    "cosets": lambda system, other, scheme, T: cosets(np.zeros((6, 24)), system.lattice),
}


@pytest.mark.parametrize("desc", [(2, 2), [(2, 1), (0, 4)]])
@pytest.mark.parametrize("entry", MISMATCHES)
def test_a_grid_stack_of_another_size_is_a_lattice_error(entry, desc):
    rng = np.random.default_rng(14)
    system = GeneratorSystem(build_lattice(desc, 12), (rand_kernel(rng, 12),))
    scheme = average_scheme([rand_kernel(rng, 12) for _ in range(2)])
    T = rand_kernel(rng, 14)
    other = GeneratorSystem(build_lattice(desc, 14), (T,))
    with pytest.raises(LatticeError, match=r"^grid stack shape \(.+\), expected \(\.\.\., (12, 12|14, 14)\)$"):
        MISMATCHES[entry](system, other, scheme, T)


# ---------------------------------------------------------------- lattice construction

@SETTINGS
@given(setups(max_L=24))
def test_lattice_convolve_matches_the_gather(setup):
    system, _, rng = setup
    lat = system.lattice
    c, d = rand_seq(rng, (2, lat.size))
    assert_agrees(lattice_convolve(c, d, lat), oracle.lattice_convolve(c, d, lat), 1e-13)


@st.composite
def lattice_pairs(draw, max_L=36):
    """(lat, sub): a lattice from 1-3 random points, and the lattice of 1-2 of its points or of any points."""
    L = draw(st.integers(2, max_L))
    point = st.tuples(st.integers(0, L - 1), st.integers(0, L - 1))
    lat = build_lattice(draw(st.lists(point, min_size=1, max_size=3)), L)
    if draw(st.booleans()):
        member = st.integers(0, lat.size - 1).map(lambda j: lat.points[j])
        return lat, build_lattice(draw(st.lists(member, min_size=1, max_size=2)), L)
    return lat, build_lattice(draw(st.lists(point, min_size=1, max_size=2)), L)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(lattice_pairs())
def test_membership_index_and_transversal_match_the_point_sets(pair):
    lat, sub = pair
    L = lat.modulus
    points = set(lat.points)
    x, w = np.divmod(np.arange(L * L), L)
    index, inside = lat.locate(x, w)
    grid = list(zip(x.tolist(), w.tolist()))
    assert inside.tolist() == [p in points for p in grid]
    # the grid runs lexicographically, so the members come in index order
    assert index[inside].tolist() == [lat.locate(*p)[0] for p in lat.points] == list(range(lat.size))
    assert [p in lat for p in grid[::7]] == [p in points for p in grid[::7]]
    assert not any((x + L, w) in lat or (x, w - L) in lat for x, w in lat.points)
    contained = set(sub.points) <= points
    assert lat.contains_lattice(sub) == contained
    if not contained:
        with pytest.raises(LatticeError):
            coset_transversal(lat, sub)
        return
    assert coset_transversal(lat, sub) == oracle.coset_transversal(lat, sub)
    system = GeneratorSystem(lat, [np.eye(L)] * 2)
    c = np.arange(2 * lat.size).reshape(2, lat.size)
    assert np.array_equal(inflate_coefficients(system, sub, c), oracle.inflate_coefficients(system, sub, c))


@SETTINGS
@given(generator_lists())
def test_origin_is_the_first_point(case):
    L, gens = case
    lat = build_lattice(gens, L)
    assert lat.points[0] == (0, 0)
    assert list(lat.points) == sorted(lat.points)
    assert lat.locate(0, 0)[0] == 0


def test_lattices_enumerate_the_normal_form_once_on_first_read(monkeypatch):
    calls = []
    original = phase_space._hnf_points

    def counting(*form):
        calls.append(form)
        return original(*form)

    monkeypatch.setattr(phase_space, "_hnf_points", counting)
    lat = build_lattice([(2, 3), (0, 4)], 12)
    annihilator.cache_clear()
    ann = annihilator(lat)
    # building, sizing and the transforms need only the normal form
    assert (lat.size, ann.size) == (36, 4)
    inv_symp_fourier(symp_fourier(np.ones(lat.size), lat), lat)
    ones = np.ones((1, 12, 12))
    tile_product(fold_cosets(cosets(ones, lat), cosets(ones, lat), lat), ones, lat)
    # and so does a system's coset layout on the lattice
    layout = GeneratorSystem(lat, ones).spreading_cosets
    assert calls == []
    for p in (lat, ann):
        assert list(zip(p.xs.tolist(), p.ws.tolist())) == list(p.points)
        for cached in (p.xs, p.ws, *p._twiddles, p._coset_gather):
            assert not cached.flags.writeable
    assert not layout.flags.writeable
    with pytest.raises(ValueError):
        layout[0] = 0
    assert calls == [(12, 2, 2, 1), (12, 6, 6, 3)]
    with pytest.raises(AttributeError):
        lat.modulus = 24
