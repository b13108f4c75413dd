import re
import sys
from collections import Counter

import numpy as np
import pytest

from opsis import sampling, si_space
from opsis.hs_ops import (
    fourier_wigner,
    hs_inner,
    hs_norm,
    identity,
    inverse_fourier_wigner,
    lattice_pairing,
    op_translate,
    rank_one,
)
from opsis.phase_space import (
    build_lattice,
    coset_transversal,
    dual_transversal,
    symp_fourier,
    tile_product,
)
from opsis.sampling import (
    NotAFrameError,
    ReconstructionKit,
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
    reconstruct_from_spreading,
    reconstruction_kit,
    sublattice_inflate,
    transfer_matrix,
    window_scheme,
)
from opsis.si_space import (GeneratorSystem, NotRieszError, coefficients, riesz_check, synthesize,
                            synthesize_spreading)
from opsis.timefreq import berezin, channel_matrix, gabor_multiplier, stft, symplectic_form, tf_shift

from conftest import rand_kernel, rand_seq, rand_signal
from oracle import lattice_convolve, translate_stack


def delta_vec(L, at=0):
    v = np.zeros(L, complex)
    v[at] = 1.0
    return v


def seeded_setup(seed, L=8, desc=(2, 2), N=2, M=3):
    rng = np.random.default_rng(seed)
    lat = build_lattice(desc, L)
    system = GeneratorSystem(lat, tuple(rand_kernel(rng, L) for _ in range(N)))
    scheme = window_scheme([(rand_signal(rng, L), rand_signal(rng, L)) for _ in range(M)])
    return system, scheme, rng


# ---------------------------------------------------------------- samples

def test_samples_at_origin_are_plain_pairings():
    system, scheme, _ = seeded_setup(0)
    lat = system.lattice
    s = diag_channel_samples(system.generators[0], scheme, lat)
    j0 = lat.locate(0, 0)[0]
    for m, (g, gt) in enumerate(scheme.windows):
        assert abs(s[m, j0] - np.vdot(gt, system.generators[0] @ g)) < 1e-13


def test_three_way_sample_identity():
    system, scheme, rng = seeded_setup(1)
    lat = system.lattice
    L = lat.modulus
    T = rand_kernel(rng, L)
    s = diag_channel_samples(T, scheme, lat)
    for m, (g, gt) in enumerate(scheme.windows):
        for j, lam in enumerate(lat.points):
            via_shifts = np.vdot(tf_shift(lam, gt), T @ tf_shift(lam, g))
            via_trace = hs_inner(T, op_translate(lam, rank_one(gt, g)))
            assert abs(s[m, j] - via_shifts) < 1e-12
            assert abs(s[m, j] - via_trace) < 1e-12


def test_samples_of_translated_generator_are_shifted():
    system, scheme, _ = seeded_setup(2, N=1, M=1)
    lat = system.lattice
    mu = (4, 2)
    a = diag_channel_samples(system.generators[0], scheme, lat)[0]
    s = diag_channel_samples(op_translate(mu, system.generators[0]), scheme, lat)[0]
    dmu = np.zeros(lat.size)
    dmu[lat.locate(*mu)[0]] = 1.0
    assert np.abs(s - lattice_convolve(dmu, a, lat)).max() < 1e-12


def test_diag_samples_require_windows():
    system, scheme, _ = seeded_setup(3)
    avg = average_scheme(scheme)
    with pytest.raises(ValueError):
        diag_channel_samples(system.generators[0], avg, system.lattice)


def test_avg_samples_reproduce_diagonal_channel_samples():
    system, scheme, rng = seeded_setup(4)
    T = rand_kernel(rng, 8)
    lat = system.lattice
    s_win = diag_channel_samples(T, scheme, lat)
    s_avg = avg_samples(T, scheme, lat)  # windows auto-converted
    assert np.abs(s_win - s_avg).max() < 1e-12


@pytest.mark.parametrize("desc", [(2, 2), [(2, 1), (0, 4)]], ids=["separable", "sheared"])
@pytest.mark.parametrize("kind", ["windows", "averagers"])
@pytest.mark.parametrize("B", [1, 2, 3])
def test_avg_samples_of_a_stack_sample_each_operator(desc, kind, B):
    system, scheme, rng = seeded_setup(12, desc=desc)
    lat = system.lattice
    if kind == "averagers":
        scheme = average_scheme(scheme)
    M = len(scheme)
    T = np.array([rand_kernel(rng, 8) for _ in range(B)])
    stacked = avg_samples(T, scheme, lat)
    assert stacked.shape == (B, M, lat.size)
    assert all(stacked[i].tobytes() == avg_samples(T[i], scheme, lat).tobytes() for i in range(B))
    if kind == "windows":
        assert diag_channel_samples(T, scheme, lat).tobytes() == stacked.tobytes()
    # reconstruction takes the stack's samples as they are, one result per operator
    kit = reconstruction_kit(system, scheme)
    R = reconstruct(stacked, kit)
    assert R.shape == (B, 8, 8)
    assert all(R[i].tobytes() == reconstruct(stacked[i], kit).tobytes() for i in range(B))


# a lattice on L = 8 and a sub-lattice of it
BATCH_LATTICES = pytest.mark.parametrize("desc, sub", [
    ((2, 2), [(4, 0), (0, 2)]), ([(2, 1), (0, 4)], [(4, 2), (0, 4)])], ids=["separable", "sheared"])


@pytest.mark.parametrize("entry", ["reconstruct", "coefficient_frame_expansion", "reconstruct_from_spreading",
                                   "coefficients", "synthesize", "synthesize_spreading", "inflate_coefficients",
                                   "berezin"])
@BATCH_LATTICES
@pytest.mark.parametrize("kind", ["windows", "averagers"])
@pytest.mark.parametrize("B", [1, 2, 3])
def test_every_entry_point_maps_a_batch_operator_by_operator(entry, desc, sub, kind, B):
    # N = 2 generators and M = 3 channels, so that B = N and B = M both occur
    system, scheme, rng = seeded_setup(37, desc=desc)
    lat, sub, K = system.lattice, build_lattice(sub, 8), system.lattice.size
    if kind == "averagers":
        scheme = average_scheme(scheme)
    kit = reconstruction_kit(system, scheme)
    g, gt = rand_signal(rng, 8), rand_signal(rng, 8)
    T = np.array([rand_kernel(rng, 8) for _ in range(B)])
    samples, c, FT = avg_samples(T, scheme, lat), rand_seq(rng, (B, 2, K)), fourier_wigner(T)
    # each entry's batch argument, and that argument cut to a wrong trailing shape with the error it raises
    wrong_samples = (samples[:, :2], f"sample array shape {(B, 2, K)}, expected (..., 3, {K})")
    wrong_coefs = (c[:, :1], f"coefficient array shape {(B, 1, K)}, expected (..., 2, {K})")
    wrong_T = (T[:, :7], f"kernels must be square in the last two axes, got shape {(B, 7, 8)}")
    run, batch, (wrong, message) = {
        "reconstruct": (lambda x: reconstruct(x, kit), samples, wrong_samples),
        "coefficient_frame_expansion": (lambda x: coefficient_frame_expansion(x, kit), samples, wrong_samples),
        "reconstruct_from_spreading": (lambda x: reconstruct_from_spreading(x, kit), FT,
                                       (FT[:, :7], f"grid stack shape {(B, 7, 8)}, expected (..., 8, 8)")),
        "coefficients": (lambda x: coefficients(system, x), T, wrong_T),
        "synthesize": (lambda x: synthesize(system, x), c, wrong_coefs),
        "synthesize_spreading": (lambda x: synthesize_spreading(system, x), c, wrong_coefs),
        "inflate_coefficients": (lambda x: inflate_coefficients(system, sub, x), c, wrong_coefs),
        "berezin": (lambda x: berezin(x, g, gt), T, wrong_T),
    }[entry]
    out = run(batch)
    singles = [run(x) for x in batch]
    assert out.shape == (B,) + singles[0].shape
    assert all(out[i].tobytes() == singles[i].tobytes() for i in range(B))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run(wrong)


@BATCH_LATTICES
@pytest.mark.parametrize("B", [1, 2, 3])
def test_coefficients_recover_a_batch_from_its_synthesis(desc, sub, B):
    system, _, rng = seeded_setup(38, desc=desc)
    c = rand_seq(rng, (B, 2, system.lattice.size))
    recovered = coefficients(system, synthesize(system, c))
    assert recovered.shape == c.shape
    assert np.abs(recovered - c).max() < 1e-12 * np.abs(c).max()


def test_avg_samples_single_point_norm():
    L = 6
    rng = np.random.default_rng(5)
    Q = rand_kernel(rng, L, unit=False)
    lat = build_lattice([], L)
    s = avg_samples(Q, average_scheme([Q]), lat)
    assert abs(s[0, 0] - hs_norm(Q) ** 2) < 1e-12


def test_avg_samples_linear_in_operator():
    system, scheme, rng = seeded_setup(6)
    lat = system.lattice
    avg = average_scheme(scheme)
    A = rand_kernel(rng, 8)
    B = rand_kernel(rng, 8)
    lhs = avg_samples(A + 2j * B, avg, lat)
    rhs = avg_samples(A, avg, lat) + 2j * avg_samples(B, avg, lat)
    assert np.abs(lhs - rhs).max() < 1e-12


# ---------------------------------------------------------------- berezin / channel matrix

def test_berezin_matches_direct_evaluation():
    L = 5
    rng = np.random.default_rng(7)
    T = rand_kernel(rng, L)
    g, gt = rand_signal(rng, L), rand_signal(rng, L)
    B = berezin(T, g, gt)
    for x in range(L):
        for w in range(L):
            direct = np.vdot(tf_shift((x, w), gt), T @ tf_shift((x, w), g))
            assert abs(B[x, w] - direct) < 1e-12


def test_berezin_restriction_is_sampling():
    system, scheme, rng = seeded_setup(8, M=1)
    lat = system.lattice
    T = rand_kernel(rng, 8)
    g, gt = scheme.windows[0]
    B = berezin(T, g, gt)
    s = diag_channel_samples(T, scheme, lat)[0]
    for j, p in enumerate(lat.points):
        assert abs(B[p] - s[j]) < 1e-12


def test_berezin_of_identity_is_constant():
    L = 6
    rng = np.random.default_rng(9)
    g, gt = rand_signal(rng, L), rand_signal(rng, L)
    B = berezin(identity(L), g, gt)
    assert np.abs(B - np.vdot(gt, g)).max() < 1e-12


def test_berezin_rank_one_origin_value():
    L = 6
    rng = np.random.default_rng(10)
    g, gt = rand_signal(rng, L, False), rand_signal(rng, L, False)
    B = berezin(rank_one(gt, g), g, gt)
    expected = np.vdot(g, g) * np.vdot(gt, gt)
    assert abs(B[0, 0] - expected) < 1e-12


@pytest.mark.parametrize("length", [1, 5, 7])
def test_berezin_refuses_windows_of_unequal_length(length):
    L = 6
    rng = np.random.default_rng(length)
    g, gt = rand_signal(rng, L), rand_signal(rng, length)
    # the averager gt (x) g must be square; its one-pair record says so
    message = f"^{re.escape(f'averager shape {(length, L)} does not match L={length}')}$"
    with pytest.raises(ValueError, match=message):
        window_scheme([(g, gt)])
    with pytest.raises(ValueError, match=message):
        berezin(rand_kernel(rng, L), g, gt)


@pytest.mark.parametrize("length", [5, 7, 8])
def test_berezin_refuses_windows_that_do_not_fit_the_modulus(length):
    rng = np.random.default_rng(length)
    g, gt = rand_signal(rng, length), rand_signal(rng, length)
    with pytest.raises(ValueError, match=f"^window length {length} does not match the modulus L=6$"):
        berezin(rand_kernel(rng, 6), g, gt)


@pytest.mark.parametrize("L, desc", [(5, (1, 5)), (8, (2, 2)), (12, [(2, 1), (0, 6)]), (60, (6, 4))],
                         ids=["5", "8", "12-sheared", "60"])
def test_rank_one_atoms_are_one_pair_records(monkeypatch, L, desc):
    rng = np.random.default_rng(L)
    T, g, gt = rand_kernel(rng, L), rand_signal(rng, L), rand_signal(rng, L)
    lat = build_lattice(desc, L)
    mask = rand_seq(rng, lat.size)
    # the dense route: transform the rank-one kernel
    full = build_lattice((1, 1), L)
    want_berezin = lattice_pairing(fourier_wigner(T), fourier_wigner(rank_one(gt, g)), full).reshape(L, L)
    chat = symp_fourier(mask, lat)[..., None, :]
    want_multiplier = inverse_fourier_wigner(tile_product(chat, fourier_wigner(rank_one(gt, g))[None], lat))

    def refuse(*args):
        raise AssertionError("a rank-one kernel was formed")
    calls = Counter()

    def counting(*args):
        calls["fourier_wigner"] += 1
        return fourier_wigner(*args)
    for module in [m for name, m in sys.modules.items() if name == "opsis" or name.startswith("opsis.")]:
        if getattr(module, "rank_one", None) is rank_one:
            monkeypatch.setattr(module, "rank_one", refuse)
        if getattr(module, "fourier_wigner", None) is fourier_wigner:
            monkeypatch.setattr(module, "fourier_wigner", counting)
    assert gabor_multiplier(mask, lat, g, gt).tobytes() == want_multiplier.tobytes()
    assert calls["fourier_wigner"] == 0
    assert berezin(T, g, gt).tobytes() == want_berezin.tobytes()
    assert calls["fourier_wigner"] == 1  # the transform of T


def test_channel_matrix_identity_is_gram_of_shifts():
    L = 8
    rng = np.random.default_rng(11)
    lat = build_lattice((2, 2), L)
    g, gt = rand_signal(rng, L), rand_signal(rng, L)
    A = channel_matrix(identity(L), g, gt, lat)
    for i, lam in enumerate(lat.points):
        for j, mu in enumerate(lat.points):
            assert abs(A[i, j] - np.vdot(tf_shift(lam, gt), tf_shift(mu, g))) < 1e-12


def test_channel_matrix_diagonal_is_samples():
    system, scheme, rng = seeded_setup(12, M=1)
    lat = system.lattice
    H = synthesize(system, rand_seq(rng, (2, lat.size)))
    g, gt = scheme.windows[0]
    A = channel_matrix(H, g, gt, lat)
    s = diag_channel_samples(H, scheme, lat)[0]
    assert np.abs(np.diagonal(A) - s).max() < 1e-12


def test_channel_matrix_ofdm_data_map():
    # received data = channel matrix times transmitted coefficients
    L = 8
    rng = np.random.default_rng(13)
    lat = build_lattice((4, 2), L)
    g, gt = rand_signal(rng, L), rand_signal(rng, L)
    H = rand_kernel(rng, L)
    c = rand_seq(rng, lat.size)
    x = sum(cj * tf_shift(mu, g) for cj, mu in zip(c, lat.points))
    y = H @ x
    d = np.array([np.vdot(tf_shift(lam, gt), y) for lam in lat.points])
    assert np.abs(channel_matrix(H, g, gt, lat) @ c - d).max() < 1e-11


# ---------------------------------------------------------------- cross_seq / transfer

def test_cross_seq_rank_one_stft_formula():
    L = 8
    rng = np.random.default_rng(14)
    lat = build_lattice((2, 2), L)
    phis = [rand_signal(rng, L) for _ in range(2)]
    phits = [rand_signal(rng, L) for _ in range(2)]
    system = GeneratorSystem(lat, tuple(rank_one(p, pt) for p, pt in zip(phis, phits)))
    gs = [rand_signal(rng, L) for _ in range(2)]
    gts = [rand_signal(rng, L) for _ in range(2)]
    scheme = window_scheme(list(zip(gs, gts)))
    A = cross_seq(system, scheme)
    for m in range(2):
        for n in range(2):
            V1 = stft(phits[n], gs[m])
            V2 = stft(phis[n], gts[m])
            for j, lam in enumerate(lat.points):
                assert abs(A[m, n, j] - np.conj(V1[lam]) * V2[lam]) < 1e-12


def test_samples_are_convolutions():
    system, scheme, rng = seeded_setup(15)
    lat = system.lattice
    c = rand_seq(rng, (2, lat.size))
    T = synthesize(system, c)
    s = diag_channel_samples(T, scheme, lat)
    A = cross_seq(system, scheme)
    for m in range(len(scheme)):
        expected = sum(lattice_convolve(c[n], A[m, n], lat) for n in range(2))
        assert np.abs(s[m] - expected).max() < 1e-11


def test_cross_seq_vanishes_for_orthogonal_generator():
    L = 8
    rng = np.random.default_rng(16)
    lat = build_lattice((2, 2), L)
    g, gt = rand_signal(rng, L), rand_signal(rng, L)
    Q = rank_one(gt, g)
    averager_system = GeneratorSystem(lat, (Q,))
    V = translate_stack(averager_system)
    T0 = rand_kernel(rng, L)
    x, *_ = np.linalg.lstsq(V.T, T0.reshape(L * L), rcond=None)
    S_perp = T0 - (V.T @ x).reshape(L, L)
    system = GeneratorSystem(lat, (S_perp,))
    A = cross_seq(system, window_scheme([(g, gt)]))
    assert np.abs(A).max() < 1e-10


def test_transfer_matrix_delta_sequence():
    L = 8
    lat = build_lattice((2, 2), L)
    A = np.zeros((1, 1, lat.size), complex)
    A[0, 0, lat.locate(0, 0)[0]] = 1.0
    tm = transfer_matrix(A, lat)
    assert np.abs(tm.fibers - 1.0).max() < 1e-13


def test_transfer_matrix_delta_windows_negative_case():
    # delta generator and delta windows on the full lattice: the transfer
    # function is L on the xi_x = 0 fibers and 0 elsewhere
    L = 4
    lat = build_lattice((1, 1), L)
    d = delta_vec(L)
    system = GeneratorSystem(lat, (rank_one(d, d),))
    scheme = window_scheme([(d, d)])
    A = cross_seq(system, scheme)
    expected_seq = np.array([1.0 if p[0] == 0 else 0.0 for p in lat.points])
    assert np.abs(A[0, 0] - expected_seq).max() < 1e-13
    tm = transfer_matrix(A, lat)
    for k, xi in enumerate(dual_transversal(lat)):
        expected = 4.0 if xi[0] == 0 else 0.0
        assert abs(tm.fibers[k, 0, 0] - expected) < 1e-12
    fb = frame_bounds(tm)
    assert fb.alpha < 1e-20
    assert abs(fb.beta - 16.0) < 1e-10


def test_transfer_matrix_coset_invariance():
    system, scheme, _ = seeded_setup(17)
    lat = system.lattice
    A = cross_seq(system, scheme)
    tm = transfer_matrix(A, lat)
    from opsis.phase_space import annihilator

    # recompute a fiber at a shifted representative by hand
    ann = annihilator(lat)
    L = lat.modulus
    trans = dual_transversal(lat)
    for k in (0, 3):
        xi = trans[k]
        for a in ann.points[:2]:
            shifted = ((xi[0] + a[0]) % L, (xi[1] + a[1]) % L)
            fiber = np.zeros_like(tm.fibers[k])
            for j, lam in enumerate(lat.points):
                fiber += A[:, :, j] * np.exp(
                    2j * np.pi * symplectic_form(lam, shifted, L) / L
                )
            assert np.abs(fiber - tm.fibers[k]).max() < 1e-11


@pytest.mark.parametrize("desc", [(2, 2), [(2, 1), (0, 4)], [(1, 3), (0, 4)]])
@pytest.mark.parametrize("N, M", [(1, 1), (2, 3), (3, 2)])
def test_transfer_fibers_are_the_transform_of_the_generator_samples(desc, N, M):
    system, scheme, _ = seeded_setup(25, desc=desc, N=N, M=M)
    via_samples = transfer_matrix(cross_seq(system, scheme), system.lattice).fibers
    direct = sampling.transfer_fibers(system, scheme)
    assert direct.shape == (system.lattice.size, M, N)
    assert np.abs(direct - via_samples).max() <= 1e-14 * np.abs(via_samples).max()
    kit = sampling.ReconstructionKit(system, scheme)
    np.testing.assert_array_equal(kit.transfer.fibers, direct)


# ---------------------------------------------------------------- frame bounds / duals

def test_frame_bounds_delta_transfer():
    L = 8
    lat = build_lattice((2, 2), L)
    A = np.zeros((1, 1, lat.size), complex)
    A[0, 0, lat.locate(0, 0)[0]] = 1.0
    fb = frame_bounds(transfer_matrix(A, lat))
    assert abs(fb.alpha - 1.0) < 1e-12 and abs(fb.beta - 1.0) < 1e-12


def test_frame_bounds_underdetermined_reports_zero():
    system, _, rng = seeded_setup(18, N=2, M=1)
    scheme = window_scheme([(rand_signal(rng, 8), rand_signal(rng, 8))])
    tm = transfer_matrix(cross_seq(system, scheme), system.lattice)
    fb = frame_bounds(tm)
    assert fb.alpha == 0.0
    assert fb.diagnostic == "rank deficient: M < N"


def test_dual_left_inverse_square_case_is_inverse():
    system, scheme, _ = seeded_setup(19, N=2, M=2)
    tm = transfer_matrix(cross_seq(system, scheme), system.lattice)
    B = dual_left_inverse(tm)
    for k in range(tm.fibers.shape[0]):
        assert np.abs(B[k] - np.linalg.inv(tm.fibers[k])).max() < 1e-9


def test_dual_left_inverse_family_members_are_left_inverses():
    system, scheme, rng = seeded_setup(20, N=2, M=3)
    tm = transfer_matrix(cross_seq(system, scheme), system.lattice)
    K = tm.fibers.shape[0]
    C = rand_seq(rng, (K, 2, 3))
    B = dual_left_inverse(tm, C=C)
    for k in range(K):
        assert np.abs(B[k] @ tm.fibers[k] - np.eye(2)).max() < 1e-10


def test_dual_left_inverse_scalar_case_is_reciprocal():
    system, scheme, _ = seeded_setup(21, N=1, M=1)
    tm = transfer_matrix(cross_seq(system, scheme), system.lattice)
    B = dual_left_inverse(tm)
    assert np.abs(B[:, 0, 0] - 1.0 / tm.fibers[:, 0, 0]).max() < 1e-10


def test_dual_left_inverse_raises_without_frame():
    L = 4
    lat = build_lattice((1, 1), L)
    d = delta_vec(L)
    system = GeneratorSystem(lat, (rank_one(d, d),))
    tm = transfer_matrix(cross_seq(system, window_scheme([(d, d)])), lat)
    with pytest.raises(NotAFrameError):
        dual_left_inverse(tm)


def test_dual_left_inverse_rejects_non_finite_family_member():
    # a NaN residual compares False against any bound, so it must fail the gate
    system, scheme, _ = seeded_setup(22, L=16, desc=(4, 4), N=2, M=3)
    tm = transfer_matrix(cross_seq(system, scheme), system.lattice)
    C = np.full((tm.fibers.shape[0], 2, 3), np.nan)
    with pytest.raises(NotAFrameError, match="left-inverse residual nan"):
        dual_left_inverse(tm, C=C)


# ---------------------------------------------------------------- reconstruction kits

def test_kit_biorthogonal_averagers_reproduce_generators():
    # single-point lattice with orthonormal rank-one generators used as
    # their own averagers: the cross sequences are Kronecker deltas and the
    # reconstruction operators are the generators themselves
    L = 4
    lat = build_lattice([], L)
    gens = (rank_one(delta_vec(L, 0), delta_vec(L, 0)),
            rank_one(delta_vec(L, 1), delta_vec(L, 1)))
    system = GeneratorSystem(lat, gens)
    scheme = average_scheme(gens)
    A = cross_seq(system, scheme)
    assert np.abs(A - np.eye(2)[:, :, None]).max() < 1e-13
    kit = reconstruction_kit(system, scheme)
    for H, S in zip(kit.recon_ops, gens):
        assert np.abs(H - S).max() < 1e-12


def test_kit_interpolation_property_square_case():
    system, scheme, _ = seeded_setup(22, N=2, M=2)
    kit = reconstruction_kit(system, scheme)
    assert interpolation_deviation(kit) < 1e-10


def test_kit_scalar_case_matches_explicit_reciprocal():
    system, scheme, _ = seeded_setup(23, N=1, M=1)
    lat = system.lattice
    kit = reconstruction_kit(system, scheme)
    tm = kit.transfer
    from opsis.phase_space import inv_symp_fourier

    b_explicit = inv_symp_fourier(1.0 / tm.fibers[:, 0, 0], lat)
    assert np.abs(kit.b[0, 0] - b_explicit).max() < 1e-10
    H_explicit = synthesize(system, b_explicit[None, :])
    assert np.abs(kit.recon_ops[0] - H_explicit).max() < 1e-10


def test_kit_gates_on_riesz():
    L = 4
    lat = build_lattice((1, 1), L)
    d = delta_vec(L)
    system = GeneratorSystem(lat, (rank_one(d, d),))
    with pytest.raises(NotRieszError):
        reconstruction_kit(system, window_scheme([(d, d)]))


@pytest.mark.parametrize("shape", [(2, 16), (3, 15), (3, 16, 1), (48,)])
def test_reconstruction_and_coefficient_expansion_check_the_sample_shape(shape):
    system, scheme, _ = seeded_setup(24, N=2, M=3)
    kit = reconstruction_kit(system, scheme)
    message = f"sample array shape {shape}, expected (..., 3, 16)"
    for recover in (reconstruct, coefficient_frame_expansion):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            recover(np.ones(shape), kit)


@pytest.mark.parametrize("perturbed", [False, True])
def test_kit_keeps_the_residual_its_left_inverse_gate_measured(monkeypatch, perturbed):
    system, scheme, rng = seeded_setup(23, N=2, M=3)
    C = rand_seq(rng, (system.lattice.size, 2, 3)) if perturbed else None
    duals, residuals = [], []
    dual_left_inverse, residual_of = sampling.dual_left_inverse, sampling._residual

    def recording(record, original):
        def wrapper(*args, **kwargs):
            record.append(original(*args, **kwargs))
            return record[-1]
        return wrapper
    monkeypatch.setattr(sampling, "dual_left_inverse", recording(duals, dual_left_inverse))
    monkeypatch.setattr(sampling, "_residual", recording(residuals, residual_of))
    kit = reconstruction_kit(system, scheme, C=C)
    B, A = kit.dual_fibers, kit.transfer.fibers
    # the gate ran once and measured one residual; the kit reads it again off the same bits
    [gate_B], [gate_residual] = duals, residuals
    assert gate_B is B and kit.left_inverse_residual == gate_residual
    # the gate sums the broadcast product over m; a batched matmul rounds differently
    residual = float(np.abs((B[..., None] * A[:, None]).sum(2) - np.eye(2)).max())
    assert kit.left_inverse_residual == residual <= 1e-10
    matmul = float(np.abs(B @ A - np.eye(2)).max())  # N = 2
    assert abs(residual - matmul) <= 4 * 2 * np.finfo(float).eps * np.abs(B).max() * np.abs(A).max()


# the default tolerance of an upper bound of 2 is 1e-10 * 2.0; every triple is (lower, upper, tol)
DEFAULT_TOL = 1e-10 * 2.0
GATE_VERDICTS = [
    ((DEFAULT_TOL, 2.0, None), False),
    ((np.nextafter(DEFAULT_TOL, 0), 2.0, None), False),
    ((np.nextafter(DEFAULT_TOL, 1), 2.0, None), True),
    ((0.5, 2.0, 0.5), False),
    ((np.nextafter(0.5, 0), 2.0, 0.5), False),
    ((np.nextafter(0.5, 1), 2.0, 0.5), True),
    ((0.0, 2.0, 0), False),
    ((5e-324, 2.0, 0), True),
    ((np.nan, 2.0, None), False),
    ((np.nan, 2.0, 0), False),
    ((1.0, np.nan, None), False),
    ((1.0, np.nan, 0), False),
    ((1.0, np.inf, 0), False),
]


@pytest.mark.parametrize("triple, verdict", GATE_VERDICTS,
                         ids=["at-default", "below-default", "above-default", "at-tol", "below-tol", "above-tol",
                              "zero-at-zero", "tiny-above-zero", "nan-lower", "nan-lower-zero-tol", "nan-upper",
                              "nan-upper-zero-tol", "inf-upper"])
def test_one_stability_gate_decides_on_lower_upper_and_tol(triple, verdict):
    assert si_space._clears_gate(*triple) is verdict


def test_riesz_check_and_the_frame_gate_give_the_gates_verdict():
    system, scheme, _ = seeded_setup(25)
    report, tm = riesz_check(system), ReconstructionKit(system, scheme).transfer
    (alpha, beta, _), verdicts = tm.bounds, []
    for tol in (report.lower, np.nextafter(report.lower, 0), np.nextafter(report.lower, np.inf), None, 0.0):
        verdicts.append(si_space._clears_gate(report.lower, report.upper, tol))
        assert riesz_check(system, tol=tol).is_riesz is verdicts[-1]
    for tol in (alpha, np.nextafter(alpha, 0), np.nextafter(alpha, np.inf), None, 0.0):
        verdicts.append(si_space._clears_gate(alpha, beta, tol))
        if verdicts[-1]:
            assert dual_left_inverse(tm, tol=tol).shape == (system.lattice.size, 2, 3)
        else:
            with pytest.raises(NotAFrameError, match=re.escape(f"alpha_A = {alpha:.3e}")):
                dual_left_inverse(tm, tol=tol)
    assert verdicts == 2 * [False, True, False, True, True]


# ---------------------------------------------------------------- reconstruction

def test_perfect_reconstruction():
    system, scheme, rng = seeded_setup(24)
    lat = system.lattice
    kit = reconstruction_kit(system, scheme)
    c = rand_seq(rng, (2, lat.size))
    T = synthesize(system, c)
    T_rec = reconstruct(diag_channel_samples(T, scheme, lat), kit)
    assert hs_norm(T - T_rec) / hs_norm(T) < 1e-9


@pytest.mark.parametrize("desc", [(2, 2), (4, 1), [(2, 1), (0, 4)], [(4, 2), (0, 4)]])
@pytest.mark.parametrize("in_span", [True, False])
def test_reconstruction_read_from_the_fold_is_the_samples_route(monkeypatch, desc, in_span):
    # the sample fibers are the fold itself: no lattice series of the samples
    system, scheme, rng = seeded_setup(21, desc=desc)
    kit = reconstruction_kit(system, scheme)
    T = synthesize(system, rand_seq(rng, (2, system.lattice.size))) if in_span else rand_kernel(rng, 8)
    want = fourier_wigner(reconstruct(avg_samples(T, scheme, system.lattice), kit))
    for name in ("symp_fourier", "inv_symp_fourier"):
        monkeypatch.setattr(sampling, name, None)
    got = reconstruct_from_spreading(fourier_wigner(T), kit)
    assert got.shape == (8, 8)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    if in_span:
        assert np.abs(got - fourier_wigner(T)).max() <= 1e-13 * np.abs(want).max()


def test_reconstruction_pointwise_action():
    system, scheme, rng = seeded_setup(25)
    lat = system.lattice
    kit = reconstruction_kit(system, scheme)
    T = synthesize(system, rand_seq(rng, (2, lat.size)))
    T_rec = reconstruct(diag_channel_samples(T, scheme, lat), kit)
    for _ in range(3):
        f = rand_signal(rng, lat.modulus, unit=False)
        assert np.linalg.norm((T - T_rec) @ f) < 1e-9 * np.linalg.norm(f)


def test_zero_samples_give_zero_operator():
    system, scheme, _ = seeded_setup(26)
    kit = reconstruction_kit(system, scheme)
    out = reconstruct(np.zeros((3, system.lattice.size)), kit)
    assert np.abs(out).max() == 0.0


def test_coefficient_frame_expansion_consistency():
    system, scheme, rng = seeded_setup(27)
    lat = system.lattice
    kit = reconstruction_kit(system, scheme)
    c = rand_seq(rng, (2, lat.size))
    T = synthesize(system, c)
    s = diag_channel_samples(T, scheme, lat)
    c_rec = coefficient_frame_expansion(s, kit)
    assert np.abs(c_rec - c).max() < 1e-9
    assert np.abs(c_rec - coefficients(system, T)).max() < 1e-9
    assert hs_norm(synthesize(system, c_rec) - reconstruct(s, kit)) < 1e-10


def test_delta_samples_select_dual_column():
    system, scheme, _ = seeded_setup(28)
    lat = system.lattice
    kit = reconstruction_kit(system, scheme)
    for m in range(len(scheme)):
        s = np.zeros((len(scheme), lat.size), complex)
        s[m, lat.locate(0, 0)[0]] = 1.0
        c = coefficient_frame_expansion(s, kit)
        assert np.abs(c - kit.b[:, m, :]).max() < 1e-12


def test_sample_round_trip():
    system, scheme, rng = seeded_setup(29)
    lat = system.lattice
    kit = reconstruction_kit(system, scheme)
    c = rand_seq(rng, (2, lat.size))
    s = diag_channel_samples(synthesize(system, c), scheme, lat)
    c_rec = coefficient_frame_expansion(s, kit)
    s2 = diag_channel_samples(synthesize(system, c_rec), scheme, lat)
    assert np.abs(s2 - s).max() < 1e-9


def test_norm_equivalence_of_samples():
    system, scheme, rng = seeded_setup(30)
    lat = system.lattice
    rep = riesz_check(system)
    kit = reconstruction_kit(system, scheme)
    for _ in range(5):
        c = rand_seq(rng, (2, lat.size))
        T = synthesize(system, c)
        s2 = (np.abs(diag_channel_samples(T, scheme, lat)) ** 2).sum()
        t2 = hs_norm(T) ** 2
        lo = kit.alpha / rep.upper * t2
        hi = kit.beta / rep.lower * t2
        assert lo - 1e-9 * s2 <= s2 <= hi + 1e-9 * s2


def test_average_and_window_pipelines_agree():
    system, scheme, rng = seeded_setup(31)
    lat = system.lattice
    avg = average_scheme(scheme)
    kit_w = reconstruction_kit(system, scheme)
    kit_a = reconstruction_kit(system, avg)
    assert np.abs(kit_w.b - kit_a.b).max() < 1e-11
    for Hw, Ha in zip(kit_w.recon_ops, kit_a.recon_ops):
        assert np.abs(Hw - Ha).max() < 1e-11
    T = synthesize(system, rand_seq(rng, (2, lat.size)))
    s_w = diag_channel_samples(T, scheme, lat)
    s_a = avg_samples(T, avg, lat)
    assert np.abs(s_w - s_a).max() < 1e-11
    assert np.abs(reconstruct(s_w, kit_w) - reconstruct(s_a, kit_a)).max() < 1e-10


# ---------------------------------------------------------------- sublattice

def test_sublattice_inflate_identity_case():
    system, _, _ = seeded_setup(32, N=1)
    infl = sublattice_inflate(system, system.lattice)
    assert infl.num_generators == 1
    assert np.abs(infl.generators[0] - system.generators[0]).max() == 0.0


def test_sublattice_resynthesis_identity():
    system, _, rng = seeded_setup(33, N=2)
    lat = system.lattice
    sub = build_lattice([(4, 0), (0, 2)], 8)
    assert len(coset_transversal(lat, sub)) == 2
    infl = sublattice_inflate(system, sub)
    assert infl.num_generators == 4
    c = rand_seq(rng, (2, lat.size))
    ci = inflate_coefficients(system, sub, c)
    assert np.abs(synthesize(infl, ci) - synthesize(system, c)).max() < 1e-12


@pytest.mark.parametrize("shape", [(2, 16), (1, 15), (16,), (1, 16, 1)])
def test_inflate_coefficients_rejects_a_wrong_shape(shape):
    system, _, _ = seeded_setup(36, N=1)
    assert system.lattice.size == 16
    sub = build_lattice([(4, 0), (0, 2)], 8)
    assert inflate_coefficients(system, sub, np.ones((1, 16))).shape == (2, 8)
    with pytest.raises(ValueError, match=re.escape(f"coefficient array shape {shape}, expected (..., 1, 16)")):
        inflate_coefficients(system, sub, np.ones(shape))


def test_sublattice_pipeline_reconstructs():
    system, _, rng = seeded_setup(34, N=1)
    lat = system.lattice
    sub = build_lattice([(4, 0), (0, 2)], 8)
    infl = sublattice_inflate(system, sub)
    scheme = window_scheme([(rand_signal(rng, 8), rand_signal(rng, 8)) for _ in range(3)])
    kit = reconstruction_kit(infl, scheme)
    T = synthesize(system, rand_seq(rng, (1, lat.size)))
    s = diag_channel_samples(T, scheme, sub)
    assert hs_norm(reconstruct(s, kit) - T) / hs_norm(T) < 1e-9


def test_sublattice_inflate_rejects_non_sublattice():
    system, _, _ = seeded_setup(35, N=1)
    from opsis.phase_space import LatticeError

    with pytest.raises(LatticeError):
        sublattice_inflate(system, build_lattice((1, 2), 8))
