"""Acceptance suite: one test per exit criterion, each at its stated
tolerance, printing one PASS line when it holds (run with `pytest -s` to see
the lines)."""

import json
import time

import numpy as np
import pytest

from opsis.cli import main
from opsis.hs_ops import (
    OperatorStack,
    fn_op_convolve,
    hs_inner,
    hs_norm,
    kn_symbol,
    op_translate,
    rank_one,
)
from opsis.phase_space import build_lattice, coset_transversal
from opsis.sampling import (
    cross_seq,
    diag_channel_samples,
    dual_left_inverse,
    frame_bounds,
    inflate_coefficients,
    interpolation_deviation,
    reconstruct,
    reconstruction_kit,
    sublattice_inflate,
    transfer_matrix,
    window_scheme,
)
from opsis.si_space import GeneratorSystem, gram_fibers, riesz_check, synthesize
from opsis.timefreq import gaussian_window, tf_shift

from conftest import rand_kernel, rand_seq, rand_signal
from oracle import brute_gram, gw_fibers, lattice_convolve


def make_setup(seed, L, desc, N, M):
    rng = np.random.default_rng(seed)
    lat = build_lattice(desc, L)
    system = GeneratorSystem(lat, tuple(rand_kernel(rng, L) for _ in range(N)))
    scheme = window_scheme([(rand_signal(rng, L), rand_signal(rng, L)) for _ in range(M)])
    return system, scheme, rng


SHAPES = [
    (4, (2, 2), 1, 1),
    (4, (2, 2), 1, 2),
    (6, (2, 3), 1, 2),
    (6, (3, 3), 2, 2),
    (8, (2, 2), 2, 3),
    (8, (2, 4), 1, 2),
    (8, (4, 4), 3, 4),
    (9, (3, 3), 2, 3),
    (12, (3, 4), 2, 2),
    (12, (4, 4), 3, 3),
]


def test_acceptance_01_perfect_reconstruction():
    started = time.perf_counter()
    checked = 0
    for seed_base, (L, desc, N, M) in enumerate(SHAPES * 2):
        system, scheme, rng = make_setup(100 + seed_base, L, desc, N, M)
        kit = reconstruction_kit(system, scheme)
        assert kit.alpha > 0
        c = rand_seq(rng, (N, system.lattice.size))
        T = synthesize(system, c)
        s = diag_channel_samples(T, scheme, system.lattice)
        rel = hs_norm(T - reconstruct(s, kit)) / hs_norm(T)
        assert rel < 1e-9, f"shape {(L, desc, N, M)} rel error {rel}"
        checked += 1
    elapsed = time.perf_counter() - started
    assert checked >= 20
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 01: PASS - perfect reconstruction on {checked} "
          f"frame-passing configs, rel HS error < 1e-9, {elapsed:.2f}s")


def test_acceptance_02_three_way_sample_identity():
    L = 8
    lat = build_lattice((2, 2), L)
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(200 + seed)
        T = rand_kernel(rng, L)
        g, gt = rand_signal(rng, L), rand_signal(rng, L)
        s = diag_channel_samples(T, window_scheme([(g, gt)]), lat)[0]
        for j, lam in enumerate(lat.points):
            via_shifts = np.vdot(tf_shift(lam, gt), T @ tf_shift(lam, g))
            via_trace = hs_inner(T, op_translate(lam, rank_one(gt, g)))
            worst = max(worst, abs(s[j] - via_shifts), abs(s[j] - via_trace))
    assert worst < 1e-12
    print(f"\nACCEPTANCE 02: PASS - three-way sample identity, max dev {worst:.2e} < 1e-12")


def test_acceptance_03_samples_are_convolutions():
    worst = 0.0
    for seed, (L, desc, N, M) in enumerate(SHAPES):
        system, scheme, rng = make_setup(300 + seed, L, desc, N, M)
        lat = system.lattice
        c = rand_seq(rng, (N, lat.size))
        s = diag_channel_samples(synthesize(system, c), scheme, lat)
        A = cross_seq(system, scheme)
        for m in range(M):
            expected = sum(lattice_convolve(c[n], A[m, n], lat) for n in range(N))
            worst = max(worst, float(np.abs(s[m] - expected).max()))
    assert worst < 1e-11
    print(f"\nACCEPTANCE 03: PASS - samples-as-convolution on 10 systems, "
          f"max dev {worst:.2e} < 1e-11")


def test_acceptance_04_riesz_route_agreement():
    worst_spec = worst_bounds = 0.0
    for seed, (L, desc, N, M) in enumerate(SHAPES):
        system, _, _ = make_setup(400 + seed, L, desc, N, M)
        fibers = gram_fibers(system)
        G, lmin, lmax = brute_gram(system)
        lhs = np.sort(np.linalg.eigvalsh(fibers).ravel())
        rhs = np.sort(np.linalg.eigvalsh(G))
        worst_spec = max(worst_spec, float(np.abs(lhs - rhs).max()))
        gw = riesz_check(system, route="gw")
        worst_bounds = max(worst_bounds, abs(gw.lower - max(lmin, 0.0)), abs(gw.upper - lmax))
    assert worst_spec < 1e-9
    assert worst_bounds < 1e-9
    worst_gw = 0.0
    for seed, (L, desc, N) in enumerate([(4, (2, 2), 1), (6, (2, 3), 2), (12, (3, 4), 2)]):
        system, _, _ = make_setup(450 + seed, L, desc, N, 1)
        lhs = gram_fibers(system)
        rhs = gw_fibers(system) * (system.lattice.size / L)
        worst_gw = max(worst_gw, float(np.abs(lhs - rhs).max()))
    assert worst_gw < 1e-9
    print(f"\nACCEPTANCE 04: PASS - fiber spectra match dense Gram "
          f"({worst_spec:.2e}), so do the gw route's bounds ({worst_bounds:.2e}), "
          f"periodized route proportional by |lattice|/L on L in (4, 6, 12) ({worst_gw:.2e})")


def test_acceptance_05_frame_sandwich_and_necessity():
    draws = 0
    for seed, (L, desc, N, M) in enumerate(SHAPES):
        system, scheme, rng = make_setup(500 + seed, L, desc, N, M)
        lat = system.lattice
        tm = transfer_matrix(cross_seq(system, scheme), lat)
        fb = frame_bounds(tm)
        for _ in range(2):
            c = rand_seq(rng, (N, lat.size))
            c2 = float((np.abs(c) ** 2).sum())
            s2 = float((np.abs(diag_channel_samples(synthesize(system, c), scheme, lat)) ** 2).sum())
            assert fb.alpha * c2 - 1e-9 * max(1.0, s2) <= s2
            assert s2 <= fb.beta * c2 + 1e-9 * max(1.0, s2)
            draws += 1
    assert draws >= 20
    for seed in range(3):
        system, _, rng = make_setup(550 + seed, 8, (2, 2), 2, 2)
        thin = window_scheme([(rand_signal(rng, 8), rand_signal(rng, 8))])  # M=1 < N=2
        fb = frame_bounds(transfer_matrix(cross_seq(system, thin), system.lattice))
        assert fb.alpha == 0.0
    print(f"\nACCEPTANCE 05: PASS - frame sandwich on {draws} draws at slack 1e-9; "
          f"M < N forces alpha_A = 0")


def test_acceptance_06_interpolation_square_case():
    worst = 0.0
    for seed, (L, desc, N) in enumerate(
        [(8, (2, 2), 1), (8, (2, 2), 2), (6, (2, 3), 2), (12, (3, 4), 2), (9, (3, 3), 3)]
    ):
        system, scheme, _ = make_setup(600 + seed, L, desc, N, N)
        kit = reconstruction_kit(system, scheme)
        worst = max(worst, interpolation_deviation(kit))
    assert worst < 1e-10
    print(f"\nACCEPTANCE 06: PASS - interpolation property on 5 square systems, "
          f"max dev {worst:.2e} < 1e-10")


def test_acceptance_07_dual_family_invariance():
    system, scheme, rng = make_setup(700, 8, (2, 2), 2, 3)
    lat = system.lattice
    c = rand_seq(rng, (2, lat.size))
    T = synthesize(system, c)
    s = diag_channel_samples(T, scheme, lat)
    tm = transfer_matrix(cross_seq(system, scheme), lat)
    K = tm.fibers.shape[0]
    for trial in range(5):
        crng = np.random.default_rng(710 + trial)
        C = rand_seq(crng, (K, 2, 3))
        B = dual_left_inverse(tm, C=C)
        worst = max(float(np.abs(B[k] @ tm.fibers[k] - np.eye(2)).max()) for k in range(K))
        assert worst < 1e-10
        kit = reconstruction_kit(system, scheme, C=C)
        rel = hs_norm(T - reconstruct(s, kit)) / hs_norm(T)
        assert rel < 1e-9
    print("\nACCEPTANCE 07: PASS - 5 perturbed left inverses satisfy B A = I to "
          "1e-10 with reconstruction error < 1e-9")


def test_acceptance_08_kn_unitarity_and_covariance():
    L = 6
    rng = np.random.default_rng(800)
    S, T = rand_kernel(rng, L), rand_kernel(rng, L)
    assert abs(np.vdot(kn_symbol(T), kn_symbol(S)) - hs_inner(S, T)) < 1e-12
    sig = kn_symbol(S)
    worst = 0.0
    for x in range(L):
        for w in range(L):
            dev = np.abs(kn_symbol(op_translate((x, w), S)) - np.roll(sig, (x, w), axis=(0, 1))).max()
            worst = max(worst, float(dev))
    assert worst < 1e-12
    print(f"\nACCEPTANCE 08: PASS - symbol transform unitary and shift-covariant "
          f"for all {L * L} shifts, max dev {worst:.2e} < 1e-12")


def test_acceptance_09_convolution_lemma():
    rng = np.random.default_rng(900)
    # calibrate the constant on L = 4: symbol of (g * S) over plain convolution
    L = 4
    g = rand_kernel(rng, L, unit=False)
    S = rand_kernel(rng, L)
    lhs = kn_symbol(fn_op_convolve(g, S))
    rhs = np.fft.ifft2(np.fft.fft2(g) * np.fft.fft2(kn_symbol(S)))
    idx = np.unravel_index(np.abs(rhs).argmax(), rhs.shape)
    c0 = lhs[idx] / rhs[idx]
    assert abs(c0 - 1.0) < 1e-12
    worst = 0.0
    for L in (4, 5, 8):
        g = rand_kernel(rng, L, unit=False)
        S = rand_kernel(rng, L)
        lhs = kn_symbol(fn_op_convolve(g, S))
        rhs = c0 * np.fft.ifft2(np.fft.fft2(g) * np.fft.fft2(kn_symbol(S)))
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    assert worst < 1e-10
    print(f"\nACCEPTANCE 09: PASS - convolution lemma with calibrated constant "
          f"c0 = 1 on L in (4, 5, 8), max dev {worst:.2e} < 1e-10")


def test_acceptance_10_sublattice_pipeline():
    rng = np.random.default_rng(1000)
    L = 8
    lat = build_lattice((2, 2), L)
    sub = build_lattice([(4, 0), (0, 2)], L)
    assert len(coset_transversal(lat, sub)) == 2
    system = GeneratorSystem(lat, (rand_kernel(rng, L),))
    infl = sublattice_inflate(system, sub)
    c = rand_seq(rng, (1, lat.size))
    ci = inflate_coefficients(system, sub, c)
    dev = float(np.abs(synthesize(infl, ci) - synthesize(system, c)).max())
    assert dev < 1e-12
    scheme = window_scheme([(rand_signal(rng, L), rand_signal(rng, L)) for _ in range(3)])
    kit = reconstruction_kit(infl, scheme)
    T = synthesize(system, c)
    s = diag_channel_samples(T, scheme, sub)
    rel = hs_norm(T - reconstruct(s, kit)) / hs_norm(T)
    assert rel < 1e-9
    print(f"\nACCEPTANCE 10: PASS - index-2 sub-lattice re-synthesis exact "
          f"({dev:.2e} < 1e-12) and reconstruction from sub-lattice samples "
          f"(rel error {rel:.2e})")


def test_acceptance_11_negative_control(tmp_path):
    cfg = {
        "L": 4,
        "seed": 7,
        "lattice": {"a": 1, "b": 1},
        "generators": [
            {"kind": "rank_one", "left": {"kind": "delta"}, "right": {"kind": "delta"}}
        ],
        "scheme": {"windows": [{"g": {"kind": "delta"}, "g_tilde": {"kind": "delta"}}]},
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = main(["reconstruct", "--config", str(path), "--out", str(out)])
    assert code == 2
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["frame"]["alpha_A"] < 1e-20
    print("\nACCEPTANCE 11: PASS - delta-window full-lattice control yields "
          "alpha_A = 0 and exit code 2")


@pytest.mark.parametrize("L, bound", [(36, 5e-12), (144, 1e-14), (576, 1e-14)])
def test_acceptance_12_gaussian_riesz_bounds_are_theta_functions(L, bound):
    # The continuous Gaussian g (x) g on Z x Z has Riesz bounds theta_4(0, e^-pi)^2 and
    # theta_3(0, e^-pi)^2, computed by mpmath and by no route of opsis.  The finite model
    # on sqrt(L)Z x sqrt(L)Z matches them up to its periodization error, which shrinks
    # with L: measured 2.1e-12 relative on both bounds at L = 36 (hence its 5e-12 bound),
    # and at most 1.9e-16 at L = 144 and 576.
    mpmath = pytest.importorskip("mpmath")
    q = mpmath.exp(-mpmath.pi)
    want = [float(mpmath.jtheta(4, 0, q) ** 2), float(mpmath.jtheta(3, 0, q) ** 2)]
    g, a = gaussian_window(L), round(L ** 0.5)
    report = riesz_check(GeneratorSystem(build_lattice((a, a), L), OperatorStack(windows=[(g, g)])))
    errors = [abs(got - ref) / ref for got, ref in zip([report.lower, report.upper], want, strict=True)]
    assert report.is_riesz and max(errors) < bound, errors
    print(f"\nACCEPTANCE 12: PASS - Gaussian Riesz bounds on {a}Z x {a}Z, L = {L}, match "
          f"theta_4^2 and theta_3^2 to {max(errors):.1e} relative (< {bound:.0e})")
