#!/usr/bin/env python3
# The full sampling loop: synthesize an operator from lattice coefficients,
# take its diagonal channel samples, build a dual kit, reconstruct exactly.

import numpy as np

from opsis import (
    GeneratorSystem,
    build_lattice,
    coefficient_frame_expansion,
    cross_seq,
    diag_channel_samples,
    dual_left_inverse,
    frame_bounds,
    hs_norm,
    interpolation_deviation,
    reconstruct,
    reconstruction_kit,
    synthesize,
    transfer_matrix,
    window_scheme,
)

rng = np.random.default_rng(4)
L = 8
lat = build_lattice((2, 2), L)


def unit_kernel():
    K = rng.standard_normal((L, L)) + 1j * rng.standard_normal((L, L))
    return K / np.linalg.norm(K)


def unit_signal():
    v = rng.standard_normal(L) + 1j * rng.standard_normal(L)
    return v / np.linalg.norm(v)


system = GeneratorSystem(lat, (unit_kernel(), unit_kernel()))
scheme = window_scheme([(unit_signal(), unit_signal()) for _ in range(3)])
N, M = system.num_generators, len(scheme)
print(f"N = {N} generators on a {lat.size}-point lattice, M = {M} channels")

# the transfer matrix decides stability fiber by fiber
A = cross_seq(system, scheme)
tm = transfer_matrix(A, lat)
fb = frame_bounds(tm)
print(f"frame bounds: alpha_A = {fb.alpha:.6f}, beta_A = {fb.beta:.6f}")

# synthesize, sample, reconstruct
kit = reconstruction_kit(system, scheme)
c = rng.standard_normal((N, lat.size)) + 1j * rng.standard_normal((N, lat.size))
T = synthesize(system, c)
s = diag_channel_samples(T, scheme, lat)
T_rec = reconstruct(s, kit)
print("relative reconstruction error:", hs_norm(T - T_rec) / hs_norm(T))

# the same samples recover the coefficients directly
c_rec = coefficient_frame_expansion(s, kit)
print("coefficient recovery error:", np.abs(c_rec - c).max())

# with M = N channels the reconstruction operators interpolate the samples
square = window_scheme([(unit_signal(), unit_signal()) for _ in range(N)])
kit_sq = reconstruction_kit(system, square)
print("\nsquare case interpolation deviation:", interpolation_deviation(kit_sq))

# with M > N the dual is not unique: perturbing the left inverse inside the
# admissible family moves the dual operators but not the reconstruction
K = tm.fibers.shape[0]
C = rng.standard_normal((K, N, M)) + 1j * rng.standard_normal((K, N, M))
kit_alt = reconstruction_kit(system, scheme, C=C)
moved = max(np.abs(h1 - h2).max() for h1, h2 in zip(kit.recon_ops, kit_alt.recon_ops))
print(f"\nperturbed dual: operators moved by {moved:.3f}, "
      f"reconstruction error still {hs_norm(T - reconstruct(s, kit_alt)) / hs_norm(T):.2e}")
B = dual_left_inverse(tm, C=C)
worst = max(np.abs(B[k] @ tm.fibers[k] - np.eye(N)).max() for k in range(K))
print("every family member is a left inverse:", worst)
