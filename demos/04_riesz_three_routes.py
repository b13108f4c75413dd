#!/usr/bin/env python3
# Is a family of translated generators a Riesz sequence?  Three roads to the
# same answer: correlation fibers, the dense Gram matrix, and the
# annihilator-periodized spreading transforms.

import numpy as np

from opsis import (
    GeneratorSystem,
    build_lattice,
    gaussian_window,
    gram_fibers,
    op_translate,
    rank_one,
    riesz_check,
    stft,
)

rng = np.random.default_rng(3)
L = 8
lat = build_lattice((2, 2), L)

K1 = rng.standard_normal((L, L)) + 1j * rng.standard_normal((L, L))
K2 = rng.standard_normal((L, L)) + 1j * rng.standard_normal((L, L))
system = GeneratorSystem(lat, (K1 / np.linalg.norm(K1), K2 / np.linalg.norm(K2)))

report = riesz_check(system)
print(f"two random generators on 2Z x 2Z in Z_{L}:")
print(f"  riesz = {report.is_riesz}, bounds m = {report.lower:.6f}, M = {report.upper:.6f}")

# route 1 vs route 2: fibers block-diagonalize the dense Gram matrix of
# all translates, one row per (generator, lattice point)
fibers = gram_fibers(system)
V = np.array([op_translate(p, S).ravel() for S in system.generators for p in lat.points])
G = V @ V.conj().T
eigs_f = np.sort(np.linalg.eigvalsh(fibers).ravel())
eigs_g = np.sort(np.linalg.eigvalsh(G))
print(f"  dense Gram is {G.shape[0]} x {G.shape[0]}; fiber route gives "
      f"{fibers.shape[0]} blocks of size {fibers.shape[1]}")
print("  spectra agree to", np.abs(eigs_f - eigs_g).max())

# route 3: periodized |spreading|^2 outer products, scaled by |lattice| / L
gw = riesz_check(system, route="gw")
print(f"  riesz_check(route='gw'): m = {gw.lower:.6f}, M = {gw.upper:.6f}; "
      f"agrees to {max(abs(gw.lower - eigs_g[0]), abs(gw.upper - eigs_g[-1])):.1e}")

# a degenerate case: delta atom on the full lattice repeats its translates
print("\ndegenerate control: delta (x) delta on the full lattice")
d = np.zeros(4, complex)
d[0] = 1.0
full = build_lattice((1, 1), 4)
bad = GeneratorSystem(full, (rank_one(d, d),))
print("  riesz_check:", riesz_check(bad))

# the Gaussian atom on the full lattice is decided by its ambiguity zeros
g = gaussian_window(4)
gauss = GeneratorSystem(full, (rank_one(g, g),))
rep = riesz_check(gauss)
print(f"\ngaussian (x) gaussian on the full lattice: riesz = {rep.is_riesz} "
      f"(min |V_g g| = {np.abs(stft(g, g)).min():.6f})")
