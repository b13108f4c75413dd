#!/usr/bin/env python3
# Tour of the finite phase space Z_L x Z_L: lattices, annihilators,
# dual transversals, and the symplectic Fourier series.

import numpy as np

from opsis import (
    annihilator,
    build_lattice,
    dual_transversal,
    inv_symp_fourier,
    lattice_convolve,
    symp_fourier,
    symplectic_form,
)

L = 12
print(f"phase space Z_{L} x Z_{L}\n")

# a separable lattice and its annihilator
lat = build_lattice((3, 4), L)
ann = annihilator(lat)
print(f"lattice 3Z x 4Z has {lat.size} points; annihilator has {ann.size}")
print(f"|lattice| * |annihilator| = {lat.size * ann.size} = L^2 = {L * L}")
print(f"self-adjoint here: annihilator == lattice -> {ann == lat}\n")

# a generated (non-separable descriptor) lattice
gen = build_lattice([(2, 0), (0, 3)], 6)
print(f"subgroup of Z_6 x Z_6 generated by (2,0), (0,3): {gen.points}\n")

# the symplectic form pairs the group with itself
z, zp = (1, 2), (3, 4)
print(f"sigma({z}, {zp}) mod {L} = {symplectic_form(z, zp, L)}")
print(f"antisymmetry: sigma(z', z) = {symplectic_form(zp, z, L)} "
      f"(= -{symplectic_form(z, zp, L)} mod {L})\n")

# symplectic Fourier series: unitary up to |lattice|, diagonalizes convolution
rng = np.random.default_rng(0)
c = rng.standard_normal(lat.size) + 1j * rng.standard_normal(lat.size)
d = rng.standard_normal(lat.size) + 1j * rng.standard_normal(lat.size)
F = symp_fourier(c, lat)
print(f"transversal size = {len(dual_transversal(lat))} (one point per annihilator coset)")
print("round trip |inv(F(c)) - c|_max =",
      np.abs(inv_symp_fourier(F, lat) - c).max())
print("Parseval  sum|F|^2 - |lat| sum|c|^2 =",
      abs((np.abs(F)**2).sum() - lat.size * (np.abs(c)**2).sum()))
# lattice_convolve is the convolution theorem, inv(F(c) F(d)); check one
# value against the group convolution sum_mu c(mu) d(lam - mu)
conv = lattice_convolve(c, d, lat)
lam = lat.points[5]
direct = sum(c[j] * d[lat.locate((lam[0] - mu[0]) % L, (lam[1] - mu[1]) % L)[0]]
             for j, mu in enumerate(lat.points))
print(f"convolution at {lam}: via F {conv[5]:.6f}, direct sum {direct:.6f}")
