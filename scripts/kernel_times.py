"""Best-of-20 times of the lattice kernels, printed one line per case.

The lattice series, the fold and the spreading transform run at the three
benchmark workload shapes (N = 2 generators against M = 3 channels) and on
the full lattice at L = 256.  Then the fold runs at these operand shapes:

* the three folds of an `opsis reconstruct` run at L = 48 on 4Z x 4Z: the
  transfer fibers (1, 2) against (3, 1), the Gram fibers (2, 1) against
  (1, 2), and the samples, one operator against 3 averagers;
* 2 against 3 on the separable (6, 4) lattice at L = 60;
* one operator against 3 at L = 1024 on 4Z x 4Z, where the fold's rows
  are long and it keeps one einsum, since contracting k' before j' was
  measured twice as slow there.

Then the fiber layer of opsis.si_space runs on random transfer fibers at
the workloads' shapes, K fibers of 3 channels against 2 generators with
K = 144 (cli_reconstruct), 256 (kit_stream) and 240 (lattice_scan):
* hermitian_spectrum of the K 2 x 2 Gram fibers A^* A, the Riesz spectrum;
* fiber_singular_values of the (K, 3, 2) fibers, the frame bounds;
* fiber_left_inverse on its closed-form route, given those singular values;
* fiber_left_inverse on its np.linalg.pinv route, the same fibers with a
  zero s_min passed, which sends every batch to pinv.

Then gabor_multiplier runs at L = 256 on the sheared [(4, 2), (0, 4)], and
berezin at L = 256 on all of Z_L^2; both read their rank-one atom from a
one-pair record, with no kernel formed.
Then come two steps of an `opsis reconstruct` run on the benchmark's
config (L = 48, 4Z x 4Z, 2 random generators, 3 random window pairs):
parse_config with the coefficient draw, and window_scheme of 3 pairs,
which transforms the pairs.
Last, at the kit_stream shape (L = 64, 4Z x 4Z, N = 2 random generators,
M = 3 random averagers), reconstruct plus coefficient_frame_expansion run
on one (16, M, |lattice|) batch of samples, against 16 single calls: the
leading axes of a sample array are batch axes.
A kernel that regresses on one numpy build or platform shows in the log.
Nothing is checked.

Run from the repository root: PYTHONPATH=src python scripts/kernel_times.py
"""

import timeit

import numpy as np

from opsis.config import parse_config
from opsis.hs_ops import fourier_wigner
from opsis.phase_space import build_lattice, cosets, fold_cosets, inv_symp_fourier, symp_fourier
from opsis.sampling import (average_scheme, avg_samples, coefficient_frame_expansion, reconstruct,
                            reconstruction_kit, window_scheme)
from opsis.si_space import GeneratorSystem, fiber_left_inverse, fiber_singular_values, hermitian_spectrum
from opsis.timefreq import berezin, gabor_multiplier

rng = np.random.default_rng(0)


def normal(*shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def best(run):
    return min(timeit.repeat(run, number=1, repeat=20)) * 1e6


for L, desc in [(48, (4, 4)), (64, (4, 4)), (60, [(3, 7), (0, 5)]), (256, (1, 1))]:
    lat = build_lattice(desc, L)
    FT, FQ = normal(2, L, L), normal(3, L, L)
    CT, CQ = cosets(FT, lat)[:, None], cosets(FQ, lat)[None, :]
    c = normal(3, lat.size)
    times = {"symp_fourier": best(lambda: symp_fourier(c, lat)),
             "inv_symp_fourier": best(lambda: inv_symp_fourier(c, lat)),
             "fold_cosets": best(lambda: fold_cosets(CT, CQ, lat)),
             "fourier_wigner": best(lambda: fourier_wigner(FQ))}
    print(f"L = {L}, lattice {desc}: " + ", ".join(f"{k} {t:.1f} us" for k, t in times.items()))

for L, desc, lead_T, lead_Q in [(48, (4, 4), (1, 2), (3, 1)), (48, (4, 4), (2, 1), (1, 2)),
                                (48, (4, 4), (), (3,)), (60, (6, 4), (2, 1), (1, 3)),
                                (1024, (4, 4), (), (3,))]:
    lat = build_lattice(desc, L)
    CT, CQ = cosets(normal(*lead_T, L, L), lat), cosets(normal(*lead_Q, L, L), lat)
    print(f"L = {L}, lattice {desc}: fold_cosets {lead_T} against {lead_Q} {best(lambda: fold_cosets(CT, CQ, lat)):.1f} us")

for K, workload in [(144, "cli_reconstruct"), (256, "kit_stream"), (240, "lattice_scan")]:
    A = normal(K, 3, 2)
    G = A.conj().transpose(0, 2, 1) @ A
    s = fiber_singular_values(A)
    s_pinv = s * [1.0, 0.0]
    times = {"hermitian_spectrum": best(lambda: hermitian_spectrum(G)),
             "fiber_singular_values": best(lambda: fiber_singular_values(A)),
             "fiber_left_inverse closed form": best(lambda: fiber_left_inverse(A, s)),
             "fiber_left_inverse pinv": best(lambda: fiber_left_inverse(A, s_pinv))}
    print(f"fibers ({K}, 3, 2), {workload}: " + ", ".join(f"{k} {t:.1f} us" for k, t in times.items()))

L, desc = 256, [(4, 2), (0, 4)]
lat = build_lattice(desc, L)
mask, psi, phi = normal(lat.size), normal(L), normal(L)
print(f"L = {L}, lattice {desc}: gabor_multiplier {best(lambda: gabor_multiplier(mask, lat, psi, phi)):.1f} us")
T = normal(L, L)
print(f"L = {L}: berezin {best(lambda: berezin(T, psi, phi)):.1f} us")

raw = {"L": 48, "seed": 0, "lattice": {"a": 4, "b": 4}, "generators": [{"kind": "random"}] * 2,
       "scheme": {"windows": [{"g": {"kind": "random"}, "g_tilde": {"kind": "random"}}] * 3}}
print(f"L = 48, lattice (4, 4): parse_config {best(lambda: parse_config(raw, coefficients='always')):.1f} us")
pairs = [(normal(48), normal(48)) for _ in range(3)]
print(f"L = 48: window_scheme of 3 pairs {best(lambda: window_scheme(pairs)):.1f} us")

L, desc = 64, (4, 4)
lat = build_lattice(desc, L)
kit = reconstruction_kit(GeneratorSystem(lat, normal(2, L, L)), average_scheme(normal(3, L, L)))
samples = avg_samples(normal(16, L, L), kit.scheme, lat)


def recover(s):
    return reconstruct(s, kit), coefficient_frame_expansion(s, kit)


print(f"L = {L}, lattice {desc}: reconstruct and coefficient_frame_expansion, one batch of 16 "
      f"{best(lambda: recover(samples)):.1f} us, 16 single calls {best(lambda: [recover(s) for s in samples]):.1f} us")
