"""Best-of-20 times of the lattice kernels, printed one line per lattice.

The lattice series, the fold and the spreading transform run at the three
benchmark workload shapes (N = 2 generators against M = 3 channels) and on
the full lattice at L = 256, so a kernel that regresses on one numpy build
or platform shows in the log.  Nothing is checked.

Run from the repository root: PYTHONPATH=src python scripts/kernel_times.py
"""

import timeit

import numpy as np

from opsis.hs_ops import fourier_wigner
from opsis.phase_space import build_lattice, cosets, fold_cosets, inv_symp_fourier, symp_fourier

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
