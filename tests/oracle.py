"""Kernel-domain oracles: the direct per-translate sums that the
spreading-domain engine replaces, the per-channel lattice convolutions
that the fiberwise coefficient expansion replaces, and the exhaustive
lattice duality that the grid series replaces.

The operator oracles form each translate as a dense L x L kernel with
op_translate and sum or pair in the kernel domain, O(|lattice| L^2) per
operator.  None of them calls fourier_wigner, so they stay independent of the
engine and of the periodized ("gw") Riesz route, which share that transform.
Symplectic series are products with the dense symp_character_matrix, never
the grid series of symp_fourier and inv_symp_fourier.
"""

import numpy as np

from opsis.hs_ops import hs_inner, op_translate
from opsis.phase_space import lattice_convolve, point_neg, symp_character_matrix


def annihilator(lat):
    """Points mu with sigma(mu, lam) = 0 mod L for every lam, tested over all L^2 candidates."""
    L = lat.modulus
    cand_x = np.repeat(np.arange(L), L)
    cand_w = np.tile(np.arange(L), L)
    pair = (np.outer(cand_w, lat.xs) - np.outer(cand_x, lat.ws)) % L
    keep = ~pair.any(axis=1)
    return tuple((int(x), int(w)) for x, w in zip(cand_x[keep], cand_w[keep]))


def dual_transversal(lat):
    """Lexicographically smallest member of every annihilator coset, by marking the cosets."""
    L = lat.modulus
    ann = annihilator(lat)
    seen = set()
    reps = []
    for x in range(L):
        for w in range(L):
            if (x, w) not in seen:
                reps.append((x, w))
                seen.update(((x + ax) % L, (w + aw) % L) for ax, aw in ann)
    return tuple(reps)


def symp_fourier(c, lat):
    """Phi @ c over the last axis, Phi the dense character matrix."""
    return np.asarray(c, dtype=complex) @ symp_character_matrix(lat).T


def inv_symp_fourier(F, lat):
    """Phi^* @ F / |lat| over the last axis."""
    return np.asarray(F, dtype=complex) @ symp_character_matrix(lat).conj() / lat.size


def translate_sum(coefs, kernels, lattice):
    """sum_n sum_j coefs[n, j] * translate(lattice.points[j], kernels[n])."""
    L = lattice.modulus
    out = np.zeros((L, L), dtype=complex)
    for n, S in enumerate(kernels):
        for c, p in zip(coefs[n], lattice.points):
            out += c * op_translate(p, S)
    return out


def synthesize(system, coefs):
    return translate_sum(np.asarray(coefs, dtype=complex), system.generators, system.lattice)


def reconstruct(samples, kit):
    return translate_sum(np.asarray(samples, dtype=complex), kit.recon_ops, kit.system.lattice)


def coefficient_frame_expansion(samples, kit):
    """c[n] = sum_m samples[m] * b[n, m], one lattice convolution per (n, m)."""
    lat = kit.system.lattice
    N, M = kit.b.shape[:2]
    return np.array([sum(lattice_convolve(samples[m], kit.b[n, m], lat) for m in range(M))
                     for n in range(N)])


def pairings(T, kernels, lattice):
    """out[m, j] = <T, translate(lattice.points[j], kernels[m])>."""
    return np.array([[hs_inner(T, op_translate(p, Q)) for p in lattice.points]
                     for Q in kernels])


def avg_samples(T, scheme, lattice):
    return pairings(T, scheme.average_operators(), lattice)


def diag_channel_samples(T, scheme, lattice):
    """s[m, j] = <translate(-lam_j, T) g_m, gt_m>, straight from the definition."""
    T = np.asarray(T, dtype=complex)
    L = lattice.modulus
    out = np.empty((scheme.num_channels, lattice.size), dtype=complex)
    for j, p in enumerate(lattice.points):
        Tt = op_translate(point_neg(p, L), T)
        for m, (g, gt) in enumerate(scheme.windows):
            out[m, j] = np.vdot(gt, Tt @ g)
    return out


def correlation_sequences(system):
    """r[n, n', j] = <S_n, translate(lattice.points[j], S_n')>."""
    return np.array([pairings(S, system.generators, system.lattice)
                     for S in system.generators])


def fibers(seqs, lattice):
    """Fiber matrices out[k, m, n] = sum_j seqs[m, n, j] Phi[k, j]."""
    return np.moveaxis(symp_fourier(seqs, lattice), -1, 0)


def gram_fibers(system):
    return fibers(correlation_sequences(system), system.lattice)


def coefficients(system, T):
    """Orthogonal-projection coefficients, solved fiber by fiber (no Riesz gate)."""
    lat = system.lattice
    q = pairings(T, system.generators, lat)
    qhat = symp_fourier(q, lat)
    fibers = gram_fibers(system)
    chat = np.array([np.linalg.solve(fibers[k].T, qhat[:, k]) for k in range(lat.size)]).T
    return inv_symp_fourier(chat, lat)


def fn_op_convolve(g, S):
    """sum_z g[z] translate(z, S) over the whole phase space."""
    L = S.shape[0]
    out = np.zeros((L, L), dtype=complex)
    for x in range(L):
        for w in range(L):
            out += g[x, w] * op_translate((x, w), S)
    return out
