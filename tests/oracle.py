"""Kernel-domain oracles: the direct per-translate sums that the
spreading-domain engine replaces, the dense Gram matrix of all translates
and the per-fiber periodized outer products that the Riesz fibers and
riesz_check(route="gw") replace, the gather convolution and the
per-channel lattice convolutions that the convolution theorem and the
fiberwise coefficient expansion replace, the closure walk, the
annihilator read off the character sums of the enumerated points (one
2-D FFT of the lattice's indicator), the dual transversal as the minimum
of every annihilator coset, and point-set membership and coset marking,
which the Hermite normal form replaces, the L x L grid series, the coset sums and the tiles
on the grid that the lattice-size transforms and the one coset layout of
fold_cosets and tile_product replace, the
per-value SplitMix64/Box-Muller loop that the blocked uint64 draw of
PortableRng.complex_normal replaces (seeding contract v2, transcribed
value by value in Python floats with math.frexp, math.floor and
math.sqrt), and the index-gather spreading transforms, with 2-D fancy
indices built on every call, that one take by the flat diagonal index
cached in opsis.phase_space replaces.

The operator oracles form each translate as a dense L x L kernel with
op_translate and sum or pair in the kernel domain, O(|lattice| L^2) per
operator.  None of them calls a spreading transform, so they stay
independent of the engine and of the periodized ("gw") Riesz route, which
share that transform; the periodized oracle itself reads the index-gather
transform below.  Symplectic series are products with the dense
symp_character_matrix, or 2-D FFTs on the L x L grid, never the
transforms of opsis.phase_space.  Point sets are tuples and dicts of the
enumerated points, never the normal-form arithmetic of Lattice.locate.
"""

import math
from fractions import Fraction

import numpy as np

from opsis.hs_ops import hs_inner, op_translate
from opsis.phase_space import symp_character_matrix
from opsis.timefreq import point_add, point_neg


def closure(generators, L):
    """The subgroup generated by the points, walked point by point, sorted."""
    gens = [(x % L, w % L) for x, w in generators]
    points = {(0, 0)}
    frontier = [(0, 0)]
    while frontier:
        p = frontier.pop()
        for g in gens:
            q = point_add(p, g, L)
            if q not in points:
                points.add(q)
                frontier.append(q)
    return tuple(sorted(points))


def annihilator(lat):
    """Points mu with sigma(mu, lam) = 0 mod L for every lam, sorted.

    Those where the character sum sum_lam e^{2 pi i sigma(lam, mu)/L} over the
    enumerated points reaches |lat|; elsewhere the character is not trivial
    on the lattice, and the sum vanishes.  The sums at every grid point are
    one 2-D FFT of the lattice's indicator (lattice_series).
    """
    x, w = np.nonzero(lattice_series(np.ones(lat.size), lat).real > lat.size / 2)
    return tuple(zip(x.tolist(), w.tolist()))


def dual_transversal(lat):
    """Lexicographically smallest member of every annihilator coset, sorted.

    The grid points z that are the minimum, in x-major flat index, of z + alpha
    over every annihilator point alpha: one (L^2, |annihilator|) table.
    """
    L = lat.modulus
    ann = np.array(annihilator(lat))
    x, w = np.divmod(np.arange(L * L), L)
    coset = (x[:, None] + ann[:, 0]) % L * L + (w[:, None] + ann[:, 1]) % L
    keep = coset.min(axis=1) == np.arange(L * L)
    return tuple(zip(x[keep].tolist(), w[keep].tolist()))


def coset_transversal(lat, sub):
    """Lexicographically smallest point of every coset of sub in lat, by marking the cosets."""
    L = lat.modulus
    seen = set()
    reps = []
    for p in lat.points:
        if p not in seen:
            reps.append(p)
            seen.update(point_add(p, q, L) for q in sub.points)
    return tuple(reps)


def inflate_coefficients(system, sub, coefs):
    """c'[n, i](mu) = c[n](lam_i + mu), each point looked up in the dict of the enumerated points."""
    lat = system.lattice
    index = {p: i for i, p in enumerate(lat.points)}
    rows = [[index[point_add(rep, mu, lat.modulus)] for mu in sub.points]
            for rep in coset_transversal(lat, sub)]
    return np.asarray(coefs, dtype=complex)[:, rows].reshape(-1, sub.size)


def symp_fourier(c, lat):
    """Phi @ c over the last axis, Phi the dense character matrix."""
    return np.asarray(c, dtype=complex) @ symp_character_matrix(lat).T


def inv_symp_fourier(F, lat):
    """Phi^* @ F / |lat| over the last axis."""
    return np.asarray(F, dtype=complex) @ symp_character_matrix(lat).conj() / lat.size


def lattice_convolve(c, d, lat):
    """(c * d)(lam) = sum_mu c(mu) d(lam - mu), d gathered at every difference of two points."""
    L = lat.modulus
    grid = np.full((L, L), -1)
    grid[lat.xs, lat.ws] = np.arange(lat.size)
    table = grid[(lat.xs[:, None] - lat.xs) % L, (lat.ws[:, None] - lat.ws) % L]
    return np.asarray(d, dtype=complex)[table] @ np.asarray(c, dtype=complex)


# The grid series: with lam at grid index [lam.w, lam.x], sums over the
# characters e^{+-2 pi i sigma(lam, z)/L} are 2-D DFTs, O(L^2 log L) per sequence.

def pairing_grid(P):
    """G[a, b] = (1/L) sum_{x, w} P[x, w] e^{-2 pi i (a x - b w)/L}."""
    return np.fft.fft(np.fft.ifft(P, axis=-1), axis=-2)


def series_grid(E):
    """C[x, w] = sum_{a, b} E[a, b] e^{2 pi i (a x - b w)/L}."""
    return E.shape[-1] * np.fft.fft(np.fft.ifft(E, axis=-2), axis=-1)


def lattice_series(c, lat):
    """C[x, w] = sum_lam c(lam) e^{2 pi i sigma(lam, (x, w))/L}: c placed on the grid, one 2-D FFT."""
    c = np.asarray(c, dtype=complex)
    L = lat.modulus
    E = np.zeros(c.shape[:-1] + (L, L), dtype=complex)
    E[..., lat.ws, lat.xs] = c
    return series_grid(E)


def lattice_inverse_series(F, lat):
    """c(lam) = (1/|lat|) sum_xi F(xi) e^{-2 pi i sigma(lam, xi)/L}: F tiled over the grid, one 2-D FFT.

    Each xi stands for its annihilator coset of L^2/|lat| grid points, so
    the grid sum is L times the series.
    """
    return pairing_grid(tile(F, lat))[..., lat.ws, lat.xs] / lat.modulus


def lattice_pairing(FT, FQ, lat):
    """(1/L) sum_z F_T(z) conj(F_Q(z)) e^{-2 pi i sigma(lam, z)/L}, read off one 2-D FFT."""
    return pairing_grid(np.asarray(FT) * np.conj(FQ))[..., lat.ws, lat.xs]


def fold(G, lat):
    """(|lat|/L) sum over the annihilator coset of every transversal point, from the exhaustive duality."""
    L = lat.modulus
    ann = np.array(annihilator(lat))
    xi = np.array(dual_transversal(lat))
    x = (xi[:, None, 0] + ann[None, :, 0]) % L
    w = (xi[:, None, 1] + ann[None, :, 1]) % L
    return np.asarray(G)[..., x, w].sum(axis=-1) * (lat.size / L)


def tile(F, lat):
    """out[z] = F[k] for every z in the annihilator coset of the k-th transversal point."""
    L = lat.modulus
    F = np.asarray(F)
    ann = annihilator(lat)
    out = np.empty(F.shape[:-1] + (L, L), dtype=F.dtype)
    for k, (x, w) in enumerate(dual_transversal(lat)):
        for ax, aw in ann:
            out[..., (x + ax) % L, (w + aw) % L] = F[..., k]
    return out


def fourier_wigner(S):
    """F[..., x, w]: the FFT of the cyclic diagonals D[x, t] = S[t + x, t], gathered by index arrays."""
    S = np.asarray(S, dtype=complex)
    L = S.shape[-1]
    t = np.arange(L)
    return np.fft.fft(S[..., (t[:, None] + t) % L, t], axis=-1)


def inverse_fourier_wigner(F):
    """kernel[..., r, t] = D[r - t, t] with D = ifft(F) along w, gathered by index arrays."""
    F = np.asarray(F, dtype=complex)
    L = F.shape[-1]
    t = np.arange(L)
    return np.fft.ifft(F, axis=-1)[..., (t[:, None] - t) % L, t]


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
    return pairings(T, scheme, lattice)


def diag_channel_samples(T, scheme, lattice):
    """s[m, j] = <translate(-lam_j, T) g_m, gt_m>, straight from the definition."""
    T = np.asarray(T, dtype=complex)
    L = lattice.modulus
    out = np.empty((len(scheme), lattice.size), dtype=complex)
    for j, p in enumerate(lattice.points):
        Tt = op_translate(point_neg(p, L), T)
        for m, (g, gt) in enumerate(scheme.windows):
            out[m, j] = np.vdot(gt, Tt @ g)
    return out


def translate_stack(system):
    """All translates as rows, shape (N |lattice|, L^2), (n, lam) n-major."""
    L = system.lattice.modulus
    return np.array([op_translate(p, S).reshape(L * L)
                     for S in system.generators for p in system.lattice.points])


def brute_gram(system):
    """Dense Gram matrix of all translates plus its extreme eigenvalues; refuses above 4096 vectors."""
    N, K = system.num_generators, system.lattice.size
    if N * K > 4096:
        raise ValueError(f"brute_gram limited to 4096 vectors, got {N * K}")
    V = translate_stack(system)
    G = V @ V.conj().T
    eigs = np.linalg.eigvalsh(G)
    return G, float(eigs[0]), float(eigs[-1])


def gw_matrix(system, xi):
    """G[n, n'] = sum over annihilator points a of F_n(xi + a) conj(F_n'(xi + a)).

    F_n is the raw spreading transform of S_n, here the index-gather one.
    Equals gram_fibers at the fiber of xi up to the constant |lattice| / L.
    """
    L = system.lattice.modulus
    ann = np.array(annihilator(system.lattice))
    W = fourier_wigner(system.generators)[:, (xi[0] + ann[:, 0]) % L, (xi[1] + ann[:, 1]) % L]
    return W @ W.conj().T


def gw_fibers(system):
    """gw_matrix at every point of the dual transversal, shape (K, N, N)."""
    return np.array([gw_matrix(system, xi) for xi in dual_transversal(system.lattice)])


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


# Seeding contract v2, derived here from its definitions rather than read
# from opsis.config: pi and ln 2 to 50 digits, and every coefficient the
# correctly rounded float of an exact rational (float(Fraction) rounds to
# nearest), so a wrong hex digit in the production tables shows as a
# mismatch.
PI = Fraction("3.14159265358979323846264338327950288419716939937510")
LN2 = Fraction("0.69314718055994530941723212145817656807550013436025")
LN2_HI = math.floor(LN2 * 2**32) / 2**32
LN2_LO = float(LN2 - Fraction(LN2_HI))
SQRT_HALF = math.sqrt(0.5)
ATANH = [float(Fraction(2, 2 * k + 1)) for k in range(10)]
SIN = [float((-1) ** k * (2 * PI) ** (2 * k + 1) / math.factorial(2 * k + 1)) for k in range(9)]
COS = [float((-1) ** k * (2 * PI) ** (2 * k) / math.factorial(2 * k)) for k in range(9)]


def horner(coefs, x):
    """sum coefs[k] x^k by Horner's rule, from the highest order down."""
    p = coefs[-1]
    for c in reversed(coefs[:-1]):
        p = p * x + c
    return p


def box_muller(b1, b2):
    """The complex normal of the 53-bit integers b1 = out1 >> 11 and b2 = out2 >> 11, in Python floats."""
    u1 = (b1 + 1) * 2.0 ** -53
    u2 = b2 * 2.0 ** -53
    m, e = math.frexp(u1)
    if m < SQRT_HALF:
        m, e = 2 * m, e - 1
    k = float(-e)
    s = (m - 1) / (m + 1)
    r = math.sqrt(k * LN2_HI + (k * LN2_LO - s * horner(ATANH, s * s)))
    j = math.floor(4 * u2 + 0.5)
    f = u2 - j / 4
    c, s = horner(COS, f * f), f * horner(SIN, f * f)
    re, im = [(c, s), (-s, c), (-c, -s), (s, -c)][j % 4]
    return complex(r * re, r * im)


def portable_complex_normal(rng, shape):
    """Complex standard normals drawn one value, two next_u64 calls, at a time from rng."""
    n = int(np.prod(shape))
    out = np.empty(n, dtype=complex)
    for i in range(n):
        b1 = rng.next_u64() >> 11
        out[i] = box_muller(b1, rng.next_u64() >> 11)
    return out.reshape(shape)
