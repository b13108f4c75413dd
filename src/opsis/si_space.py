"""Lattice-shift-invariant operator subspaces: generator systems, synthesis,
Riesz-sequence verification by two routes, and coefficient recovery.

A generator system is a lattice together with operators S_1..S_N; the
subspace it spans consists of all sums

    sum_n sum_lam c_n(lam) translate(lam, S_n),

with one lattice sequence per generator.  Whether the translates form a
Riesz sequence is decided on the fibers of the dual transversal: the
correlation sequences r[n, n'](lam) = <S_n, translate(lam, S_n')> have
symplectic Fourier transforms Ghat(xi), an N x N Hermitian PSD matrix per
fiber, and the big Gram matrix of all translates is unitarily equivalent to
the direct sum of the Ghat(xi).  The annihilator-periodized outer products
of the spreading transforms equal Ghat up to the single constant
|lattice| / L; riesz_check(route="gw") reads them by direct indexing, as a
cross-check of the fibers that shares only the spreading transforms.

Production routes run in the spreading domain and on the fibers, through
the two grid-lattice maps of :mod:`opsis.phase_space`.  The Riesz fibers
are the annihilator folds of F_n conj(F_n') over the generators' cached
spreading transforms, and the analysis step of :func:`coefficients` is the
fold of F_T conj(F_n); each fold is contracted coset by coset by
:func:`~opsis.phase_space.fold_product`.  Synthesis multiplies each F_n by
the tiled symplectic series of its coefficients and sums over n,
sum_n tile(chat_n) F_n, block by block in
:func:`~opsis.phase_space.tile_product`.  So the N^2 or N products on the
L x L grid are never formed; no translate is ever formed and no lattice
Fourier step runs on the L x L grid.  A system caches its spreading
transforms, its Riesz fibers and their spectrum, so :func:`riesz_check`,
:func:`coefficients` and the reconstruction kit compute each of them once.
:func:`correlation_sequences` stays as the sequences behind the fibers.

The spectra of the fibers decide both sampling questions (the bracket
product characterisation, Bownik, JFA 2000): the Riesz bounds are the
extreme eigenvalues of the N x N Riesz fibers, and the frame bounds of
:mod:`opsis.sampling` the extreme squared singular values of the M x N
transfer fibers.  Both spectra are computed here, vectorised over all
fibers at once, in closed form whenever the small dimension is at most 2
(:func:`hermitian_spectrum`, :func:`fiber_singular_values`), and by LAPACK
above that.  The closed forms have LAPACK's absolute error bound, a small
multiple of eps times the fiber's largest value; the smaller singular
value of an M x 2 fiber is read off the 2 x 2 minors of its columns, not
off det(A^* A), so an s_min of 1e-12 s_max stays resolvable.  A fiber with
a NaN or inf entry never gives a finite pair of bounds.  riesz_check's
route="gw" stays on np.linalg.eigvalsh, as an independent check.  The dual
fibers of :mod:`opsis.sampling`, the left inverses of the transfer fibers,
come from :func:`fiber_left_inverse` in the same closed form when N <= 2:
each row is a column with the other projected out, divided by its squared
norm.

Apart from riesz_check's gw cross-check, every job has one route here.
The dense Gram matrix of all translates, the periodized outer products
fiber by fiber and the per-translate loops are oracles, in
tests/oracle.py.

:class:`GeneratorSystem` is a plain immutable class on
:class:`~opsis.phase_space.Immutable`, equal only to itself, and not a
frozen dataclass, whose generated methods are exec'd on every import.
:class:`RieszReport` stays a frozen dataclass, with value equality and
dataclasses.replace, for callers that build amended reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .hs_ops import (
    fourier_wigner,
    inverse_fourier_wigner,
    kernel_stack,
    lattice_pairing,
)
from .phase_space import (
    Immutable,
    Lattice,
    annihilator,
    fold_product,
    inv_symp_fourier,
    symp_fourier,
    tile_product,
)


class NotRieszError(RuntimeError):
    """The generator translates do not form a Riesz sequence."""


def _abs2(z):
    return z.real ** 2 + z.imag ** 2


def _eig2(a, d, b):
    """Lower and upper eigenvalue of the Hermitian [[a, conj(b)], [b, d]], a and d real."""
    m = (a + d) / 2
    r = np.hypot((a - d) / 2, np.abs(b))
    return m - r, m + r


def hermitian_spectrum(G) -> np.ndarray:
    """Ascending eigenvalues of Hermitian matrices G[..., N, N], shape (..., N).

    In closed form, vectorised over the leading axes, for N <= 2: the real
    diagonal for N = 1, and m -+ hypot((a - d)/2, |b|) with m = (a + d)/2
    for [[a, conj(b)], [b, d]].  np.linalg.eigvalsh serves N >= 3.  Only
    the lower triangle and the real part of the diagonal are read, as by
    eigvalsh.  The absolute error is a small multiple of eps times the
    largest |eigenvalue|, LAPACK's bound.  A NaN or inf among the entries
    read gives a non-finite lowest eigenvalue.
    """
    G = np.asarray(G)
    N = G.shape[-1]
    if N == 1:
        return G[..., 0].real.astype(float)
    if N == 2:
        return np.stack(_eig2(G[..., 0, 0].real, G[..., 1, 1].real, G[..., 1, 0]), axis=-1)
    return np.linalg.eigvalsh(G)


def fiber_singular_values(A) -> np.ndarray:
    """Descending singular values of matrices A[..., M, N], shape (..., min(M, N)).

    In closed form, vectorised over the leading axes, when min(M, N) <= 2;
    A is transposed first so that N <= M.  For N = 1 it is the column norm.
    For N = 2, s_max = sqrt(lambda_max) of the 2 x 2 Gram matrix A^* A by
    the formula of :func:`hermitian_spectrum`, and s_min = ||a_0 ^ a_1|| /
    s_max, the wedge norm summed over the M(M-1)/2 minors
    a_0[i] a_1[j] - a_0[j] a_1[i] of the columns.  The minors carry an
    absolute error of eps s_max^2, where det(A^* A) would carry
    eps s_max^4, so both values are within a small multiple of eps s_max,
    LAPACK's bound, and an s_min of 1e-12 s_max stays resolvable.
    np.linalg.svd serves min(M, N) >= 3.  So that the squared minors
    neither overflow nor underflow, a finite batch whose largest squared
    column norm leaves [2^-400, 2^400] is first rescaled by a power of two.
    Relative to the batch's largest value the bound then holds throughout;
    only a matrix more than 2^60 below it can lose relative precision to
    underflow.  A zero matrix gives zeros; a matrix with a NaN or inf entry
    gives non-finite values.
    """
    A = np.asarray(A)
    if A.shape[-1] > A.shape[-2]:
        A = np.swapaxes(A, -1, -2)
    M, N = A.shape[-2:]
    if N > 2:
        return np.linalg.svd(A, compute_uv=False)
    # X[m, n] is entry (m, n) over the leading axes: contiguous rows for
    # fibers moved out of an (M, N, K) array
    X = A.transpose(-2, -1, *range(A.ndim - 2))
    with np.errstate(over="ignore"):
        norms2 = _abs2(X).sum(axis=0)
    top = norms2.max(initial=0.0)
    if not 2.0 ** -400 <= top <= 2.0 ** 400 and 0 < (big := np.abs(A).max()) < np.inf:
        scale = np.ldexp(1.0, np.frexp(big)[1])
        return fiber_singular_values(A / scale) * scale
    if N == 1:
        return np.sqrt(norms2[0])[..., None]
    a0, a1 = X[:, 0], X[:, 1]
    s_max = np.sqrt(_eig2(norms2[0], norms2[1], (a1 * a0.conj()).sum(axis=0))[1])
    wedge = np.sqrt(sum(_abs2(a0[i] * a1[j] - a0[j] * a1[i]) for i, j in combinations(range(M), 2)))
    # the guard divides 0 by 1 on a zero matrix only: NaN fails s_max == 0
    s_min = np.minimum(wedge / np.where(s_max == 0, 1.0, s_max), s_max)
    return np.stack([s_max, s_min], axis=-1)


def fiber_left_inverse(A) -> np.ndarray:
    """Moore-Penrose pseudoinverses of full-column-rank A[..., M, N], N <= min(M, 2), shape (..., N, M).

    In closed form, vectorised over the leading axes.  Row n of the
    pseudoinverse is p_n^* / ||p_n||^2, where p_n is column n with the other
    column projected out: classical Gram-Schmidt plus one
    reorthogonalisation, so p_n is orthogonal to it to rounding ("twice is
    enough").  For N = 1, p_0 is the column itself.  The residual
    B A - I_N is then a small multiple of eps times the condition number,
    as for np.linalg.pinv; (A^* A)^{-1} A^* would give eps times its
    square.  So that the squared norms neither overflow nor underflow, a
    batch with a squared column norm outside [2^-400, 2^400] is first
    rescaled fiber by fiber by a power of two.  The caller decides the
    rank: a fiber with dependent columns gives non-finite rows.
    """
    A = np.asarray(A)
    M, N = A.shape[-2:]
    if not 1 <= N <= min(M, 2):
        raise ValueError(f"closed-form left inverse needs 1 <= N <= min(M, 2), got M={M}, N={N}")
    # X[m, n] is entry (m, n) over the leading axes, contiguous: the sums
    # over m add rows instead of reducing a short strided axis
    X = np.ascontiguousarray(A.transpose(-2, -1, *range(A.ndim - 2)))
    with np.errstate(over="ignore"):
        norms2 = _abs2(X).sum(axis=0)
    scale = 1.0
    if not (2.0 ** -400 <= norms2.min(initial=1.0) and norms2.max(initial=1.0) <= 2.0 ** 400):
        scale = np.ldexp(1.0, np.frexp(np.abs(A).max(axis=(-2, -1)))[1])
        X = X / scale
        norms2 = _abs2(X).sum(axis=0)
    P = X
    if N == 2:
        # column n against the other column, both projections at once
        Q = X[:, ::-1]
        Q_conj = Q.conj()
        q_norms2 = norms2[::-1]
        for _ in range(2):
            P = P - Q * ((Q_conj * P).sum(axis=0) / q_norms2)
        norms2 = _abs2(P).sum(axis=0)
    B = P.conj() / (norms2 * scale)
    return B.transpose(*range(2, B.ndim), 1, 0)


class GeneratorSystem(Immutable):
    """A lattice plus an ordered tuple of generator kernels.

    Immutable; equal only to itself.  The generators are read-only views of
    one stacked copy taken at construction, so changing the caller's arrays
    afterwards changes neither them nor any cached stage.
    """

    lattice: Lattice
    generators: tuple[np.ndarray, ...]

    def __init__(self, lattice: Lattice, generators):
        stack = kernel_stack(generators, "generator", lattice.modulus)
        self.__dict__.update(lattice=lattice, generators=tuple(stack), _stack=stack)

    @property
    def num_generators(self) -> int:
        return len(self.generators)

    @cached_property
    def spreading(self) -> np.ndarray:
        """Spreading transforms of the generators, shape (N, L, L), read-only."""
        F = fourier_wigner(self._stack)
        F.setflags(write=False)
        return F

    @cached_property
    def riesz_fibers(self) -> np.ndarray:
        """The fibers of :func:`gram_fibers`, shape (K, N, N), read-only."""
        G = gram_fibers(self)
        G.setflags(write=False)
        return G

    @cached_property
    def riesz_spectrum(self) -> np.ndarray:
        """Ascending eigenvalues of every Riesz fiber, shape (K, N), read-only.

        By :func:`hermitian_spectrum`: in closed form for N <= 2, within a
        small multiple of eps times the fiber's largest eigenvalue, and by
        np.linalg.eigvalsh for N >= 3.
        """
        eigs = hermitian_spectrum(self.riesz_fibers)
        eigs.setflags(write=False)
        return eigs

@dataclass(frozen=True)
class RieszReport:
    """Outcome of a Riesz-sequence test: extreme fiber eigenvalues and verdict."""

    is_riesz: bool
    lower: float
    upper: float
    route: str
    diagnostic: str | None = None

    def require(self) -> None:
        """Raise NotRieszError unless the translates form a Riesz sequence."""
        if not self.is_riesz:
            detail = self.diagnostic or f"lower fiber bound {self.lower:.3e}"
            raise NotRieszError(f"generator translates are not a Riesz sequence ({detail})")


def coefficient_array(system: GeneratorSystem, coefs) -> np.ndarray:
    """coefs as a complex array, checked to have shape (N, |lattice|); ValueError otherwise."""
    coefs = np.asarray(coefs, dtype=complex)
    want = (system.num_generators, system.lattice.size)
    if coefs.shape != want:
        raise ValueError(f"coefficient array shape {coefs.shape}, expected {want}")
    return coefs


def synthesize(system: GeneratorSystem, coefs) -> np.ndarray:
    """Sum coefs[n, j] * translate(lattice.points[j], S_n) over all n, j."""
    coefs = coefficient_array(system, coefs)
    lat = system.lattice
    return inverse_fourier_wigner(tile_product(symp_fourier(coefs, lat), system.spreading, lat))


def correlation_sequences(system: GeneratorSystem) -> np.ndarray:
    """r[n, n', j] = <S_n, translate(lattice.points[j], S_n')>."""
    F = system.spreading
    return lattice_pairing(F[:, None], F[None, :], system.lattice)


def gram_fibers(system: GeneratorSystem) -> np.ndarray:
    """Fiber matrices Ghat[k, n, n'] = sum_j r[n, n', j] * chi_{xi_k}(lam_j).

    One Hermitian PSD N x N matrix per dual-transversal point; their spectra,
    unioned over k, reproduce the spectrum of the dense Gram matrix.  Read
    directly as the fold of F_n conj(F_n'), without the sequences r.
    """
    F = system.spreading
    return fold_product(F[:, None], F[None, :], system.lattice).transpose(2, 0, 1)


def riesz_check(system: GeneratorSystem, tol: float | None = None, route: str = "fibers") -> RieszReport:
    """Decide the Riesz property from the extreme eigenvalues over all fibers.

    Default tolerance is 1e-10 times the upper bound.  route="fibers" reads
    the system's cached Riesz spectrum (closed form for N <= 2, see
    :func:`hermitian_spectrum`).  route="gw" is the independent check: the
    outer products F_n conj(F_n') of the spreading transforms summed over
    the annihilator coset of every fiber by direct indexing, not through
    :func:`~opsis.phase_space.cosets` or fold_product, scaled by
    |lattice| / L, with np.linalg.eigvalsh for every N; both agree to
    rounding.  A NaN or inf fiber leaves a non-finite bound and fails the
    check.
    """
    L = system.lattice.modulus
    N, K = system.num_generators, system.lattice.size
    if route == "fibers":
        eigs = system.riesz_spectrum
    elif route == "gw":
        # (x, w) runs over the dual transversal, the block [0, Q) x [0, P)
        ann = annihilator(system.lattice)
        x, w = np.divmod(np.arange(K), L // system.lattice._hnf[0])
        V = system.spreading[:, (x[:, None] + ann.xs) % L, (w[:, None] + ann.ws) % L]
        eigs = np.linalg.eigvalsh(np.einsum("nka,mka->knm", V, V.conj()) * (K / L))
    else:
        raise ValueError(f"unknown route {route!r}")
    lower = float(eigs[:, 0].min())
    upper = float(eigs[:, -1].max())
    # fibers are PSD, so tiny negative eigenvalues are rounding noise; a
    # non-finite bound from a NaN or inf fiber stays non-finite
    if math.isfinite(lower):
        lower = max(lower, 0.0)
    if tol is None:
        tol = 1e-10 * upper
    if N * K > L * L:
        return RieszReport(False, 0.0, upper, route,
                           f"dimension count: N*|lattice| = {N * K} exceeds L^2 = {L * L}")
    return RieszReport(bool(lower > tol and math.isfinite(upper)), lower, upper, route)


def coefficients(system: GeneratorSystem, T, tol: float | None = None) -> np.ndarray:
    """Coefficients of the orthogonal projection of T onto the generator span.

    Analyzes T against every translate, then solves the Gram system fiber by
    fiber.  Round trip: synthesize(coefficients(T)) returns T whenever T lies
    in the span.  Raises NotRieszError when the system fails riesz_check.
    """
    riesz_check(system, tol=tol).require()
    lat = system.lattice
    qhat = fold_product(fourier_wigner(T), system.spreading, lat)
    # Ghat(xi)^T chat(xi) = qhat(xi), solved on every fiber at once
    chat = np.linalg.solve(np.swapaxes(system.riesz_fibers, 1, 2), qhat.T[..., None])[..., 0]
    return inv_symp_fourier(chat.T, lat)
