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
the two grid-lattice maps of :mod:`opsis.phase_space`.  The folds read the
system's cached coset layout, :attr:`GeneratorSystem.spreading_cosets`: a
view of the spreading transforms when c' = 0, and on a sheared lattice one
gather, an extra N L^2 complex copy held for the life of the system.  The
Riesz fibers are the folds of F_n conj(F_n') and the analysis step of
:func:`coefficients` the fold of F_T conj(F_n), an axis inserted before
F_T's layout so that each operator of a batch meets every generator;
synthesis is sum_n tile(chat_n) F_n, one tile_product on the transforms,
as are the kit's spreading transforms and reconstruction in
:mod:`opsis.sampling`.  No product on the L x L grid and no translate is
formed, and no lattice Fourier step runs on the L x L grid.  A system
reads its generators' lattice-free :class:`~opsis.hs_ops.OperatorStack`
through the transforms alone and caches their coset layout, its Riesz
fibers and their spectrum, so :func:`riesz_check`, :func:`coefficients`
and the kit compute each once.  :func:`correlation_sequences`, the
sequences behind the fibers, is the inverse symplectic series of the
cached fibers.  The coefficients and operators of :func:`synthesize`,
:func:`synthesize_spreading` and :func:`coefficients` follow the batch
rule of :mod:`opsis.sampling`: their leading axes are batch axes.

The spectra of the fibers decide both sampling questions (the bracket
product characterisation, Bownik, JFA 2000): the Riesz bounds are the
extreme eigenvalues of the N x N Riesz fibers, and the frame bounds of
:mod:`opsis.sampling` the extreme squared singular values of the M x N
transfer fibers.  Both spectra, and the dual fibers of
:mod:`opsis.sampling`, are computed here over all fibers at once, in
closed form whenever the small dimension is at most 2
(:func:`hermitian_spectrum`, :func:`fiber_singular_values`,
:func:`fiber_left_inverse`) with LAPACK's absolute error bound, and by
LAPACK above that; the left inverse's route and pinv's cutoff PINV_RCOND
are here, and :func:`~opsis.sampling.dual_left_inverse` holds its gates.
Both stability gates, the Riesz bound of :func:`riesz_check` and that
frame bound, pass one check here: lower > tol, tol 1e-10 upper by
default, and a finite upper.
riesz_check's route="gw" stays on np.linalg.eigvalsh, an independent check.

Apart from riesz_check's gw cross-check, every job has one route here.
The dense Gram matrix of all translates, the periodized outer products
fiber by fiber and the per-translate loops are oracles, in
tests/oracle.py.

:class:`GeneratorSystem` is an :class:`~opsis.phase_space.Immutable`
record, equal only to itself; :class:`RieszReport` is an Immutable
dataclass with hand-written methods: value equality and dataclasses.replace,
and no generated code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .hs_ops import OperatorStack, fourier_wigner, inverse_fourier_wigner
from .phase_space import (
    Immutable,
    Lattice,
    _batch,
    annihilator,
    cosets,
    fold_cosets,
    inv_symp_fourier,
    stage,
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


def _fiber_columns(A):
    """The columns of fibers A[..., M, N] as X[m, n] over the leading axes, their squared norms, and e.

    X is C-ordered, so the sums over m add rows; it is a view for fibers
    moved out of an (M, N, ...) array.  Only when some squared norm leaves
    [2^-400, 2^400] is X a copy with every fiber scaled by 2^-e, e the
    binary exponent of its largest |entry|; otherwise e is None.
    """
    X = np.ascontiguousarray(A.transpose(-2, -1, *range(A.ndim - 2)))
    with np.errstate(over="ignore"):
        norms2 = _abs2(X).sum(axis=0)
    if 2.0 ** -400 <= norms2.min(initial=1.0) and norms2.max(initial=1.0) <= 2.0 ** 400:
        return X, norms2, None
    e = np.frexp(np.abs(X).max(axis=(0, 1)))[1]
    X = X.astype(np.result_type(X, float))
    for part in (X.real, X.imag) if np.iscomplexobj(X) else (X,):
        # exact, and 2^-e itself overflows for a subnormal fiber
        np.ldexp(part, -e, out=part)
    return X, _abs2(X).sum(axis=0), e


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
    neither overflow nor underflow, a batch with a squared column norm
    outside [2^-400, 2^400] is rescaled fiber by fiber, subnormal fibers
    included, and the bound holds relative to every fiber's own s_max,
    whatever else is in the batch.  A zero matrix gives zeros; a matrix
    with a NaN or inf entry gives non-finite values.
    """
    A = np.asarray(A)
    if A.shape[-1] > A.shape[-2]:
        A = np.swapaxes(A, -1, -2)
    M, N = A.shape[-2:]
    if N > 2:
        return np.linalg.svd(A, compute_uv=False)
    X, norms2, e = _fiber_columns(A)
    if N == 1:
        s = [np.sqrt(norms2[0])]
    else:
        a0, a1 = X[:, 0], X[:, 1]
        s_max = np.sqrt(_eig2(norms2[0], norms2[1], (a1 * a0.conj()).sum(axis=0))[1])
        wedge = np.sqrt(sum(_abs2(a0[i] * a1[j] - a0[j] * a1[i]) for i, j in combinations(range(M), 2)))
        # the guard divides 0 by 1 on a zero matrix only: NaN fails s_max == 0
        s = [s_max, np.minimum(wedge / np.where(s_max == 0, 1.0, s_max), s_max)]
    return np.stack(s if e is None else [np.ldexp(v, e) for v in s], axis=-1)


PINV_RCOND = 1e-10


def _clears_gate(lower: float, upper: float, tol: float | None = None) -> bool:
    """The one stability gate of both checks: lower > tol (default 1e-10 upper) and a finite upper."""
    return bool(lower > (1e-10 * upper if tol is None else tol) and math.isfinite(upper))


def fiber_left_inverse(A, s) -> np.ndarray:
    """Moore-Penrose pseudoinverses of A[..., M, N] with pinv's cutoff PINV_RCOND, shape (..., N, M).

    s holds A's descending singular values, as :func:`fiber_singular_values`
    gives them.  When N <= min(M, 2) and s_min > PINV_RCOND * s_max on every
    fiber, the cutoff removes nothing and the closed form serves, vectorised
    over the leading axes: row n is p_n^* / ||p_n||^2, p_n column n with the
    other column, if any, projected out by classical Gram-Schmidt plus one
    reorthogonalisation ("twice is enough").  So B A - I_N is a small
    multiple of eps times the condition number, as for np.linalg.pinv;
    (A^* A)^{-1} A^* would give eps times its square.  The fibers are
    rescaled as by :func:`fiber_singular_values`.  Every other shape and
    batch takes np.linalg.pinv(A, rcond=PINV_RCOND).
    """
    A = np.asarray(A)
    M, N = A.shape[-2:]
    if not (0 < N <= min(M, 2) and (s[..., -1] > PINV_RCOND * s[..., 0]).all()):
        return np.linalg.pinv(A, rcond=PINV_RCOND)
    X, norms2, e = _fiber_columns(A)
    P = X
    if N == 2:
        # column n against the other column, both projections at once
        Q = X[:, ::-1]
        Q_conj = Q.conj()
        q_norms2 = norms2[::-1]
        for _ in range(2):
            P = P - Q * ((Q_conj * P).sum(axis=0) / q_norms2)
        norms2 = _abs2(P).sum(axis=0)
    B = P.conj() / (norms2 if e is None else np.ldexp(norms2, e))
    return B.transpose(*range(2, B.ndim), 1, 0)


class GeneratorSystem(Immutable):
    """A lattice plus its generators, an :class:`~opsis.hs_ops.OperatorStack` on the lattice's modulus.

    generators may be a record, whose transforms the system shares and
    reads alone, or kernels, which it stacks into a new record.  A record
    of another modulus raises ValueError.  Immutable; equal only to itself.
    """

    lattice: Lattice
    generators: OperatorStack

    def __init__(self, lattice: Lattice, generators):
        if not isinstance(generators, OperatorStack):
            generators = OperatorStack(generators, what="generator")
        L = lattice.modulus
        if generators.spreading.shape[1:] != (L, L):
            raise ValueError(f"generator shape {generators.spreading.shape[1:]} does not match L={L}")
        self.__dict__.update(lattice=lattice, generators=generators)

    @property
    def num_generators(self) -> int:
        return len(self.generators)

    @property
    def spreading(self) -> np.ndarray:
        """Spreading transforms of the generators, shape (N, L, L), read-only: the record's."""
        return self.generators.spreading

    @stage
    def spreading_cosets(self) -> np.ndarray:
        """The spreading transforms in the lattice's coset layout, shape (N, b, Q, a, P), read-only.

        :func:`~opsis.phase_space.cosets` of :attr:`spreading`, which every
        fold over the generators reads: a view of it when c' = 0, and one
        gather, an extra N L^2 copy, on a sheared lattice.
        """
        return cosets(self.spreading, self.lattice)

    @stage
    def riesz_fibers(self) -> np.ndarray:
        """The fibers of :func:`gram_fibers`, shape (K, N, N), read-only."""
        return gram_fibers(self)

    @stage
    def riesz_spectrum(self) -> np.ndarray:
        """Ascending eigenvalues of every Riesz fiber, shape (K, N), read-only.

        By :func:`hermitian_spectrum`: in closed form for N <= 2, within a
        small multiple of eps times the fiber's largest eigenvalue, and by
        np.linalg.eigvalsh for N >= 3.
        """
        return hermitian_spectrum(self.riesz_fibers)


@dataclass(init=False, repr=False, eq=False)
class RieszReport(Immutable):
    """Outcome of a Riesz-sequence test: extreme fiber eigenvalues and verdict.

    A dataclass, for dataclasses.replace, that behaves as a frozen one: equal
    and hashed by the tuple of its fields, with the dataclass repr, and
    immutable.  Its methods are written here, so @dataclass generates none.
    """

    is_riesz: bool
    lower: float
    upper: float
    route: str
    diagnostic: str | None = None

    def __init__(self, is_riesz, lower, upper, route, diagnostic=None):
        self.__dict__.update(is_riesz=is_riesz, lower=lower, upper=upper, route=route, diagnostic=diagnostic)

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"

    def require(self) -> None:
        """Raise NotRieszError unless the translates form a Riesz sequence."""
        if not self.is_riesz:
            detail = self.diagnostic or f"lower fiber bound {self.lower:.3e}"
            raise NotRieszError(f"generator translates are not a Riesz sequence ({detail})")


def coefficient_array(system: GeneratorSystem, coefs) -> np.ndarray:
    """coefs as a complex array, checked to have shape (..., N, |lattice|); ValueError otherwise."""
    return _batch(coefs, (system.num_generators, system.lattice.size), "coefficient array")


def synthesize(system: GeneratorSystem, coefs) -> np.ndarray:
    """Sum coefs[..., n, j] * translate(lattice.points[j], S_n) over all n, j, shape (..., L, L)."""
    return inverse_fourier_wigner(synthesize_spreading(system, coefs))


def synthesize_spreading(system: GeneratorSystem, coefs) -> np.ndarray:
    """The spreading transform of :func:`synthesize`'s sum, sum_n tile(symp_fourier(coefs[..., n])) F(S_n)."""
    lat = system.lattice
    return tile_product(symp_fourier(coefficient_array(system, coefs), lat), system.spreading, lat)


def correlation_sequences(system: GeneratorSystem) -> np.ndarray:
    """r[n, n', j] = <S_n, translate(lattice.points[j], S_n')>, the inverse series of the cached Riesz fibers."""
    return inv_symp_fourier(system.riesz_fibers.transpose(1, 2, 0), system.lattice)


def gram_fibers(system: GeneratorSystem) -> np.ndarray:
    """Fiber matrices Ghat[k, n, n'] = sum_j r[n, n', j] * chi_{xi_k}(lam_j).

    One Hermitian PSD N x N matrix per dual-transversal point; their spectra,
    unioned over k, reproduce the spectrum of the dense Gram matrix.  Read
    directly as the fold of F_n conj(F_n'), without the sequences r, with
    both operands read off the system's one coset layout.
    """
    C = system.spreading_cosets
    return fold_cosets(C[:, None], C[None, :], system.lattice).transpose(2, 0, 1)


def riesz_check(system: GeneratorSystem, tol: float | None = None, route: str = "fibers") -> RieszReport:
    """Decide the Riesz property from the extreme eigenvalues over all fibers.

    Default tolerance is 1e-10 times the upper bound.  route="fibers" reads
    the system's cached Riesz spectrum (closed form for N <= 2, see
    :func:`hermitian_spectrum`).  route="gw" is the independent check: the
    outer products F_n conj(F_n') of the spreading transforms summed over
    the annihilator coset of every fiber by direct indexing, not through
    :func:`~opsis.phase_space.cosets` or the system's coset layout, scaled by
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
    if N * K > L * L:
        return RieszReport(False, 0.0, upper, route,
                           f"dimension count: N*|lattice| = {N * K} exceeds L^2 = {L * L}")
    return RieszReport(_clears_gate(lower, upper, tol), lower, upper, route)


def coefficients(system: GeneratorSystem, T, tol: float | None = None) -> np.ndarray:
    """Coefficients of the orthogonal projection of T[...] onto the generator span, shape (..., N, |lattice|).

    Analyzes T against every translate, then solves the Gram system fiber by
    fiber.  Round trip: synthesize(coefficients(T)) returns T whenever T lies
    in the span.  Raises NotRieszError when the system fails riesz_check.
    """
    riesz_check(system, tol=tol).require()
    lat = system.lattice
    qhat = fold_cosets(cosets(fourier_wigner(T), lat)[..., None, :, :, :, :], system.spreading_cosets, lat)
    # Ghat(xi)^T chat(xi) = qhat(xi), solved on every fiber of every operator at once
    chat = np.linalg.solve(np.swapaxes(system.riesz_fibers, 1, 2), np.swapaxes(qhat, -1, -2)[..., None])[..., 0]
    return inv_symp_fourier(np.swapaxes(chat, -1, -2), lat)
