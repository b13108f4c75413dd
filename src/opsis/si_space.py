"""Lattice-shift-invariant operator subspaces: generator systems, synthesis,
Riesz-sequence verification by three routes, and coefficient recovery.

A generator system is a lattice together with operators S_1..S_N; the
subspace it spans consists of all sums

    sum_n sum_lam c_n(lam) translate(lam, S_n),

with one lattice sequence per generator.  Whether the translates form a
Riesz sequence is decided on the fibers of the dual transversal: the
correlation sequences r[n, n'](lam) = <S_n, translate(lam, S_n')> have
symplectic Fourier transforms Ghat(xi), an N x N Hermitian PSD matrix per
fiber, and the big Gram matrix of all translates is unitarily equivalent to
the direct sum of the Ghat(xi).  Two independent cross-checks are kept: the
dense Gram matrix itself, and the annihilator-periodized outer products of
the spreading transforms, which equal Ghat up to the single constant
|lattice| / L.

Production routes run in the spreading domain and on the fibers: the
Riesz fibers are the annihilator folds of F_n conj(F_n') over the
generators' cached spreading transforms, synthesis multiplies each F_n by
the tiled symplectic series of its coefficients (:func:`span_spreading`),
and the analysis step of :func:`coefficients` is the fold of F_T conj(F_n)
(see :mod:`opsis.phase_space`).  Each fold is contracted coset by coset by
:func:`~opsis.phase_space.fold_product`, so the N^2 or N products on the
L x L grid are never formed; no translate is ever formed and no lattice
Fourier step runs on the L x L grid.  A system caches its spreading
transforms, its Riesz fibers and their spectrum, so :func:`riesz_check`,
:func:`coefficients` and the reconstruction kit compute each of them once.
:func:`correlation_sequences` stays as the sequences behind the fibers.
The dense routes are oracles: :func:`brute_gram` (through
:meth:`GeneratorSystem.translate_stack`) here, and the per-translate loops
of tests/oracle.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .hs_ops import (
    fourier_wigner,
    inverse_fourier_wigner,
    lattice_pairing,
    op_translate,
)
from .phase_space import (
    Lattice,
    Point,
    annihilator,
    dual_transversal,
    fold_product,
    inv_symp_fourier,
    symp_fourier,
    tile,
)


class NotRieszError(RuntimeError):
    """The generator translates do not form a Riesz sequence."""


@dataclass(frozen=True, eq=False)
class GeneratorSystem:
    """A lattice plus an ordered tuple of generator kernels."""

    lattice: Lattice
    generators: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not self.generators:
            raise ValueError("at least one generator is required")
        gens = tuple(np.asarray(S, dtype=complex) for S in self.generators)
        object.__setattr__(self, "generators", gens)
        L = self.lattice.modulus
        for S in gens:
            if S.shape != (L, L):
                raise ValueError(f"generator shape {S.shape} does not match L={L}")

    @property
    def num_generators(self) -> int:
        return len(self.generators)

    @cached_property
    def spreading(self) -> np.ndarray:
        """Spreading transforms of the generators, shape (N, L, L), read-only."""
        F = fourier_wigner(np.array(self.generators))
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
        """Ascending eigenvalues of every Riesz fiber, shape (K, N), read-only."""
        eigs = np.linalg.eigvalsh(self.riesz_fibers)
        eigs.setflags(write=False)
        return eigs

    def translate_stack(self) -> np.ndarray:
        """All translates as rows, shape (N * |lattice|, L^2), (n, lam) n-major."""
        L = self.lattice.modulus
        rows = [
            op_translate(p, S).reshape(L * L)
            for S in self.generators
            for p in self.lattice.points
        ]
        return np.array(rows)


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


def synthesize(system: GeneratorSystem, coefs) -> np.ndarray:
    """Sum coefs[n, j] * translate(lattice.points[j], S_n) over all n, j."""
    coefs = np.asarray(coefs, dtype=complex)
    want = (system.num_generators, system.lattice.size)
    if coefs.shape != want:
        raise ValueError(f"coefficient array shape {coefs.shape}, expected {want}")
    return inverse_fourier_wigner(span_spreading(system, symp_fourier(coefs, system.lattice)))


def span_spreading(system: GeneratorSystem, chat) -> np.ndarray:
    """Spreading transform of the span element with fiber data chat, shape (..., N, K) -> (..., L, L).

    chat[..., n, :] = symp_fourier(c_n) gives
    F(sum_n sum_lam c_n(lam) translate(lam, S_n)) = sum_n tile(chat_n) F(S_n).
    """
    return (tile(chat, system.lattice) * system.spreading).sum(axis=-3)


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
    return np.moveaxis(fold_product(F[:, None], F[None, :], system.lattice), -1, 0)


def brute_gram(system: GeneratorSystem):
    """Dense Gram matrix of all translates plus its extreme eigenvalues.

    Independent oracle for the fiber route; refuses above 4096 vectors.
    """
    N, K = system.num_generators, system.lattice.size
    if N * K > 4096:
        raise ValueError(f"brute_gram limited to 4096 vectors, got {N * K}")
    V = system.translate_stack()
    G = V @ V.conj().T
    eigs = np.linalg.eigvalsh(G)
    return G, float(eigs[0]), float(eigs[-1])


def gw_matrix(system: GeneratorSystem, xi: Point) -> np.ndarray:
    """Annihilator-periodized outer product of the spreading transforms at xi.

    G[n, n'] = sum over annihilator points of
    F_n(xi + a) conj(F_n'(xi + a)) with F_n the raw spreading transform of
    S_n.  Equals gram_fibers at the same fiber up to the constant
    |lattice| / L; constant on annihilator cosets by construction.
    """
    L = system.lattice.modulus
    ann = annihilator(system.lattice)
    W = system.spreading[:, (xi[0] + ann.xs) % L, (xi[1] + ann.ws) % L]
    return W @ W.conj().T


def gw_fibers(system: GeneratorSystem) -> np.ndarray:
    """gw_matrix evaluated on the whole dual transversal, shape (K, N, N)."""
    return np.array([gw_matrix(system, xi) for xi in dual_transversal(system.lattice)])


def riesz_check(system: GeneratorSystem, tol: float | None = None, route: str = "fibers") -> RieszReport:
    """Decide the Riesz property from the extreme eigenvalues over all fibers.

    Default tolerance is 1e-10 times the upper bound.  route="fibers" reads
    the system's cached Riesz spectrum.  route="gw" uses the periodized
    spreading transforms scaled by |lattice| / L instead of the correlation
    fibers; both agree to rounding.
    """
    L = system.lattice.modulus
    N, K = system.num_generators, system.lattice.size
    if route == "fibers":
        eigs = system.riesz_spectrum
    elif route == "gw":
        eigs = np.linalg.eigvalsh(gw_fibers(system) * (K / L))
    else:
        raise ValueError(f"unknown route {route!r}")
    # fibers are PSD; tiny negative eigenvalues are rounding noise
    lower = max(float(eigs[:, 0].min()), 0.0)
    upper = float(eigs[:, -1].max())
    if tol is None:
        tol = 1e-10 * upper
    if N * K > L * L:
        return RieszReport(False, 0.0, upper, route,
                           f"dimension count: N*|lattice| = {N * K} exceeds L^2 = {L * L}")
    return RieszReport(bool(lower > tol), lower, upper, route)


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
