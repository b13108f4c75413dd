"""Finite phase space Z_L x Z_L: lattices, annihilators, dual transversals,
symplectic Fourier series and lattice convolution.

A phase-space point is a pair (x, w) of residues mod L: x is a cyclic time
shift, w a frequency shift.  All Fourier analysis on lattices runs through
the symplectic pairing

    sigma(z, z') = z.w * z'.x - z'.w * z.x   (mod L),

whose characters lam -> exp(2 pi i sigma(lam, xi) / L) identify the group
with its own dual.  For a lattice (subgroup) the annihilator collects the
points pairing trivially with every lattice element; one canonical
representative per annihilator coset then serves as the dual group of the
lattice, and there are exactly |lattice| of them.

A lattice is fixed by its Hermite normal form (a, b, c): generators (a, c)
and (0, b) with a | L, b | L, 0 <= c < b and b | (L/a) c, and points
(k a, (k c mod b) + j b) in lexicographic order.  Lattices are built,
checked and dualized by exact integer arithmetic on this form, with no walk
over the points and no FFT: the annihilator is not the support of a grid
series but the lattice of form (L/b, L/a, c L/(a b)), and the dual
transversal is the block [0, L/b) x [0, L/a).

This module owns the grid series (:func:`lattice_series`, :func:`_series_grid`,
:func:`_pairing_grid`), 2-D FFTs on the L x L grid that :func:`symp_fourier`,
:func:`inv_symp_fourier` and :mod:`opsis.hs_ops` run on.
:func:`symp_character_matrix` and :func:`lattice_convolve` are dense
|lattice| x |lattice| references with no production caller.

Conventions relied on throughout the package:

* lattice elements and transversal points are enumerated in lexicographic
  (x-major) order, so derived arrays are byte-reproducible;
* the forward symplectic Fourier series carries no prefactor and the
  inverse carries 1/|lattice|, which keeps the convolution theorem
  prefactor-free.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd

import numpy as np

Point = tuple[int, int]


class LatticeError(ValueError):
    """Invalid lattice descriptor, out-of-range point, or mismatched operands."""


def _check_point(z, L: int) -> None:
    x, w = z
    if not (0 <= x < L and 0 <= w < L):
        raise LatticeError(f"point {tuple(z)!r} is not a residue pair mod {L}")


def symplectic_form(z: Point, zp: Point, L: int) -> int:
    """Standard symplectic form sigma(z, z') = z.w*z'.x - z'.w*z.x, reduced mod L."""
    _check_point(z, L)
    _check_point(zp, L)
    return (z[1] * zp[0] - zp[1] * z[0]) % L


def point_neg(z: Point, L: int) -> Point:
    return (-z[0]) % L, (-z[1]) % L


def point_add(z: Point, zp: Point, L: int) -> Point:
    return (z[0] + zp[0]) % L, (z[1] + zp[1]) % L


@dataclass(frozen=True)
class Lattice:
    """A subgroup of Z_L x Z_L with elements in lexicographic order.

    Construct through :func:`build_lattice`; direct construction needs the
    point tuple to be a sorted subgroup and raises LatticeError otherwise.
    """

    modulus: int
    points: tuple[Point, ...]

    def __post_init__(self):
        L = self.modulus
        if L < 2:
            raise LatticeError(f"modulus must be >= 2, got {L}")
        try:
            a, b, c = self._hnf
        except (TypeError, ValueError, IndexError, OverflowError) as e:
            raise LatticeError(f"points must be pairs of integers ({e})") from None
        pts = None if L % a or L % b or (L // a) * c % b else _hnf_points(L, a, b, c)
        if tuple(self.points) != pts:
            raise LatticeError("points are not a subgroup in lexicographic order "
                               "(not closed under subtraction, or out of range, repeated or unsorted)")
        # the same points, as a tuple of Python ints
        object.__setattr__(self, "points", pts)

    def __hash__(self):
        # equal lattices have equal normal forms; hashing the points is O(|lattice|)
        return hash((self.modulus, self._hnf))

    def __repr__(self):
        return f"Lattice(modulus={self.modulus}, size={self.size})"

    @property
    def size(self) -> int:
        return len(self.points)

    @cached_property
    def index(self) -> dict[Point, int]:
        return {p: i for i, p in enumerate(self.points)}

    @cached_property
    def xs(self) -> np.ndarray:
        return np.array([p[0] for p in self.points], dtype=int)

    @cached_property
    def ws(self) -> np.ndarray:
        return np.array([p[1] for p in self.points], dtype=int)

    @cached_property
    def _hnf(self) -> tuple[int, int, int]:
        """The normal form (a, b, c) read off the points; see the module docstring.

        a is the least x > 0, b the least w > 0 on the line x = 0, and c the
        least w on the line x = a, taken mod b; a and b are L when there is
        no such point.
        """
        L = self.modulus
        xs, ws = self.xs, self.ws
        a = int(xs[xs > 0].min(initial=L))
        b = int(ws[(xs == 0) & (ws > 0)].min(initial=L))
        c = int(ws[xs == a].min(initial=L)) % b
        return a, b, c

    @cached_property
    def _grid_index(self) -> np.ndarray:
        # dense (L, L) -> element index, -1 off the lattice
        g = np.full((self.modulus, self.modulus), -1, dtype=np.int64)
        g[self.xs, self.ws] = np.arange(self.size)
        return g

    @cached_property
    def _sub_table(self) -> np.ndarray:
        # [i, j] -> index of points[i] - points[j]
        L = self.modulus
        dx = (self.xs[:, None] - self.xs[None, :]) % L
        dw = (self.ws[:, None] - self.ws[None, :]) % L
        return self._grid_index[dx, dw]

    def __contains__(self, p) -> bool:
        return tuple(p) in self.index


def _as_int(v) -> int:
    if isinstance(v, bool) or not isinstance(v, numbers.Integral):
        raise LatticeError(f"lattice descriptor entries must be integers, got {v!r}")
    return int(v)


def _hnf_points(L: int, a: int, b: int, c: int) -> tuple[Point, ...]:
    """The points (k a, (k c mod b) + j b) of the normal form (a, b, c), lexicographically."""
    k = np.arange(L // a)[:, None]
    xs = np.broadcast_to(k * a, (L // a, L // b))
    ws = k * c % b + np.arange(0, L, b)
    return tuple(zip(xs.ravel().tolist(), ws.ravel().tolist()))


def build_lattice(descriptor, L: int) -> Lattice:
    """Build a lattice from a separable pair (a, b) or from a generator list.

    The separable pair means the subgroup aZ_L x bZ_L, which requires a | L
    and b | L; a generator list produces the subgroup it generates.
    """
    descriptor = tuple(descriptor)
    if len(descriptor) == 2 and all(isinstance(d, numbers.Integral) for d in descriptor):
        a, b = (_as_int(d) for d in descriptor)
        if a < 1 or b < 1 or L % a or L % b:
            raise LatticeError(f"separable descriptor ({a}, {b}) needs a | L and b | L with L={L}")
        return Lattice(L, _hnf_points(L, a, b, 0))
    gens = [(_as_int(x) % L, _as_int(w) % L) for x, w in descriptor]
    # Row-reduce (L, 0), (0, L) and the generators over Z: Euclid on the x
    # coordinates keeps the row (a, c) and leaves (0, w), which joins (0, b).
    a, b, c = L, L, 0
    for x, w in gens:
        while x:
            q = a // x
            a, c, x, w = x, w, a - q * x, c - q * w
        b = gcd(b, w)
    return Lattice(L, _hnf_points(L, a, b, c % b))


@lru_cache(maxsize=64)
def annihilator(lat: Lattice) -> Lattice:
    """All points pairing trivially with the lattice under the symplectic character.

    For the normal form (a, b, c) it has the normal form
    (L/b, L/a, c L/(a b)): sigma vanishes on (0, b) exactly when L/b
    divides x, and on (a, c) exactly when a w = c x mod L.  As c < b, the
    last entry is below L/a.
    """
    L = lat.modulus
    a, b, c = lat._hnf
    return Lattice(L, _hnf_points(L, L // b, L // a, (L // a) * c // b))


@lru_cache(maxsize=64)
def dual_transversal(lat: Lattice) -> tuple[Point, ...]:
    """One canonical representative per annihilator coset, in lexicographic order.

    The representative of a coset is its lexicographically smallest member;
    there are exactly |lat| of them, filling a block [0, a) x [0, b).
    """
    a, b, _ = annihilator(lat)._hnf
    return tuple((x, w) for x in range(a) for w in range(b))


def coset_transversal(lat: Lattice, sub: Lattice) -> tuple[Point, ...]:
    """Canonical representatives of the cosets of `sub` inside `lat`.

    Requires `sub` to be a subgroup of `lat` on the same modulus.  Each
    representative is the lexicographically smallest member of its coset.
    """
    if sub.modulus != lat.modulus:
        raise LatticeError("sub-lattice must share the modulus of the parent lattice")
    if not all(p in lat for p in sub.points):
        raise LatticeError("sub-lattice is not contained in the parent lattice")
    a, b, _ = sub._hnf
    return tuple((x, w) for x in range(a) for w in range(b) if (x, w) in lat)


@lru_cache(maxsize=4)
def symp_character_matrix(lat: Lattice) -> np.ndarray:
    """Matrix Phi[k, j] = exp(2 pi i sigma(lam_j, xi_k) / L) over the dual transversal.

    Row k is the character attached to transversal point xi_k, column j runs
    over the lattice elements; `Phi @ seq` is the dense reference for
    :func:`symp_fourier`.
    """
    L = lat.modulus
    tx, tw = np.array(dual_transversal(lat)).T
    s = (tx[:, None] * lat.ws[None, :] - tw[:, None] * lat.xs[None, :]) % L
    phi = np.exp(2j * np.pi * s / L)
    # shared by every caller through the cache
    phi.setflags(write=False)
    return phi


def _as_seq(c, lat: Lattice) -> np.ndarray:
    c = np.asarray(c, dtype=complex)
    if c.shape != (lat.size,):
        raise LatticeError(f"sequence shape {c.shape} does not match lattice of size {lat.size}")
    return c


def _as_seqs(c, lat: Lattice, what: str) -> np.ndarray:
    """c as a complex array whose last axis runs over |lat| points."""
    c = np.asarray(c, dtype=complex)
    if c.shape[-1:] != (lat.size,):
        raise LatticeError(f"{what} shape {c.shape} does not match lattice of size {lat.size}")
    return c


# The grid series: with lam at grid index [lam.w, lam.x], sums over the
# characters e^{+-2 pi i sigma(lam, z)/L} are 2-D DFTs, O(L^2 log L) per sequence.

def _pairing_grid(P) -> np.ndarray:
    """G[a, b] = (1/L) sum_{x, w} P[x, w] e^{-2 pi i (a x - b w)/L}."""
    return np.fft.fft(np.fft.ifft(P, axis=-1), axis=-2)


def _series_grid(E) -> np.ndarray:
    """C[x, w] = sum_{a, b} E[a, b] e^{2 pi i (a x - b w)/L}."""
    return E.shape[-1] * np.fft.fft(np.fft.ifft(E, axis=-2), axis=-1)


def lattice_series(c, lattice: Lattice) -> np.ndarray:
    """Symplectic series C[x, w] = sum_lam c(lam) e^{2 pi i sigma(lam, (x, w))/L} on the whole grid.

    The multiplier of a translate sum in the spreading domain:
    fourier_wigner(sum_lam c(lam) translate(lam, H)) = C * fourier_wigner(H).
    Leading axes of c are kept; the last one runs over the lattice points.
    """
    c = _as_seqs(c, lattice, "sequence")
    L = lattice.modulus
    E = np.zeros(c.shape[:-1] + (L, L), dtype=complex)
    E[..., lattice.ws, lattice.xs] = c
    return _series_grid(E)


def symp_fourier(c, lat: Lattice) -> np.ndarray:
    """Symplectic Fourier series of lattice sequences, on the dual transversal.

    F(xi) = sum_lam c(lam) exp(2 pi i sigma(lam, xi) / L); the value depends
    only on the annihilator coset of xi.  The last axis of c runs over the
    lattice, that of the output is aligned with :func:`dual_transversal`;
    leading axes are kept.
    """
    a, b, _ = annihilator(lat)._hnf
    C = lattice_series(c, lat)[..., :a, :b]
    return C.reshape(C.shape[:-2] + (a * b,))


def inv_symp_fourier(F, lat: Lattice) -> np.ndarray:
    """Inverse of :func:`symp_fourier`: c(lam) = (1/|lat|) sum_xi F(xi) e^{-2 pi i sigma(lam, xi)/L}.

    The last axis of F runs over the dual transversal; leading axes are kept.
    """
    F = _as_seqs(F, lat, "fiber data")
    L = lat.modulus
    a, b, _ = annihilator(lat)._hnf
    P = np.zeros(F.shape[:-1] + (L, L), dtype=complex)
    P[..., :a, :b] = F.reshape(F.shape[:-1] + (a, b))
    return _pairing_grid(P)[..., lat.ws, lat.xs] * (L / lat.size)


def lattice_convolve(c, d, lat: Lattice) -> np.ndarray:
    """Cyclic group convolution on the lattice: (c * d)(lam) = sum_mu c(mu) d(lam - mu)."""
    c = _as_seq(c, lat)
    d = _as_seq(d, lat)
    return d[lat._sub_table] @ c
