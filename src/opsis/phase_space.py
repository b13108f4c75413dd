"""Finite phase space Z_L x Z_L: lattices, annihilators, dual transversals,
symplectic Fourier series, the annihilator fold and tile, and lattice
convolution.

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
(k a, (k c mod b) + j b) in lexicographic order, point (k, j) at index
k Q + j with P = L/a and Q = L/b.  Lattices are built, checked and dualized
by exact integer arithmetic on this form, with no walk over the points and
no FFT: the annihilator is the lattice of form (Q, P, c L/(a b)), and the
dual transversal is the block [0, Q) x [0, P).

The Fourier analysis of a lattice runs on the lattice's own size K = P Q.
With xi = (x, w) in the transversal, sigma(lam, xi)/L splits as
j x/Q + (k c mod b) x/L - k w/P, so :func:`symp_fourier` is a length-Q FFT
over j, a twiddle e^{2 pi i (k c mod b) x/L} and a length-P FFT over k, and
:func:`inv_symp_fourier` runs the same steps backwards: O(K log K) each.
Functions on the L x L grid meet the lattice through two maps (Poisson
summation over the annihilator):

* :func:`fold` sums a grid function over every annihilator coset,
  fold(G)(xi) = (|lat|/L) sum_{alpha in ann} G(xi + alpha), so a trace
  pairing over the lattice is inv_symp_fourier(fold(...));
* :func:`tile` is its broadcast adjoint, the annihilator-periodic extension
  of fiber data to the grid, so the symplectic series of a sequence on the
  whole grid is :func:`lattice_series` = tile(symp_fourier(c)).

Both are a zero-copy reshape of the grid to (b, Q, a, P), x = k' Q + x0 and
w = j' P + w1, plus one cached shear gather w0 -> (w0 + k' c') mod P along
the annihilator's generator (Q, c'), c' = c L/(a b).  :func:`symp_character_matrix` and
:func:`lattice_convolve` are dense |lattice| x |lattice| references with no
production caller.

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
        if not (L % a or L % b or (L // a) * c % b):
            xs, ws = _hnf_points(L, a, b, c)
            pts = tuple(zip(xs.tolist(), ws.tolist()))
            if tuple(self.points) == pts:
                # the same points, as a tuple of Python ints
                object.__setattr__(self, "points", pts)
                self.__dict__.update(xs=xs, ws=ws)
                return
        raise LatticeError("points are not a subgroup in lexicographic order "
                           "(not closed under subtraction, or out of range, repeated or unsorted)")

    @classmethod
    def _from_hnf(cls, L: int, a: int, b: int, c: int) -> Lattice:
        """The lattice of a valid normal form, from its one enumeration and with no check."""
        xs, ws = _hnf_points(L, a, b, c)
        lat = object.__new__(cls)
        object.__setattr__(lat, "modulus", L)
        object.__setattr__(lat, "points", tuple(zip(xs.tolist(), ws.tolist())))
        lat.__dict__.update(xs=xs, ws=ws, _hnf=(a, b, c))
        return lat

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
    def _twiddle(self) -> np.ndarray:
        """twiddle[k, x] = e^{2 pi i (k c mod b) x/L} of the lattice transforms, shape (P, Q), read-only."""
        L = self.modulus
        a, b, c = self._hnf
        k = np.arange(L // a)[:, None]
        twiddle = np.exp(2j * np.pi * ((k * c % b) * np.arange(L // b) % L) / L)
        twiddle.setflags(write=False)
        return twiddle

    @cached_property
    def _shears(self) -> tuple[np.ndarray, np.ndarray]:
        """The shear gathers of :func:`fold` and :func:`tile`, shape (b, Q, P) each, read-only.

        The annihilator is generated by (Q, c') and (0, P), c' = c L/(a b).
        fold's gather points at row (k', x0), column (w0 + k' c') mod P of
        the a-summed grid (b, Q, P), and tile's at transversal point
        (x0, (w1 - k' c') mod P).
        """
        L = self.modulus
        a, b, c = self._hnf
        P, Q = L // a, L // b
        shear = np.arange(b)[:, None, None] * (P * c // b)
        w = np.arange(P)
        rows = np.arange(Q)[:, None] * P
        gathers = (np.arange(b)[:, None, None] * (Q * P) + rows + (w + shear) % P,
                   rows + (w - shear) % P)
        for g in gathers:
            g.setflags(write=False)
        return gathers

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


def _hnf_points(L: int, a: int, b: int, c: int) -> tuple[np.ndarray, np.ndarray]:
    """xs and ws of the points (k a, (k c mod b) + j b) of the normal form, lexicographically, read-only."""
    k = np.arange(L // a)[:, None]
    xs = np.repeat(np.arange(0, L, a), L // b)
    ws = (k * c % b + np.arange(0, L, b)).ravel()
    xs.setflags(write=False)
    ws.setflags(write=False)
    return xs, ws


def build_lattice(descriptor, L: int) -> Lattice:
    """Build a lattice from a separable pair (a, b) or from a generator list.

    The separable pair means the subgroup aZ_L x bZ_L, which requires a | L
    and b | L; a generator list produces the subgroup it generates.
    """
    descriptor = tuple(descriptor)
    if L < 2:
        raise LatticeError(f"modulus must be >= 2, got {L}")
    if len(descriptor) == 2 and all(isinstance(d, numbers.Integral) for d in descriptor):
        a, b = (_as_int(d) for d in descriptor)
        if a < 1 or b < 1 or L % a or L % b:
            raise LatticeError(f"separable descriptor ({a}, {b}) needs a | L and b | L with L={L}")
        return Lattice._from_hnf(L, a, b, 0)
    gens = [(_as_int(x) % L, _as_int(w) % L) for x, w in descriptor]
    # Row-reduce (L, 0), (0, L) and the generators over Z: Euclid on the x
    # coordinates keeps the row (a, c) and leaves (0, w), which joins (0, b).
    a, b, c = L, L, 0
    for x, w in gens:
        while x:
            q = a // x
            a, c, x, w = x, w, a - q * x, c - q * w
        b = gcd(b, w)
    return Lattice._from_hnf(L, a, b, c % b)


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
    return Lattice._from_hnf(L, L // b, L // a, (L // a) * c // b)


@lru_cache(maxsize=64)
def dual_transversal(lat: Lattice) -> tuple[Point, ...]:
    """One canonical representative per annihilator coset, in lexicographic order.

    The representative of a coset is its lexicographically smallest member;
    there are exactly |lat| of them, filling a block [0, L/b) x [0, L/a).
    """
    L = lat.modulus
    a, b, _ = lat._hnf
    return tuple((x, w) for x in range(L // b) for w in range(L // a))


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


def symp_fourier(c, lat: Lattice) -> np.ndarray:
    """Symplectic Fourier series of lattice sequences, on the dual transversal.

    F(xi) = sum_lam c(lam) exp(2 pi i sigma(lam, xi) / L); the value depends
    only on the annihilator coset of xi.  The last axis of c runs over the
    lattice, that of the output is aligned with :func:`dual_transversal`;
    leading axes are kept.
    """
    c = _as_seqs(c, lat, "sequence")
    twiddle = lat._twiddle
    # D[k, x] = sum_j c[k, j] e^{2 pi i j x/Q}, then F[w, x] by a DFT over k
    D = np.fft.ifft(c.reshape(c.shape[:-1] + twiddle.shape), axis=-1, norm="forward")
    F = np.fft.fft(D * twiddle, axis=-2)
    return np.swapaxes(F, -1, -2).reshape(c.shape)


def inv_symp_fourier(F, lat: Lattice) -> np.ndarray:
    """Inverse of :func:`symp_fourier`: c(lam) = (1/|lat|) sum_xi F(xi) e^{-2 pi i sigma(lam, xi)/L}.

    The last axis of F runs over the dual transversal; leading axes are kept.
    """
    F = _as_seqs(F, lat, "fiber data")
    untwiddle = np.conj(lat._twiddle.T)
    # E[x, k] = (1/P) sum_w F[x, w] e^{2 pi i k w/P}, then c[j, k] by a DFT over x
    E = np.fft.ifft(F.reshape(F.shape[:-1] + untwiddle.shape), axis=-1)
    c = np.fft.fft(E * untwiddle, axis=-2, norm="forward")
    return np.swapaxes(c, -1, -2).reshape(F.shape)


def fold(G, lat: Lattice) -> np.ndarray:
    """Annihilator fold fold(G)(xi) = (|lat|/L) sum_{alpha in ann} G[xi + alpha] on the dual transversal.

    G is a function on the grid, indexed [x, w] in its last two axes;
    leading axes are kept.  By Poisson summation over the annihilator,
    inv_symp_fourier(fold(G)) is the lattice pairing
    (1/L) sum_z G[z] e^{-2 pi i sigma(lam, z)/L}.
    """
    G = np.asarray(G)
    L = lat.modulus
    a, b, _ = lat._hnf
    P, Q = L // a, L // b
    lead = G.shape[:-2]
    # sum the a cosets of P Z_L in w, then shear and sum the b rows of the annihilator
    R = G.reshape(lead + (b, Q, a, P))
    R = (R[..., 0, :] if a == 1 else R.sum(axis=-2)).reshape(lead + (b * Q * P,))
    F = np.take(R, lat._shears[0], axis=-1).sum(axis=-3)
    return F.reshape(lead + (Q * P,)) * (lat.size / L)


def tile(F, lat: Lattice) -> np.ndarray:
    """Annihilator-periodic extension of fiber data to the grid, shape (..., L, L).

    tile(F)[z] = F(xi) for every z in the annihilator coset of xi; the last
    axis of F runs over the dual transversal.  The adjoint of :func:`fold`
    up to the factor |lat|/L.
    """
    F = _as_seqs(F, lat, "fiber data")
    L = lat.modulus
    a, b, _ = lat._hnf
    lead = F.shape[:-1]
    block = np.take(F, lat._shears[1], axis=-1)[..., None, :]
    return np.broadcast_to(block, lead + (b, L // b, a, L // a)).reshape(lead + (L, L))


def lattice_series(c, lattice: Lattice) -> np.ndarray:
    """Symplectic series C[x, w] = sum_lam c(lam) e^{2 pi i sigma(lam, (x, w))/L} on the whole grid.

    The multiplier of a translate sum in the spreading domain:
    fourier_wigner(sum_lam c(lam) translate(lam, H)) = C * fourier_wigner(H).
    Leading axes of c are kept; the last one runs over the lattice points.
    """
    return tile(symp_fourier(c, lattice), lattice)


def lattice_convolve(c, d, lat: Lattice) -> np.ndarray:
    """Cyclic group convolution on the lattice: (c * d)(lam) = sum_mu c(mu) d(lam - mu)."""
    c = _as_seq(c, lat)
    d = _as_seq(d, lat)
    return d[lat._sub_table] @ c
