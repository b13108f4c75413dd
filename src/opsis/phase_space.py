"""Finite phase space Z_L x Z_L: lattices, annihilators, dual transversals,
symplectic Fourier series, the fold and tile products between the grid and
the lattice, and lattice convolution.

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
dual transversal is the block [0, Q) x [0, P).  Membership and the index
of a point are read off the form too (:meth:`Lattice.locate`).  A built
lattice enumerates its points only when they are first read; nothing
below needs them.

The Fourier analysis of a lattice runs on the lattice's own size K = P Q.
With xi = (x, w) in the transversal, sigma(lam, xi)/L splits as
j x/Q + (k c mod b) x/L - k w/P, so :func:`symp_fourier` is a length-Q FFT
over j, a twiddle e^{2 pi i (k c mod b) x/L} and a length-P FFT over k, and
:func:`inv_symp_fourier` runs the same steps backwards: O(K log K) each.
Functions on the L x L grid meet the lattice through two maps (Poisson
summation over the annihilator), each run only inside a product:

* the fold sums a grid function over every annihilator coset,
  fold(G)(xi) = (|lat|/L) sum_{alpha in ann} G(xi + alpha), so a trace
  pairing over the lattice is inv_symp_fourier(fold(F_T conj(F_Q)));
  :func:`fold_product` computes that fold;
* the tile is its adjoint, the annihilator-periodic extension of fiber
  data to the grid, and by covariance a translate sum has the spreading
  transform sum_n tile(chat_n) F_n; :func:`tile_product` computes that sum.

The annihilator is generated by (Q, c') and (0, P), c' = c L/(a b), so
:func:`cosets` lays the grid out as (b, Q, a, P), entry [k', x0, j', w0] at
(x0, w0) + k'(Q, c') + j'(0, P): a zero-copy reshape when c' = 0, and
otherwise one cached shear gather along the contiguous w axis.
fold_product contracts two such layouts over (k', j') coset by coset with
one einsum, so the product of every pair of operators is never formed: a
bracket product (de Boor, DeVore and Ron, JFA 1994).  :func:`tile_block`
reads the transversal index of every grid point from a second cached
gather, one block before the broadcast over j', laid out to meet the plain
(b, Q, a, P) reshape of the grid (:func:`grid_blocks`), so tile_product
runs block by block without a tiled copy.  :func:`symp_character_matrix`,
the dense |lattice| x |lattice| character matrix, has no production
caller; the tests' reference series use it.

Conventions relied on throughout the package:

* lattice elements and transversal points are enumerated in lexicographic
  (x-major) order, so derived arrays are byte-reproducible;
* the forward symplectic Fourier series carries no prefactor and the
  inverse carries 1/|lattice|, which keeps the convolution theorem
  prefactor-free.
"""

from __future__ import annotations

import numbers
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


class Immutable:
    """Base of opsis's immutable records: fields are set once, through self.__dict__.

    Assigning or deleting an attribute raises AttributeError.
    functools.cached_property still caches, since it writes the instance
    dict directly.  Records are plain classes and not frozen dataclasses,
    because @dataclass generates and execs the source of its methods every
    time the defining module runs, cached bytecode or not.
    """

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable {type(self).__name__}")


class Lattice(Immutable):
    """A subgroup of Z_L x Z_L with elements in lexicographic order.

    Built only by :func:`build_lattice`, from its normal form, so every
    lattice is a subgroup by construction; Lattice(...) itself takes no
    arguments and raises TypeError.  A lattice enumerates its points only
    when they are first read.  Lattices are immutable.
    """

    @classmethod
    def _from_hnf(cls, L: int, a: int, b: int, c: int) -> Lattice:
        """The lattice of a valid normal form, with no check and no enumeration."""
        lat = object.__new__(cls)
        lat.__dict__.update(modulus=L, _hnf=(a, b, c))
        return lat

    def __eq__(self, other):
        # equal lattices have equal normal forms
        if not isinstance(other, Lattice):
            return NotImplemented
        return (self.modulus, self._hnf) == (other.modulus, other._hnf)

    def __hash__(self):
        return hash((self.modulus, self._hnf))

    def __repr__(self):
        return f"Lattice(modulus={self.modulus}, size={self.size})"

    @property
    def size(self) -> int:
        a, b, _ = self._hnf
        return (self.modulus // a) * (self.modulus // b)

    @cached_property
    def points(self) -> tuple[Point, ...]:
        return tuple(zip(self.xs.tolist(), self.ws.tolist()))

    @cached_property
    def index(self) -> dict[Point, int]:
        return {p: i for i, p in enumerate(self.points)}

    @cached_property
    def _xy(self) -> tuple[np.ndarray, np.ndarray]:
        return _hnf_points(self.modulus, *self._hnf)

    @property
    def xs(self) -> np.ndarray:
        return self._xy[0]

    @property
    def ws(self) -> np.ndarray:
        return self._xy[1]

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
    def _coset_gather(self) -> np.ndarray:
        """Flat grid index of :func:`cosets` when c' != 0, read-only.

        Entry [x0, w0, k', j'] is the grid point (x0, w0) + k'(Q, c') + j'(0, P),
        c' = c L/(a b): the transversal runs outermost and each coset innermost.
        """
        L = self.modulus
        a, b, c = self._hnf
        P, Q = L // a, L // b
        k = np.arange(b)[:, None]
        w = (np.arange(P)[:, None, None] + k * (P * c // b) + np.arange(a) * P) % L
        gather = (np.arange(Q)[:, None, None, None] + k * Q) * L + w
        gather.setflags(write=False)
        return gather

    @cached_property
    def _tile_gather(self) -> np.ndarray:
        """Index of :func:`tile_block`, shape (b, Q, P), read-only.

        Entry [k', x0, w1] is the transversal point (x0, (w1 - k' c') mod P),
        whose annihilator coset holds the grid points (k' Q + x0, w1 + j' P).
        """
        L = self.modulus
        a, b, c = self._hnf
        P, Q = L // a, L // b
        shear = np.arange(b)[:, None, None] * (P * c // b)
        gather = np.arange(Q)[:, None] * P + (np.arange(P) - shear) % P
        gather.setflags(write=False)
        return gather

    def locate(self, x, w):
        """(index, is a point) of each (x, w), elementwise over broadcast integer arrays.

        (x, w) in range is a point iff a | x and b | (w - k c), k = x/a, at
        index k Q + (w - (k c mod b))/b; off the lattice the index means nothing.
        """
        L = self.modulus
        a, b, c = self._hnf
        k, r = np.divmod(x, a)
        j, s = np.divmod(w - k * c % b, b)
        inside = (0 <= x) & (x < L) & (0 <= w) & (w < L) & (r == 0) & (s == 0)
        return k * (L // b) + j, inside

    def contains_lattice(self, sub: Lattice) -> bool:
        """True when sub is a sub-lattice: same modulus, and both generators of its normal form are points here."""
        L = self.modulus
        a, b, c = sub._hnf
        return sub.modulus == L and (a % L, c) in self and (0, b % L) in self

    def __contains__(self, p) -> bool:
        try:
            x, w = p
            return bool(self.locate(x, w)[1])
        except (TypeError, ValueError):
            return False


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
    if not lat.contains_lattice(sub):
        raise LatticeError("sub-lattice is not contained in the parent lattice")
    # every coset of sub meets the block [0, a') x [0, b') once
    a, b, _ = sub._hnf
    x, w = np.divmod(np.arange(a * b), b)
    keep = lat.locate(x, w)[1]
    return tuple(zip(x[keep].tolist(), w[keep].tolist()))


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


def grid_blocks(G, lat: Lattice) -> np.ndarray:
    """The grid as blocks, a reshape to shape (..., b, Q, a, P).

    Entry [..., k', x0, j', w1] is G at (k' Q + x0, j' P + w1); G is indexed
    [x, w] in its last two axes, and leading axes are kept.  This is the
    layout that :func:`tile_block` broadcasts against, and for c' = 0 it is
    also the layout of :func:`cosets`.
    """
    G = np.asarray(G)
    L = lat.modulus
    a, b, _ = lat._hnf
    return G.reshape(G.shape[:-2] + (b, L // b, a, L // a))


def cosets(G, lat: Lattice) -> np.ndarray:
    """The grid in annihilator-coset layout, shape (..., b, Q, a, P).

    Entry [..., k', x0, j', w0] is G at (x0, w0) + k'(Q, c') + j'(0, P),
    c' = c L/(a b): fixing (x0, w0) runs over the annihilator coset of that
    transversal point, fixing (k', j') over the transversal.  G is indexed
    [x, w] in its last two axes; leading axes are kept.  For c' = 0 this is
    a zero-copy reshape, otherwise one cached gather.
    """
    G = np.asarray(G)
    L = lat.modulus
    c = lat._hnf[2]
    lead = G.shape[:-2]
    if c == 0:
        return grid_blocks(G, lat)
    # the gather's memory runs over each coset innermost, which the fold reductions read fastest
    C = np.take(G.reshape(lead + (L * L,)), lat._coset_gather, axis=-1)
    n = len(lead)
    return C.transpose(tuple(range(n)) + (n + 2, n, n + 3, n + 1))


def fold_product(FT, FQ, lat: Lattice) -> np.ndarray:
    """fold(FT * conj(FQ)), contracted coset by coset without forming the product.

    FT and FQ broadcast against each other over leading axes; the result
    has the broadcast leading shape and a last axis over the dual transversal.
    """
    F = np.einsum("...kxjw,...kxjw->...xw", cosets(FT, lat), np.conj(cosets(FQ, lat)))
    return F.reshape(F.shape[:-2] + (lat.size,)) * (lat.size / lat.modulus)


def tile_block(F, lat: Lattice) -> np.ndarray:
    """The tile of fiber data F in the layout of :func:`grid_blocks`, without the grid-size copy.

    Shape (..., b, Q, 1, P), or (..., 1, Q, 1, P) when c' = 0: the tile is
    constant over j', and over k' too when c' = 0, so those axes broadcast.
    Entry [..., k', x0, 0, w1] is F at the transversal point
    (x0, (w1 - k' c') mod P).  For c' = 0 it is a reshape view of F,
    otherwise one cached gather.
    """
    F = _as_seqs(F, lat, "fiber data")
    L = lat.modulus
    a, b, c = lat._hnf
    if c == 0:
        return F.reshape(F.shape[:-1] + (1, L // b, 1, L // a))
    return np.take(F, lat._tile_gather, axis=-1)[..., None, :]


def tile_product(chat, F, lat: Lattice) -> np.ndarray:
    """sum_n tile(chat[..., n, :]) F[n], shape (..., N, K) and (N, L, L) -> (..., L, L).

    With chat_n = symp_fourier(c_n) and F_n = F(S_n) this is
    F(sum_n sum_lam c_n(lam) translate(lam, S_n)).  Accumulated over n in
    the grid's blocks, so neither the tiles nor the N products are formed.
    """
    blocks = tile_block(chat, lat)
    blocks = blocks.transpose(-5, *range(blocks.ndim - 5), -4, -3, -2, -1)
    F = grid_blocks(F, lat)
    out = blocks[0] * F[0]
    for block, F_n in zip(blocks[1:], F[1:], strict=True):
        out += block * F_n
    return out.reshape(out.shape[:-4] + (lat.modulus,) * 2)


def lattice_convolve(c, d, lat: Lattice) -> np.ndarray:
    """Cyclic group convolution (c * d)(lam) = sum_mu c(mu) d(lam - mu), by the convolution theorem."""
    return inv_symp_fourier(symp_fourier(c, lat) * symp_fourier(d, lat), lat)
