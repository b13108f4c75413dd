"""Finite phase space Z_L x Z_L: lattices, annihilators, dual transversals,
symplectic Fourier series, the fold and tile products between the grid and
the lattice, and lattice convolution.

A phase-space point is a pair (x, w) of residues mod L: x is a cyclic time
shift, w a frequency shift.  All Fourier analysis on lattices runs through
the symplectic pairing

    sigma(z, z') = z.w * z'.x - z'.w * z.x   (mod L),

whose characters lam -> exp(2 pi i sigma(lam, xi) / L) identify the group
with its own dual.  The pairing of two points, and their sum and negation,
are in the toolbox (:func:`opsis.timefreq.symplectic_form`); here it runs
on whole lattices.  For a lattice (subgroup) the annihilator collects the
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
j x/Q + (k c mod b) x/L - k w/P, so :func:`symp_fourier` is a length-Q DFT
over j, one pass that writes the transpose [x, k] times the twiddle
e^{2 pi i (k c mod b) x/L} (a plain copy when c = 0, where the twiddle is 1)
and a length-P DFT over k, and :func:`inv_symp_fourier` runs the same steps
backwards with the conjugate twiddle.  A DFT of length n <= DFT_SIDE is
one product per sequence with the n x n DFT matrix, O(K n): the matrix is
cached per length, sign and scaling, its roots of unity exact at the
quarter turns, and at such lengths numpy's per-call cost made an FFT the
slower route.  A longer DFT is an np.fft call, O(K log K).  Both DFTs run
along the last axis, so the output is C-ordered in transversal (lattice) order.
Functions on the L x L grid meet the lattice through two maps (Poisson
summation over the annihilator), each run only inside a product:

* the fold sums a grid function over every annihilator coset,
  fold(G)(xi) = (|lat|/L) sum_{alpha in ann} G(xi + alpha), so a trace
  pairing over the lattice is inv_symp_fourier(fold(F_T conj(F_Q)));
  :func:`fold_cosets` computes that fold from the layouts of both factors;
* the tile is its adjoint, the annihilator-periodic extension of fiber
  data to the grid, and by covariance a translate sum has the spreading
  transform sum_n tile(chat_n) F_n; :func:`tile_product` computes that sum.

The annihilator is generated by (Q, c') and (0, P), c' = c L/(a b), so
:func:`cosets` lays the grid out as (b, Q, a, P), entry [k', x0, j', w0] at
(x0, w0) + k'(Q, c') + j'(0, P): the grid's own reshape when c' = 0, else
one shear gather by a cached index, neither copying a C-ordered stack.
:func:`fold_cosets` contracts two layouts coset by coset, a bracket product
(de Boor, DeVore and Ron, JFA 1994), in memory order.  :func:`tile_product`
multiplies on the grid's reshape for every lattice, so the sum lands in
grid order.  A generator system of :mod:`opsis.si_space` keeps its stack's
layout for its folds.  The dense :func:`symp_character_matrix` serves only
the tests' reference series.  :func:`diagonal_index` caches the flat
indices of the cyclic diagonals of one modulus, both directions, for the
spreading transforms of :mod:`opsis.hs_ops`: 2 L^2 intp, 16.8 MB at L = 1024.

Conventions relied on throughout the package:

* lattice elements and transversal points are enumerated in lexicographic
  (x-major) order, so derived arrays are byte-reproducible;
* the forward symplectic Fourier series carries no prefactor and the
  inverse carries 1/|lattice|, which keeps the convolution theorem
  prefactor-free.
"""

from __future__ import annotations

import numbers
from dataclasses import FrozenInstanceError
from functools import cached_property, lru_cache
from math import gcd

import numpy as np

Point = tuple[int, int]
# a separable fold with a > 1 contracts k' first while its rows of P = L/a and its
# k'-contracted products stay this short; otherwise one einsum was faster (up to L = 1024)
FOLD_ROW, FOLD_PRODUCTS = 32, 1 << 16
# a lattice series side this short is a product with a cached DFT matrix, a longer one an
# np.fft call: on batches of 3 and 6 the product was faster up to 32, even at 48, twice as slow at 64
DFT_SIDE = 32


class LatticeError(ValueError):
    """Invalid lattice descriptor, out-of-range point, or mismatched operands."""


class UnsupportedModulusError(ValueError):
    """Operation needs 2 to be invertible mod L, so L must be odd."""


def read_only(value):
    """value, an array or a tuple, with every array in it made read-only in place: opsis's one freeze."""
    for item in value if isinstance(value, tuple) else (value,):
        if isinstance(item, np.ndarray):
            item.setflags(write=False)
    return value


class stage(cached_property):
    """A record's cached stage: a functools.cached_property whose value goes through :func:`read_only`."""

    def __init__(self, func):
        super().__init__(func)
        self.func = lambda record: read_only(func(record))


class Immutable:
    """Base of opsis's immutable records: fields are set once, through self.__dict__.

    Assigning or deleting an attribute raises dataclasses.FrozenInstanceError,
    an AttributeError, as a frozen dataclass does.  Every cached stage is a
    :class:`stage`, which writes the instance dict directly and returns its
    arrays read-only.  A record copies the arrays a caller hands it; one the
    pipeline builds (:meth:`_of`) freezes its arrays in place.  Records are
    plain classes, because @dataclass generates and execs the source of the
    methods it writes every time the defining module runs, cached bytecode or
    not; :class:`~opsis.si_space.RieszReport`, the one dataclass, writes its
    own and lets @dataclass write none.
    """

    @classmethod
    def _of(cls, **fields):
        """The record of fields the pipeline computed: set with no check and no copy, their arrays made read-only."""
        record = object.__new__(cls)
        record.__dict__.update({name: read_only(value) for name, value in fields.items()})
        return record

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r} of an immutable {type(self).__name__}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r} of an immutable {type(self).__name__}")


class Lattice(Immutable):
    """A subgroup of Z_L x Z_L with elements in lexicographic order.

    Built only by :func:`build_lattice`, from its normal form, so every
    lattice is a subgroup by construction: Lattice(...) raises TypeError.
    A lattice enumerates its points only on first read.  Immutable.
    """

    def __init__(self, *args, **kwargs):
        raise TypeError("a Lattice is built by build_lattice(descriptor, L)")

    @classmethod
    def _from_hnf(cls, L: int, a: int, b: int, c: int) -> Lattice:
        """The lattice of a valid normal form, with no check and no enumeration."""
        return cls._of(modulus=L, _hnf=(a, b, c))

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

    @stage
    def points(self) -> tuple[Point, ...]:
        return tuple(zip(self.xs.tolist(), self.ws.tolist()))

    @stage
    def _xy(self) -> tuple[np.ndarray, np.ndarray]:
        return _hnf_points(self.modulus, *self._hnf)

    @property
    def xs(self) -> np.ndarray:
        return self._xy[0]

    @property
    def ws(self) -> np.ndarray:
        return self._xy[1]

    @stage
    def _twiddles(self) -> tuple[np.ndarray, np.ndarray]:
        """The lattice transforms' twiddle e^{2 pi i (k c mod b) x/L}: transposed [x, k], conjugated [k, x]."""
        L = self.modulus
        a, b, c = self._hnf
        k = np.arange(L // a)[:, None]
        twiddle = np.exp(2j * np.pi * ((k * c % b) * np.arange(L // b) % L) / L)
        return twiddle.T.copy(), np.conj(twiddle)

    @stage
    def _coset_gather(self) -> np.ndarray:
        """Flat grid index of :func:`cosets` when c' != 0.

        Entry [x0, w0, k', j'] is the grid point (x0, w0) + k'(Q, c') + j'(0, P),
        c' = c L/(a b): the transversal runs outermost and each coset innermost.
        """
        L = self.modulus
        a, b, c = self._hnf
        P, Q = L // a, L // b
        k = np.arange(b)[:, None]
        w = (np.arange(P)[:, None, None] + k * (P * c // b) + np.arange(a) * P) % L
        return (np.arange(Q)[:, None, None, None] + k * Q) * L + w

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


def _as_int(v, what: str = "a lattice descriptor entry") -> int:
    if isinstance(v, bool) or not isinstance(v, numbers.Integral):
        raise LatticeError(f"{what} must be an integer, got {v!r}")
    return int(v)


def _as_point(p, L: int) -> Point:
    """A generator (x, w) of integers, reduced mod L; LatticeError naming p otherwise."""
    try:
        x, w = p
    except (TypeError, ValueError):
        raise LatticeError(f"lattice generator {p!r} is not an (x, w) pair of integers") from None
    return _as_int(x) % L, _as_int(w) % L


def _hnf_points(L: int, a: int, b: int, c: int) -> tuple[np.ndarray, np.ndarray]:
    """xs and ws of the points (k a, (k c mod b) + j b) of the normal form, lexicographically, read-only."""
    k = np.arange(L // a)[:, None]
    xs = np.repeat(np.arange(0, L, a), L // b)
    ws = (k * c % b + np.arange(0, L, b)).ravel()
    return read_only((xs, ws))


def build_lattice(descriptor, L: int) -> Lattice:
    """Build a lattice from a separable pair (a, b) or from a generator list.

    The separable pair means the subgroup aZ_L x bZ_L, which requires a | L
    and b | L; a generator list produces the subgroup it generates, each
    generator an (x, w) pair of integers.  L must be an integer, a numpy
    one included.
    """
    try:
        descriptor = tuple(descriptor)
    except TypeError:
        raise LatticeError(f"lattice descriptor {descriptor!r} is neither a pair (a, b) nor a generator list") from None
    L = _as_int(L, "the modulus L")
    if L < 2:
        raise LatticeError(f"modulus must be >= 2, got {L}")
    if len(descriptor) == 2 and all(isinstance(d, numbers.Integral) for d in descriptor):
        a, b = (_as_int(d) for d in descriptor)
        if a < 1 or b < 1 or L % a or L % b:
            raise LatticeError(f"separable descriptor ({a}, {b}) needs a | L and b | L with L={L}")
        return Lattice._from_hnf(L, a, b, 0)
    gens = [_as_point(p, L) for p in descriptor]
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


@lru_cache(maxsize=2)
def diagonal_index(L: int, step: int) -> np.ndarray:
    """Flat grid index [x, t] = ((x + step t) % L) L + t of the cyclic diagonals, read-only."""
    # row x of ((x + step t) % L) L is the window at x of the 2L table (i % L) L, or
    # for step = -1 the window at L - 1 - x of the reversed table: one strided view
    table = np.arange(2 * L)[::step] % L * L
    s = table.itemsize
    return read_only(np.ndarray((L, L), table.dtype, table, (L - 1) * s * (step < 0), (step * s, s)) + np.arange(L))


@lru_cache(maxsize=4)
def symp_character_matrix(lat: Lattice) -> np.ndarray:
    """Matrix Phi[k, j] = exp(2 pi i sigma(lam_j, xi_k) / L) over the dual transversal.

    Row k is the character attached to transversal point xi_k, column j runs
    over the lattice elements; `Phi @ seq` is the dense reference for
    :func:`symp_fourier`.  Read-only, as the cache shares it.
    """
    L = lat.modulus
    tx, tw = np.array(dual_transversal(lat)).T
    s = (tx[:, None] * lat.ws[None, :] - tw[:, None] * lat.xs[None, :]) % L
    return read_only(np.exp(2j * np.pi * s / L))


def _batch(x, trailing: tuple[int, ...], what: str, dtype=complex) -> np.ndarray:
    """x as an array of shape (..., *trailing), the batch rule's one check; LatticeError otherwise.

    Converted to complex, or with dtype=None kept in the caller's dtype.
    """
    x = np.asarray(x, dtype=dtype)
    if x.shape[-len(trailing):] != trailing:
        raise LatticeError(f"{what} shape {x.shape}, expected (..., {', '.join(map(str, trailing))})")
    return x


@lru_cache(maxsize=32)
def _dft_matrix(n: int, sign: int, scaled: bool) -> np.ndarray:
    """The n x n DFT matrix e^{sign 2 pi i j x/n}, divided by n when scaled, in real form; read-only.

    Entry (j, x) is the 2 x 2 block [[re, im], [-im, re]] at rows 2j, 2j + 1
    and columns 2x, 2x + 1, so a complex row read as its (re, im) pairs times
    this matrix is the row times the complex one: a real product, which was
    faster than numpy's complex one at these sizes.  The entries are the roots
    of unity indexed by (j x) mod n.  Root m is i^q e^{i pi r/(2n)} with
    4m = q n + r, 0 <= r < n: exact at the quarter turns (r = 0), as
    pocketfft's twiddles are, and its angle at most pi/2.  The complex matrix
    is symmetric, so the real form of its conjugate (sign -1) is the transpose.
    """
    if scaled:
        return read_only(_dft_matrix(n, sign, False) * (1 / n))
    if sign < 0:
        return read_only(_dft_matrix(n, 1, False).T.copy())
    m = np.arange(n)
    q, r = np.divmod(4 * m, n)
    roots = np.exp(1j * (np.pi / (2 * n)) * r) * np.array([1, 1j, -1, -1j])[q]
    M = np.empty((n, 2, n), complex)
    M[:, 0] = roots[m[:, None] * m % n]
    np.multiply(M[:, 0], 1j, out=M[:, 1])
    return read_only(M.view(float).reshape(2 * n, 2 * n))


def _dft(x: np.ndarray, sign: int, scaled: bool = False) -> np.ndarray:
    """The DFT sum_j x[..., j] e^{sign 2 pi i j k/n} along the last axis, of length n, divided by n when scaled.

    Up to DFT_SIDE, x of shape (..., rows, n) is read as (re, im) pairs and
    multiplied by the cached :func:`_dft_matrix`, one real product per
    trailing (rows, n) table, so each table gets the bits it gets alone.
    Else np.fft's ifft (sign +1) or fft (sign -1), whose norm="backward" scales the ifft.
    """
    n = x.shape[-1]
    if n > DFT_SIDE:
        fft = np.fft.ifft if sign > 0 else np.fft.fft
        return fft(x, axis=-1, norm="backward" if scaled == (sign > 0) else "forward")
    return (np.ascontiguousarray(x).view(float) @ _dft_matrix(n, sign, scaled)).view(complex)


def symp_fourier(c, lat: Lattice) -> np.ndarray:
    """Symplectic Fourier series of lattice sequences, on the dual transversal.

    F(xi) = sum_lam c(lam) exp(2 pi i sigma(lam, xi) / L); the value depends
    only on the annihilator coset of xi.  The last axis of c runs over the
    lattice, that of the output is aligned with :func:`dual_transversal`;
    leading axes are kept.  A DFT over j, one pass to the C-ordered
    transpose [x, k] (times the twiddle unless c = 0), a DFT over k.  Each
    DFT is one product with a cached matrix on a side up to DFT_SIDE, so
    O(K (P + Q)), and an FFT on a longer side, O(K log K).
    """
    c = _batch(c, (lat.size,), "sequence")
    L = lat.modulus
    a, b, shear = lat._hnf
    # D[x, k] = sum_j c[k, j] e^{2 pi i j x/Q}, then F[x, w] by a DFT over k
    D = _dft(c.reshape(c.shape[:-1] + (L // a, L // b)), 1).swapaxes(-1, -2)
    D = D.copy() if shear == 0 else np.multiply(D, lat._twiddles[0], order="C")
    return _dft(D, -1).reshape(c.shape)


def inv_symp_fourier(F, lat: Lattice) -> np.ndarray:
    """Inverse of :func:`symp_fourier`: c(lam) = (1/|lat|) sum_xi F(xi) e^{-2 pi i sigma(lam, xi)/L}.

    The last axis of F runs over the dual transversal; leading axes are kept.
    The steps of :func:`symp_fourier` run backwards, with the conjugate
    twiddle, each DFT scaled by 1/(its length), by the same two routes.
    """
    F = _batch(F, (lat.size,), "fiber data")
    L = lat.modulus
    a, b, shear = lat._hnf
    # E[k, x] = (1/P) sum_w F[x, w] e^{2 pi i k w/P}, then c[k, j] by a DFT over x
    E = _dft(F.reshape(F.shape[:-1] + (L // b, L // a)), 1, scaled=True).swapaxes(-1, -2)
    E = E.copy() if shear == 0 else np.multiply(E, lat._twiddles[1], order="C")
    return _dft(E, -1, scaled=True).reshape(F.shape)


def _grid_view(G, lat: Lattice) -> np.ndarray:
    """G of shape (..., L, L), in its own dtype, as its (..., b, Q, a, P) reshape; LatticeError on another shape."""
    L = lat.modulus
    G = _batch(G, (L, L), "grid stack", dtype=None)
    a, b, _ = lat._hnf
    return G.reshape(G.shape[:-2] + (b, L // b, a, L // a))


def cosets(G, lat: Lattice) -> np.ndarray:
    """The grid in annihilator-coset layout, shape (..., b, Q, a, P).

    Entry [..., k', x0, j', w0] is G at (x0, w0) + k'(Q, c') + j'(0, P),
    c' = c L/(a b): fixing (x0, w0) runs over the annihilator coset of that
    transversal point, fixing (k', j') over the transversal.  G is indexed
    [x, w] in its last two axes, of shape (L, L); leading axes are kept.  For c' = 0
    this is a reshape, otherwise one cached gather; neither copies a C-ordered G.
    """
    B = _grid_view(G, lat)
    if lat._hnf[2] == 0:
        return B
    # the gather's memory runs over each coset innermost, which the fold reductions read fastest
    n = B.ndim - 4
    C = np.take(B.reshape(B.shape[:n] + (lat.modulus ** 2,)), lat._coset_gather, axis=-1)
    return C.transpose(tuple(range(n)) + (n + 2, n, n + 3, n + 1))


def fold_cosets(CT, CQ, lat: Lattice) -> np.ndarray:
    """fold(FT * conj(FQ)) from the :func:`cosets` layouts CT and CQ of FT and FQ.

    The engine's one fold kernel, coset by coset, never forming the product.
    CT and CQ broadcast over leading axes; the result has the broadcast
    leading shape and a last axis over the dual transversal.  On a gathered
    layout, which holds each coset innermost, one einsum contracts (k', j').
    So it does on a reshape layout (c' = 0) with a = 1, with rows of
    P > FOLD_ROW or with over FOLD_PRODUCTS k'-contracted products.  Else
    one einsum contracts k', its inner loop the contiguous (Q, a, P) block,
    and a second sums over j'.  The smaller operand is conjugated, CT by
    conj(fold(conj(CT), CQ)): the same bits up to the sign of a zero, as
    conj(conj(x) y) = x conj(y) and negation commutes with rounding.
    """
    swap = CT.size < CQ.size
    X, Y = (np.conj(CT), CQ) if swap else (CT, np.conj(CQ))
    b, Q, a, P = X.shape[-4:]
    # the k'-contracted products number at most X.size Y.size / (b L^2), L^2 = b Q a P
    if lat._hnf[2] or a == 1 or P > FOLD_ROW or X.size * Y.size > FOLD_PRODUCTS * b * (b * Q * a * P):
        F = np.einsum("...kxjw,...kxjw->...xw", X, Y)
    else:
        F = np.einsum("...xjw->...xw", np.einsum("...kxjw,...kxjw->...xjw", X, Y))
    if swap:
        np.conjugate(F, out=F)
    # in place, unless integer layouts made an integer sum
    F = np.multiply(F, lat.size / lat.modulus, out=F if np.issubdtype(F.dtype, np.inexact) else None)
    return F.reshape(F.shape[:-2] + (lat.size,))


def tile_product(chat, F, lat: Lattice) -> np.ndarray:
    """sum_n tile(chat[..., n, :]) F[n], from chat of shape (..., N, K) and grid transforms F of shape (N, L, L).

    With chat_n = symp_fourier(c_n) and F_n = F(S_n) this is
    F(sum_n sum_lam c_n(lam) translate(lam, S_n)).  On the grid's (b, Q, a, P)
    view of F the tile of row block k' is chat_n's (Q, P) table rolled along
    w0 by k' c' mod P, constant over j': a view when c' = 0, else one take by
    the (b, P) index (w0 - k' c') mod P.  The sum lands in grid order, and
    neither the tiles on the grid nor the N products are formed.
    """
    G = _grid_view(F, lat)
    chat = _batch(chat, (len(G), lat.size), "fiber data")
    b, Q, a, P = G.shape[-4:]
    c = lat._hnf[2]
    tiles = chat.reshape(chat.shape[:-1] + (1, Q, 1, P))
    if c:
        roll = (np.arange(P) - np.arange(b)[:, None] * (P * c // b)) % P
        tiles = np.take(tiles[..., 0, :, 0, :], roll, axis=-1).swapaxes(-3, -2)[..., None, :]
    tiles = tiles.transpose(-5, *range(tiles.ndim - 5), -4, -3, -2, -1)
    out = tiles[0] * G[0]
    for tile, G_n in zip(tiles[1:], G[1:], strict=True):
        out += tile * G_n
    return out.reshape(out.shape[:-4] + 2 * (lat.modulus,))


def lattice_convolve(c, d, lat: Lattice) -> np.ndarray:
    """Cyclic group convolution (c * d)(lam) = sum_mu c(mu) d(lam - mu), by the convolution theorem."""
    return inv_symp_fourier(symp_fourier(c, lat) * symp_fourier(d, lat), lat)
