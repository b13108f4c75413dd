"""The closed-form fiber spectra against LAPACK: hermitian_spectrum against
np.linalg.eigvalsh and fiber_singular_values against np.linalg.svd on
random batches of 1 x 1 to 3 x 3 fibers, ill-conditioned, rank-deficient
and zero ones included; non-finite fibers in riesz_check and frame_bounds;
the size rule that keeps the Riesz and frame checks off LAPACK when the
small dimension is at most 2; and fiber_left_inverse against np.linalg.pinv,
with its route: the closed form, bit for bit, on N <= 2 batches that pinv's
cutoff leaves whole, and np.linalg.pinv(rcond=1e-10), bit for bit, on every
other batch, which keeps the dual fibers off LAPACK for N <= 2."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opsis import sampling, si_space
from opsis.phase_space import build_lattice
from opsis.sampling import (
    NotAFrameError,
    TransferMatrix,
    average_scheme,
    cross_seq,
    dual_left_inverse,
    frame_bounds,
    reconstruction_kit,
    sublattice_inflate,
    transfer_matrix,
    window_scheme,
)
from opsis.si_space import (
    GeneratorSystem,
    _abs2,
    _fiber_columns,
    fiber_left_inverse,
    fiber_singular_values,
    hermitian_spectrum,
    riesz_check,
)

from conftest import rand_kernel, rand_signal

# derandomized, so every run of the suite checks the same examples
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)

RATIOS = (1e-4, 1e-8, 1e-12, 1e-16)
KINDS = ("gaussian", "rank_deficient", "zero") + RATIOS


def unitary(rng, n):
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return np.linalg.qr(Z)[0]


def fiber(rng, M, N, kind):
    """One M x N fiber: Gaussian, with s_min/s_max = kind, of rank below min(M, N), or zero."""
    if kind == "zero":
        return np.zeros((M, N), dtype=complex)
    if kind == "gaussian":
        return rng.standard_normal((M, N)) + 1j * rng.standard_normal((M, N))
    r = min(M, N)
    if kind == "rank_deficient":
        # rank r - 1 exactly: small integer outer products, a repeated column when r = 1
        if r == 1:
            return np.zeros((M, N), dtype=complex)
        u = rng.integers(-3, 4, (M, r - 1)) + 1j * rng.integers(-3, 4, (M, r - 1))
        v = rng.integers(-3, 4, (r - 1, N)) + 1j * rng.integers(-3, 4, (r - 1, N))
        return (u @ v).astype(complex)
    s = np.geomspace(1.0, kind, r) if r > 1 else np.ones(1)
    return unitary(rng, M)[:, :r] @ np.diag(s) @ unitary(rng, N)[:r]


@st.composite
def fiber_batches(draw):
    """A batch of M x N fibers, (M, N) in {1, 2, 3}^2, under 0-2 random batch axes.

    Either every fiber is of one kind, or each draws its own kind and a
    scale in [1e-2, 1e2].
    """
    M, N = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    batch = tuple(draw(st.lists(st.integers(1, 4), max_size=2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(KINDS + ("mixed",)))
    A = np.empty(batch + (M, N), dtype=complex)
    for index in np.ndindex(*batch):
        if kind == "mixed":
            A[index] = fiber(rng, M, N, KINDS[rng.integers(len(KINDS))]) * 10.0 ** rng.uniform(-2, 2)
        else:
            A[index] = fiber(rng, M, N, kind)
    return A


def assert_close_to_oracle(got, want, tol=1e-14):
    scale = float(np.abs(want).max(initial=0.0))
    bound = tol * scale
    if 0 < scale < np.finfo(float).tiny:
        # subnormal values lie on a grid of 2^-1074, coarser than tol * scale
        bound = max(bound, float(np.spacing(scale)))
    assert got.shape == want.shape
    assert not np.isnan(got).any()
    assert float(np.abs(got - want).max(initial=0.0)) <= bound


@SETTINGS
@given(fiber_batches())
def test_fiber_singular_values_match_svd(A):
    with np.errstate(all="raise", under="ignore"):
        got = fiber_singular_values(A)
    assert_close_to_oracle(got, np.linalg.svd(A, compute_uv=False))
    assert (np.diff(got, axis=-1) <= 0).all()


@SETTINGS
@given(fiber_batches(), st.booleans())
def test_hermitian_spectrum_matches_eigvalsh(A, indefinite):
    G = np.swapaxes(A.conj(), -1, -2) @ A
    if indefinite:
        # shifted by the mean eigenvalue
        N = G.shape[-1]
        G = G - np.eye(N) * (np.trace(G, axis1=-2, axis2=-1).real / N)[..., None, None]
    with np.errstate(all="raise", under="ignore"):
        got = hermitian_spectrum(G)
    assert_close_to_oracle(got, np.linalg.eigvalsh(G))
    assert (np.diff(got, axis=-1) >= 0).all()


@pytest.mark.parametrize("ratio", RATIOS)
def test_wedge_formula_resolves_small_singular_values(ratio):
    # s_min is accurate to eps s_max, so 1e-12 s_max keeps about 4 digits
    rng = np.random.default_rng(5)
    A = np.array([fiber(rng, 3, 2, ratio) for _ in range(50)])
    s_min = fiber_singular_values(A)[:, 1]
    assert np.abs(s_min - ratio).max() <= 1e-14
    if ratio >= 1e-12:
        assert (s_min > 0).all()


def test_zero_fibers_give_zero_singular_values_and_eigenvalues():
    with np.errstate(all="raise", under="ignore"):
        for M, N in ((1, 1), (1, 2), (2, 1), (2, 2), (3, 2), (2, 3)):
            assert np.array_equal(fiber_singular_values(np.zeros((4, M, N))), np.zeros((4, min(M, N))))
        for N in (1, 2):
            assert np.array_equal(hermitian_spectrum(np.zeros((4, N, N))), np.zeros((4, N)))


@pytest.mark.parametrize("scale", [1e-200, 1e-120, 1e120, 1e200, 1e-310,
                                   pytest.param((1e-170, 1.0, 1e170), id="1e-170-1-1e170")])
@pytest.mark.parametrize("M, N", [(1, 1), (3, 1), (2, 2), (3, 2), (2, 3)])
def test_singular_values_of_tiny_and_huge_fibers(scale, M, N):
    # squared minors of such fibers leave the double range unless rescaled;
    # 1e-310 fibers are subnormal, and in a batch of mixed scales each fiber
    # keeps the bound relative to its own s_max
    rng = np.random.default_rng(6)
    A = np.array([fiber(rng, M, N, kind) * s for s in np.atleast_1d(scale) for kind in KINDS])
    with np.errstate(all="raise", under="ignore"):
        got = fiber_singular_values(A)
    for got_k, want_k in zip(got, np.linalg.svd(A, compute_uv=False)):
        assert_close_to_oracle(got_k, want_k)


def test_kernels_accept_single_matrices():
    A = np.array([[3.0, 0.0], [0.0, 4.0], [0.0, 0.0]])
    assert np.allclose(fiber_singular_values(A), [4.0, 3.0], rtol=0, atol=1e-15)
    assert np.allclose(hermitian_spectrum(A.T @ A), [9.0, 16.0], rtol=0, atol=1e-14)
    assert np.array_equal(hermitian_spectrum(np.array([[2.0]])), [2.0])


# ---------------------------------------------------------------- non-finite fibers

def nan_or_inf(value):
    return np.nan if value == "nan" else np.inf


# the closed forms meet inf - inf and inf / inf on an inf fiber, on purpose
NAN_OR_INF = ["nan", pytest.param("inf", marks=pytest.mark.filterwarnings("ignore::RuntimeWarning"))]


@pytest.mark.parametrize("bad", NAN_OR_INF)
@pytest.mark.parametrize("M, N", [(1, 1), (2, 2), (3, 2), (2, 3)])
def test_a_non_finite_transfer_fiber_gives_non_finite_frame_bounds(bad, M, N):
    rng = np.random.default_rng(8)
    lat = build_lattice((2, 2), 4)
    fibers = rng.standard_normal((lat.size, M, N)) + 1j * rng.standard_normal((lat.size, M, N))
    fibers[1, 0, 0] = nan_or_inf(bad)
    tm = TransferMatrix(fibers)
    fb = frame_bounds(tm)
    assert not math.isfinite(fb.beta)
    if bad == "nan":
        # a NaN fiber has no smallest singular value: alpha_A is NaN, not 0,
        # unless M < N sets it to zero
        assert math.isnan(fb.beta)
        assert math.isnan(fb.alpha) if M >= N else fb.alpha == 0.0
    with pytest.raises(NotAFrameError):
        dual_left_inverse(tm)


@pytest.mark.parametrize("bad", NAN_OR_INF)
@pytest.mark.parametrize("N, entry", [(1, (0, 0)), (2, (0, 0)), (2, (1, 0)), (2, (1, 1))])
def test_a_non_finite_riesz_fiber_gives_a_non_finite_bound(bad, N, entry):
    # the fibers are Hermitian, and only their lower triangle is read
    rng = np.random.default_rng(9)
    system = GeneratorSystem(build_lattice((2, 2), 4), tuple(rand_kernel(rng, 4) for _ in range(N)))
    fibers = np.array(system.riesz_fibers)
    fibers[(2,) + entry] = nan_or_inf(bad)
    vars(system)["riesz_fibers"] = fibers
    for tol in (None, 0.0):
        report = riesz_check(system, tol=tol)
        assert not math.isfinite(report.upper)
        if bad == "nan":
            assert math.isnan(report.lower) and math.isnan(report.upper)
        assert not report.is_riesz


# ---------------------------------------------------------------- selection by size

def forbid_linalg(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg called")

    for name in dir(np.linalg):
        f = getattr(np.linalg, name)
        if callable(f) and not isinstance(f, type) and not name.startswith("_"):
            monkeypatch.setattr(np.linalg, name, refuse)


@pytest.mark.parametrize("N", [1, 2])
@pytest.mark.parametrize("M", [1, 2, 3])
def test_riesz_and_frame_checks_make_no_linalg_call_up_to_size_two(monkeypatch, M, N):
    rng = np.random.default_rng(10 * M + N)
    L = 12
    lat = build_lattice([(2, 1), (0, 6)], L)
    system = GeneratorSystem(lat, tuple(rand_kernel(rng, L) for _ in range(N)))
    scheme = window_scheme([(rand_signal(rng, L), rand_signal(rng, L)) for _ in range(M)])
    want_riesz = riesz_check(system, route="gw")
    forbid_linalg(monkeypatch)
    report = riesz_check(system)
    tm = transfer_matrix(cross_seq(system, scheme), lat)
    fb = frame_bounds(tm)
    monkeypatch.undo()
    assert report.lower == pytest.approx(want_riesz.lower, rel=0, abs=1e-13)
    assert report.upper == pytest.approx(want_riesz.upper, rel=0, abs=1e-13)
    sv = np.linalg.svd(tm.fibers, compute_uv=False)
    assert fb.beta == pytest.approx(float((sv[:, 0] ** 2).max()), rel=1e-13)
    if M >= N:
        assert fb.alpha == pytest.approx(float((sv[:, -1] ** 2).min()), rel=0, abs=1e-13 * fb.beta)


def test_sublattice_system_runs_the_lapack_path_and_agrees(monkeypatch):
    # four generators over the index-2 sub-lattice span the same space as two
    # over the lattice, so the Riesz bounds agree; four channels keep M >= N
    rng = np.random.default_rng(12)
    L = 12
    system = GeneratorSystem(build_lattice((2, 2), L), tuple(rand_kernel(rng, L) for _ in range(2)))
    inflated = sublattice_inflate(system, build_lattice((4, 2), L))
    assert inflated.num_generators == 4
    scheme = average_scheme([rand_kernel(rng, L) for _ in range(4)])
    calls = []

    def counting(name):
        original = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapper

    for name in ("eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, counting(name))
    report = riesz_check(inflated)
    assert calls == ["eigvalsh"]
    tm = transfer_matrix(cross_seq(inflated, scheme), inflated.lattice)
    fb = frame_bounds(tm)
    assert calls == ["eigvalsh", "svd"]
    monkeypatch.undo()
    for want in (riesz_check(system), riesz_check(inflated, route="gw")):
        assert report.lower == pytest.approx(want.lower, rel=0, abs=1e-13)
        assert report.upper == pytest.approx(want.upper, rel=0, abs=1e-13)
    eigs = np.linalg.eigvalsh(np.swapaxes(tm.fibers.conj(), 1, 2) @ tm.fibers)
    assert fb.alpha == pytest.approx(float(eigs[:, 0].min()), rel=0, abs=1e-13 * fb.beta)
    assert fb.beta == pytest.approx(float(eigs[:, -1].max()), rel=1e-13)


# ---------------------------------------------------------------- left inverses

EPS = np.finfo(float).eps


@st.composite
def full_rank_batches(draw):
    """K M x N fibers, N in {1, 2}, N <= M <= 4, s_min / s_max in [1e-8, 1e-1], one scale.

    Returns the batch and its condition number.
    """
    N = draw(st.integers(1, 2))
    M = draw(st.integers(N, 4))
    K = draw(st.sampled_from([1, 2, 7]))
    ratio = 10.0 ** draw(st.floats(-8, -1))
    scale = 10.0 ** draw(st.floats(-3, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = np.array([fiber(rng, M, N, ratio) for _ in range(K)]) * scale
    return A, (1 / ratio if N == 2 else 1.0)


def residual(B, A):
    """max |B A - I| over a batch, B A formed as dual_left_inverse's gate forms it."""
    return float(np.abs((B[..., None] * A[:, None]).sum(2) - np.eye(A.shape[-1])).max())


@SETTINGS
@given(full_rank_batches())
def test_fiber_left_inverse_matches_pinv(batch):
    A, cond = batch
    with np.errstate(all="raise", under="ignore"):
        B = fiber_left_inverse(A, fiber_singular_values(A))
    P = np.linalg.pinv(A)
    assert B.shape == P.shape
    assert float(np.abs(B - P).max()) <= 16 * EPS * cond * float(np.abs(P).max())
    # the projection form keeps pinv's eps * cond; both residuals are
    # rounding noise below that
    assert residual(B, A) <= 4 * max(residual(P, A), EPS * cond)


@pytest.mark.parametrize("scales", [(1e-200,), (1e-120,), (1e120,), (1e200,), (1e-150, 1.0, 1e150)])
@pytest.mark.parametrize("M, N", [(1, 1), (3, 1), (2, 2), (3, 2)])
def test_left_inverse_of_tiny_and_huge_fibers(scales, M, N):
    # squared column norms of such fibers leave the double range unless rescaled
    rng = np.random.default_rng(13)
    A = np.array([fiber(rng, M, N, 1e-3) * s for s in scales for _ in range(3)])
    with np.errstate(all="raise", under="ignore"):
        B = fiber_left_inverse(A, fiber_singular_values(A))
    for B_k, A_k in zip(B, A):
        P_k = np.linalg.pinv(A_k)
        assert float(np.abs(B_k - P_k).max()) <= 1e-12 * float(np.abs(P_k).max())


def test_fiber_left_inverse_accepts_a_single_matrix():
    A = np.array([[2.0, 0.0], [0.0, 4.0], [0.0, 0.0]])
    assert np.array_equal(fiber_left_inverse(A, fiber_singular_values(A)), [[0.5, 0.0, 0.0], [0.0, 0.25, 0.0]])
    # the transpose has more columns than rows, so pinv serves it
    B = fiber_left_inverse(A.T, fiber_singular_values(A.T))
    assert B.tobytes() == np.linalg.pinv(A.T, rcond=1e-10).tobytes()
    assert np.array_equal(B, [[0.5, 0.0], [0.0, 0.25], [0.0, 0.0]])


def closed_form_left_inverse(A):
    """The closed-form route of fiber_left_inverse written out alone, for N <= min(M, 2).

    The same operations in the same order, so the route must match it bit
    for bit: Gram-Schmidt twice against the other column, on the layout and
    rescale of _fiber_columns.
    """
    X, norms2, e = _fiber_columns(A)
    P = X
    if A.shape[-1] == 2:
        Q = X[:, ::-1]
        for _ in range(2):
            P = P - Q * ((Q.conj() * P).sum(axis=0) / norms2[::-1])
        norms2 = _abs2(P).sum(axis=0)
    B = P.conj() / (norms2 if e is None else np.ldexp(norms2, e))
    return B.transpose(*range(2, B.ndim), 1, 0)


@pytest.mark.parametrize("scale", [1.0, 1e-200, 1e200])
@pytest.mark.parametrize("M, N", [(1, 1), (3, 1), (2, 2), (3, 2), (4, 2)])
def test_fiber_left_inverse_is_the_closed_form_on_well_conditioned_fibers(monkeypatch, M, N, scale):
    rng = np.random.default_rng(16)
    A = np.array([fiber(rng, M, N, 1e-6) for _ in range(7)]) * scale
    s = fiber_singular_values(A)
    calls = counting_pinv(monkeypatch)
    B = fiber_left_inverse(A, s)
    assert calls == []
    assert B.shape == (7, N, M) and B.tobytes() == closed_form_left_inverse(A).tobytes()


def pinv_batches():
    rng = np.random.default_rng(17)
    below = np.array([fiber(rng, 3, 2, 1e-2) for _ in range(5)])
    below[2] = fiber(rng, 3, 2, 1e-12)
    return {"N = 3": np.array([fiber(rng, 4, 3, 1e-2) for _ in range(5)]),
            "M < N": np.array([fiber(rng, 1, 2, "gaussian") for _ in range(5)]),
            "M < N, N = 3": np.array([fiber(rng, 2, 3, "gaussian") for _ in range(5)]),
            "one fiber at 1e-12": below,
            "rank deficient": np.array([fiber(rng, 3, 2, "rank_deficient") for _ in range(5)])}


@pytest.mark.parametrize("name", list(pinv_batches()))
def test_fiber_left_inverse_takes_pinv_outside_the_closed_form(monkeypatch, name):
    A = pinv_batches()[name]
    s = fiber_singular_values(A)
    calls = counting_pinv(monkeypatch)
    B = fiber_left_inverse(A, s)
    assert calls == ["pinv"]
    monkeypatch.undo()
    assert B.tobytes() == np.linalg.pinv(A, rcond=1e-10).tobytes()
    assert B.shape == A.shape[:-2] + A.shape[:-3:-1]
    # one cutoff, which sampling imports
    assert sampling.PINV_RCOND is si_space.PINV_RCOND == 1e-10


def counting_pinv(monkeypatch):
    calls = []
    pinv = np.linalg.pinv

    def wrapper(*args, **kwargs):
        calls.append("pinv")
        return pinv(*args, **kwargs)
    monkeypatch.setattr(np.linalg, "pinv", wrapper)
    return calls


@pytest.mark.parametrize("M, N, closed", [(1, 1, True), (3, 1, True), (2, 2, True), (4, 2, True),
                                          (3, 3, False), (4, 3, False)])
def test_dual_left_inverse_is_closed_form_up_to_two_generators(monkeypatch, M, N, closed):
    rng = np.random.default_rng(14)
    lat = build_lattice((2, 2), 4)
    fibers = np.array([fiber(rng, M, N, 1e-3) for _ in range(lat.size)])
    calls = counting_pinv(monkeypatch)
    B = dual_left_inverse(TransferMatrix(fibers))
    assert calls == ([] if closed else ["pinv"])
    P = np.linalg.pinv(fibers, rcond=1e-10)
    assert float(np.abs(B - P).max()) <= 1e-11 * float(np.abs(P).max())


def test_a_fiber_below_rcond_takes_pinv_and_fails_as_before(monkeypatch):
    # s_min / s_max = 1e-12 on one fiber: alpha_A > 0 passes a zero frame
    # tolerance, pinv drops that singular value, and its residual fails the gate
    rng = np.random.default_rng(15)
    lat = build_lattice((2, 2), 4)
    fibers = np.array([fiber(rng, 3, 2, 1e-2) for _ in range(lat.size)])
    fibers[1] = fiber(rng, 3, 2, 1e-12)
    tm = TransferMatrix(fibers)
    worst = residual(np.linalg.pinv(fibers, rcond=1e-10), fibers)
    calls = counting_pinv(monkeypatch)
    with pytest.raises(NotAFrameError) as raised:
        dual_left_inverse(tm, tol=0.0)
    assert calls == ["pinv"]
    assert str(raised.value) == f"left-inverse residual {worst:.3e} exceeds 1e-10"
    # at the default tolerance the frame gate refuses first, with no left inverse
    with pytest.raises(NotAFrameError, match="alpha_A"):
        dual_left_inverse(tm)
    assert calls == ["pinv"]


@pytest.mark.parametrize("perturbed", [False, True])
@pytest.mark.parametrize("M, N", [(1, 1), (2, 1), (3, 1), (2, 2), (3, 2)])
def test_reconstruction_kit_makes_no_linalg_call_up_to_two_generators(monkeypatch, M, N, perturbed):
    rng = np.random.default_rng(10 * M + N)
    L = 12
    lat = build_lattice([(2, 1), (0, 6)], L)
    system = GeneratorSystem(lat, tuple(rand_kernel(rng, L) for _ in range(N)))
    scheme = window_scheme([(rand_signal(rng, L), rand_signal(rng, L)) for _ in range(M)])
    C = rng.standard_normal((lat.size, N, M)) if perturbed else None
    forbid_linalg(monkeypatch)
    kit = reconstruction_kit(system, scheme, C=C)
    monkeypatch.undo()
    A = kit.transfer.fibers
    P = np.linalg.pinv(A, rcond=1e-10)
    want = P if C is None else P + C @ (np.eye(M) - A @ P)
    assert float(np.abs(kit.dual_fibers - want).max()) <= 1e-12 * float(np.abs(want).max())
    assert kit.left_inverse_residual == residual(kit.dual_fibers, A) <= 1e-10
