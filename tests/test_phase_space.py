import tracemalloc

import numpy as np
import pytest

from opsis.phase_space import (
    Lattice,
    LatticeError,
    annihilator,
    build_lattice,
    coset_transversal,
    dual_transversal,
    inv_symp_fourier,
    lattice_convolve,
    symp_character_matrix,
    symp_fourier,
)
from opsis.timefreq import symplectic_form

from conftest import rand_seq

LATTICE_ZOO = [
    (4, (1, 1)),
    (4, (2, 2)),
    (6, (2, 3)),
    (8, (2, 2)),
    (8, (2, 4)),
    (12, (3, 4)),
    (12, (4, 4)),
]


def zoo():
    return [build_lattice(desc, L) for L, desc in LATTICE_ZOO]


# ---------------------------------------------------------------- symplectic form

def test_symplectic_form_examples():
    assert symplectic_form((1, 2), (3, 4), 12) == (2 * 3 - 4 * 1) % 12 == 2
    assert symplectic_form((1, 0), (0, 1), 4) == 3
    for z in [(0, 0), (1, 2), (3, 3)]:
        assert symplectic_form(z, z, 4) == 0


def test_symplectic_form_antisymmetry():
    L = 12
    for z in [(0, 0), (1, 2), (5, 11), (7, 3)]:
        for zp in [(0, 0), (2, 9), (11, 11)]:
            assert (symplectic_form(z, zp, L) + symplectic_form(zp, z, L)) % L == 0


def test_symplectic_form_rejects_unreduced_points():
    with pytest.raises(LatticeError):
        symplectic_form((4, 0), (0, 0), 4)
    with pytest.raises(LatticeError):
        symplectic_form((0, 0), (1, -1), 4)


# ---------------------------------------------------------------- lattice building

def test_separable_lattice_small():
    lat = build_lattice((2, 2), 4)
    assert lat.points == ((0, 0), (0, 2), (2, 0), (2, 2))


def test_full_lattice():
    lat = build_lattice((1, 1), 4)
    assert lat.size == 16


def test_generated_lattice_closure():
    lat = build_lattice([(2, 0), (0, 3)], 6)
    assert set(lat.points) == {(0, 0), (2, 0), (4, 0), (0, 3), (2, 3), (4, 3)}
    assert list(lat.points) == sorted(lat.points)


def test_invalid_separable_descriptor():
    with pytest.raises(LatticeError):
        build_lattice((3, 2), 4)


def test_descriptor_accepts_numpy_integers():
    lat = build_lattice((np.int64(4), np.int64(4)), 16)
    assert lat == build_lattice((4, 4), 16)
    assert all(type(v) is int for p in lat.points for v in p)
    assert build_lattice([(np.int32(2), np.int64(6))], 16) == build_lattice([(2, 6)], 16)


@pytest.mark.parametrize("desc", [(True, 2), (2, False), [(1, True)], [(1.0, 2)]])
def test_descriptor_rejects_booleans_and_floats(desc):
    with pytest.raises(LatticeError):
        build_lattice(desc, 4)


def test_direct_construction_rejects_non_subgroup():
    # build_lattice is the only constructor: a point list is refused even when it is a subgroup
    with pytest.raises(TypeError):
        Lattice(8, ((0, 0), (1, 0), (3, 0), (5, 0)))
    with pytest.raises(TypeError):
        Lattice(4, ((0, 0), (1, 1), (2, 2), (3, 3)))
    assert build_lattice([(1, 1)], 4).points == ((0, 0), (1, 1), (2, 2), (3, 3))


@pytest.mark.parametrize("args, kwargs", [((), {}), ((8,), {}), ((), {"modulus": 8})])
def test_a_lattice_is_built_only_by_build_lattice(args, kwargs):
    # with no arguments too: a Lattice with no fields would fail on .size, == and hash()
    with pytest.raises(TypeError, match=r"build_lattice\(descriptor, L\)"):
        Lattice(*args, **kwargs)
    lat, same = build_lattice((2, 4), 8), build_lattice([(2, 0), (0, 4)], 8)
    assert lat.size == 8 and lat == same and hash(lat) == hash(same)


@pytest.mark.parametrize("points", [
    (),
    ((0, 2), (0, 0)),                  # (0, 0) not first
    ((0, 0), (0, 2), (0, 2)),          # a duplicate
    ((0, 0), (2, 0), (0, 2), (2, 2)),  # unsorted
    ((0, 0), (4, 0)),                  # (L, 0)
    ((0, 0), (0, -2)),                 # a negative coordinate
    ((0, 0), (2**64, 0)),              # beyond any machine integer
    ((0, 0), (0, "2")),
    ((0, 0), (2, 1)),                  # (2, 1) + (2, 1) = (0, 2) is missing
])
def test_direct_construction_rejects_malformed_points(points):
    with pytest.raises(TypeError):
        Lattice(4, points)


@pytest.mark.parametrize("L, desc, form, dual_form", [
    (4, [], (4, 4, 0), (1, 1, 0)),
    (8, (2, 4), (2, 4, 0), (2, 4, 0)),
    (8, [(2, 1)], (2, 4, 1), (2, 4, 1)),
    (12, [(2, 3), (0, 4)], (2, 2, 1), (6, 6, 3)),
])
def test_normal_form_and_its_dual(L, desc, form, dual_form):
    lat = build_lattice(desc, L)
    assert lat._hnf == form
    assert annihilator(lat)._hnf == dual_form


def test_equal_lattices_share_hash_and_annihilator():
    separable = build_lattice((2, 2), 8)
    generated = build_lattice([(2, 0), (0, 2)], 8)
    assert separable == generated
    assert hash(separable) == hash(generated)
    assert annihilator(separable) is annihilator(generated)


def test_lattice_order_divides_group_order():
    for lat in zoo():
        assert (lat.modulus ** 2) % lat.size == 0


# ---------------------------------------------------------------- annihilator / duality

def test_annihilator_self_adjoint_case():
    lat = build_lattice((3, 4), 12)
    assert annihilator(lat) == lat


def test_annihilator_extremes():
    full = build_lattice((1, 1), 4)
    assert annihilator(full).points == ((0, 0),)
    trivial = build_lattice([], 4)
    assert annihilator(trivial) == full


def test_double_annihilator_is_identity():
    for lat in zoo():
        assert annihilator(annihilator(lat)) == lat


def test_annihilator_order_product():
    for lat in zoo():
        assert lat.size * annihilator(lat).size == lat.modulus ** 2


def test_annihilator_peak_memory():
    # an exhaustive test of the L^2 candidates holds L^2 x |lat| integers, 270 MB here
    lat = build_lattice((4, 4), 128)
    annihilator.cache_clear()
    tracemalloc.start()
    try:
        assert annihilator(lat).size == 16
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_dual_transversal_sizes():
    assert len(dual_transversal(build_lattice((1, 1), 4))) == 16
    assert len(dual_transversal(build_lattice((2, 2), 4))) == 4
    assert len(dual_transversal(build_lattice((3, 4), 12))) == 12
    for lat in zoo():
        assert len(dual_transversal(lat)) == lat.size


def test_dual_transversal_reps_are_distinct_mod_annihilator():
    lat = build_lattice((2, 2), 8)
    ann = set(annihilator(lat).points)
    trans = dual_transversal(lat)
    L = lat.modulus
    for i, p in enumerate(trans):
        for q in trans[i + 1:]:
            diff = ((p[0] - q[0]) % L, (p[1] - q[1]) % L)
            assert diff not in ann


# ---------------------------------------------------------------- symplectic Fourier

def test_symp_character_matrix_is_read_only():
    phi = symp_character_matrix(build_lattice((2, 2), 4))
    with pytest.raises(ValueError):
        phi[0, 0] = 0


def test_symp_fourier_delta_at_origin():
    lat = build_lattice((2, 2), 4)
    c = np.zeros(lat.size)
    c[lat.index[(0, 0)]] = 1.0
    assert np.abs(symp_fourier(c, lat) - 1.0).max() < 1e-14


def test_symp_fourier_constant_sequence():
    lat = build_lattice((2, 2), 4)
    F = symp_fourier(np.ones(lat.size), lat)
    expected = np.zeros(lat.size, complex)
    expected[0] = lat.size  # transversal starts at the (0, 0) coset
    assert np.abs(F - expected).max() < 1e-12


def test_symp_fourier_shifted_delta():
    lat = build_lattice((2, 2), 4)
    c = np.zeros(lat.size)
    c[lat.index[(2, 0)]] = 1.0
    F = symp_fourier(c, lat)
    expected = np.array([np.exp(-1j * np.pi * xi[1]) for xi in dual_transversal(lat)])
    assert np.abs(F - expected).max() < 1e-12


def test_symp_fourier_coset_invariance(rng):
    for lat in zoo():
        c = rand_seq(rng, lat.size)
        F = symp_fourier(c, lat)
        L = lat.modulus
        ann = annihilator(lat).points
        # evaluating at xi + lam0 gives the same value
        for k, xi in enumerate(dual_transversal(lat)[: 4]):
            for a in ann[: 4]:
                shifted = ((xi[0] + a[0]) % L, (xi[1] + a[1]) % L)
                val = sum(
                    c[j] * np.exp(2j * np.pi * symplectic_form(p, shifted, L) / L)
                    for j, p in enumerate(lat.points)
                )
                assert abs(val - F[k]) < 1e-12


def test_inv_symp_fourier_constant_gives_delta():
    lat = build_lattice((2, 2), 4)
    c = inv_symp_fourier(np.ones(lat.size), lat)
    expected = np.zeros(lat.size, complex)
    expected[lat.index[(0, 0)]] = 1.0
    assert np.abs(c - expected).max() < 1e-14


def test_symp_fourier_round_trip(rng):
    for lat in zoo():
        c = rand_seq(rng, lat.size)
        assert np.abs(inv_symp_fourier(symp_fourier(c, lat), lat) - c).max() < 1e-12


def test_symp_fourier_round_trip_delta():
    lat = build_lattice((2, 2), 4)
    c = np.zeros(lat.size)
    c[lat.index[(2, 0)]] = 1.0
    back = inv_symp_fourier(symp_fourier(c, lat), lat)
    assert np.abs(back - c).max() < 1e-13


def test_parseval(rng):
    for lat in zoo():
        c = rand_seq(rng, lat.size)
        F = symp_fourier(c, lat)
        lhs = (np.abs(F) ** 2).sum()
        rhs = lat.size * (np.abs(c) ** 2).sum()
        assert abs(lhs - rhs) < 1e-10 * rhs


# ---------------------------------------------------------------- lattice convolution

def test_convolve_identity():
    lat = build_lattice((2, 3), 6)
    rng = np.random.default_rng(5)
    c = rand_seq(rng, lat.size)
    delta = np.zeros(lat.size)
    delta[lat.index[(0, 0)]] = 1.0
    assert np.abs(lattice_convolve(c, delta, lat) - c).max() < 1e-14


def test_convolve_deltas_add_points():
    lat = build_lattice((2, 2), 8)
    mu, nu = (2, 4), (6, 2)
    dm = np.zeros(lat.size)
    dm[lat.index[mu]] = 1.0
    dn = np.zeros(lat.size)
    dn[lat.index[nu]] = 1.0
    out = lattice_convolve(dm, dn, lat)
    expected = np.zeros(lat.size)
    expected[lat.index[(0, 6)]] = 1.0  # mu + nu mod 8
    assert np.abs(out - expected).max() == 0


def test_convolution_theorem(rng):
    for lat in zoo():
        c = rand_seq(rng, lat.size)
        d = rand_seq(rng, lat.size)
        lhs = symp_fourier(lattice_convolve(c, d, lat), lat)
        rhs = symp_fourier(c, lat) * symp_fourier(d, lat)
        assert np.abs(lhs - rhs).max() < 1e-12 * max(1.0, np.abs(rhs).max())


# ---------------------------------------------------------------- membership and coset transversals

def test_membership_is_read_off_the_normal_form():
    lat = build_lattice([(2, 1), (0, 4)], 8)
    assert (0, 0) in lat and (2, 1) in lat and (6, 7) in lat and np.array([4, 2]) in lat
    assert (2, 0) not in lat and (1, 1) not in lat
    # points outside the range stay outside, and so does anything that is not a pair
    for p in [(8, 0), (0, 8), (10, 1), (-2, 7), (2, -3), (4,), (0, 0, 0), "ab", (0.5, 0)]:
        assert p not in lat
    assert lat.locate(6, 7) == (lat.index[(6, 7)], True)


def test_coset_transversal_identity_case():
    lat = build_lattice((2, 2), 8)
    reps = coset_transversal(lat, lat)
    assert reps == ((0, 0),)


def test_coset_transversal_index_two():
    lat = build_lattice((2, 2), 8)
    sub = build_lattice([(4, 0), (0, 2)], 8)
    reps = coset_transversal(lat, sub)
    assert len(reps) == 2
    assert reps[0] == (0, 0)


def test_coset_transversal_rejects_non_subgroup():
    lat = build_lattice((2, 2), 8)
    other = build_lattice((1, 1), 4)
    with pytest.raises(LatticeError):
        coset_transversal(lat, other)
    not_contained = build_lattice((1, 2), 8)
    with pytest.raises(LatticeError):
        coset_transversal(lat, not_contained)
