import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opsis import config
from opsis.config import ConfigError, PortableRng, parse_config
from opsis.timefreq import gaussian_window
from oracle import portable_complex_normal

MASK = (1 << 64) - 1
BLOCK = config._BLOCK


def test_splitmix64_reference_vectors():
    # first outputs of the reference SplitMix64 stream for seed 0
    rng = PortableRng(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_uniform_range_and_determinism():
    a, b = PortableRng(99), PortableRng(99)
    us = [a.uniform() for _ in range(1000)]
    assert all(0.0 <= u < 1.0 for u in us)
    assert us == [b.uniform() for _ in range(1000)]


def test_complex_normal_moments():
    z = PortableRng(7).complex_normal(20000)
    assert abs(z.mean()) < 0.02
    assert abs((np.abs(z) ** 2).mean() - 1.0) < 0.02


def same_bits(a, b):
    """Equal shapes and equal float64 bit patterns, signs of zero and NaN payloads included."""
    return a.shape == b.shape and np.array_equal(a.reshape(-1).view(np.uint64),
                                                 b.reshape(-1).view(np.uint64))


SEEDS = [0, 1, 12345, 2**63, 2**64 - 1, -1, -5, -(2**70), 987654321987]
SHAPES = [(), 0, 1, 7, (1, 3), (16, 16), (3, 2, 2), BLOCK + 1, (3, BLOCK // 2 + 1)]


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("seed", SEEDS)
def test_complex_normal_matches_per_value_loop(seed, shape):
    fast, slow = PortableRng(seed), PortableRng(seed)
    for draw in (shape, 5):
        assert same_bits(fast.complex_normal(draw), portable_complex_normal(slow, draw))
        assert fast.next_u64() == slow.next_u64()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(-(2**66), 2**66),
       st.lists(st.one_of(st.integers(0, 40), st.lists(st.integers(0, 5), max_size=3)
                          .map(tuple)), min_size=1, max_size=4))
def test_complex_normal_stream_matches_loop_across_draws(seed, shapes):
    fast, slow = PortableRng(seed), PortableRng(seed)
    for shape in shapes:
        assert same_bits(fast.complex_normal(shape), portable_complex_normal(slow, shape))
        assert fast.uniform() == slow.uniform()
    assert fast.next_u64() == slow.next_u64()


def seed_with_first_output(out):
    """The seed whose first next_u64 is out: the SplitMix64 finalizer run backwards."""
    def unshift(z, k):
        y = z
        for _ in range(64 // k + 1):
            y = z ^ (y >> k)
        return y
    z = unshift(out, 31)
    z = unshift(z * pow(0x94D049BB133111EB, -1, 1 << 64) & MASK, 27)
    z = unshift(z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & MASK, 30)
    return (z - 0x9E3779B97F4A7C15) & MASK


@pytest.mark.parametrize("first", [MASK, MASK ^ 0x7FF, 0, 0x7FF])
def test_complex_normal_matches_loop_at_the_ends_of_u1(first):
    # first >> 11 = 2^53 - 1 gives u1 = 1 and a zero radius r = -0.0, whose
    # signs of zero the loop's complex / float decides; 0 gives u1 = 2^-53
    seed = seed_with_first_output(first)
    assert PortableRng(seed).next_u64() == first
    z = PortableRng(seed).complex_normal(3)
    assert same_bits(z, portable_complex_normal(PortableRng(seed), 3))
    assert (z[0] == 0) == (first >> 11 == (1 << 53) - 1)


@pytest.mark.parametrize("second", [0, 0x7FF, MASK, MASK ^ 0x7FF])
def test_complex_normal_matches_loop_at_the_ends_of_u2(second):
    # second >> 11 = 0 gives u2 = 0, a zero angle whose sine, +0.0, sets the
    # sign of the imaginary zero; 2^53 - 1 gives u2 = 1 - 2^-53
    seed = (seed_with_first_output(second) - 0x9E3779B97F4A7C15) & MASK
    rng = PortableRng(seed)
    rng.next_u64()
    assert rng.next_u64() == second
    z = PortableRng(seed).complex_normal(3)
    assert same_bits(z, portable_complex_normal(PortableRng(seed), 3))
    if second >> 11 == 0:
        assert z[0].imag == 0 and not np.signbit(z[0].imag)


@pytest.mark.parametrize("seed", [5, 2**64 - 3])
def test_complex_normal_matches_loop_on_many_values(seed):
    # 16 blocks: every angle goes through cmath.exp, which must agree with
    # math.cos and math.sin bit for bit
    fast, slow = PortableRng(seed), PortableRng(seed)
    assert same_bits(fast.complex_normal(2**17), portable_complex_normal(slow, 2**17))


def test_complex_normal_memory_is_bounded_by_the_block():
    # the (512, 512) output alone is 4.2 MB; an unblocked draw peaks near 29 MB
    tracemalloc.start()
    try:
        PortableRng(0).complex_normal((512, 512))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


RANDOM_ITEMS = {
    "L": 6,
    "seed": 2024,
    "lattice": {"a": 2, "b": 3},
    "generators": [
        {"kind": "random"},
        {"kind": "rank_one", "left": {"kind": "random"}, "right": {"kind": "random", "seed": 9}},
        {"kind": "random", "seed": -3},
    ],
    "dual_perturbation": {"enabled": True, "scale": 0.5},
}
SCHEMES = [
    {"windows": [{"g": {"kind": "random"}, "g_tilde": {"kind": "random"}},
                 {"g": {"kind": "gaussian"}, "g_tilde": {"kind": "random"}}]},
    {"averagers": [{"kind": "random"},
                   {"kind": "rank_one", "left": {"kind": "random"}, "right": {"kind": "gaussian"}},
                   {"kind": "random", "seed": 2**64 - 1}]},
]


@pytest.mark.parametrize("seed_override", [None, 0, 99])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_parse_config_walk_matches_per_value_loop(monkeypatch, scheme, seed_override):
    raw = dict(RANDOM_ITEMS, scheme=scheme)
    fast = parse_config(raw, seed_override)
    monkeypatch.setattr(PortableRng, "complex_normal",
                        lambda self, shape: portable_complex_normal(self, shape))
    slow = parse_config(raw, seed_override)
    assert (fast.coef_seed, fast.dual_seed) == (slow.coef_seed, slow.dual_seed)
    pairs = [*zip(fast.generator_kernels, slow.generator_kernels),
             *zip(fast.scheme.averagers, slow.scheme.averagers)]
    if fast.scheme.windows is not None:
        pairs += [(w, v) for f, s in zip(fast.scheme.windows, slow.scheme.windows)
                  for w, v in zip(f, s)]
    assert all(same_bits(f, s) for f, s in pairs)


def test_parse_config_builds_objects():
    raw = {
        "L": 8,
        "seed": 3,
        "lattice": {"a": 2, "b": 2},
        "generators": [{"kind": "rank_one", "left": {"kind": "gaussian"},
                        "right": {"kind": "delta", "at": 1}}],
        "scheme": {"windows": [{"g": {"kind": "gaussian"}, "g_tilde": {"kind": "gaussian"}}]},
    }
    cfg = parse_config(raw)
    assert cfg.lattice.size == 16
    assert cfg.system.num_generators == 1
    g = gaussian_window(8)
    expected = np.outer(g, np.conj(np.eye(8, dtype=complex)[1]))
    assert np.abs(cfg.system.generators[0] - expected).max() < 1e-12
    assert cfg.scheme.num_channels == 1


def test_parse_config_random_items_are_seed_stable():
    raw = {
        "L": 8,
        "seed": 11,
        "lattice": {"a": 2, "b": 2},
        "generators": [{"kind": "random"}, {"kind": "random"}],
    }
    g1 = parse_config(raw).system.generators
    g2 = parse_config(raw).system.generators
    assert np.abs(g1[0] - g2[0]).max() == 0.0
    assert np.abs(g1[1] - g2[1]).max() == 0.0
    assert np.abs(g1[0] - g1[1]).max() > 0.1  # distinct subseeds
    g3 = parse_config(raw, seed_override=12).system.generators
    assert np.abs(g1[0] - g3[0]).max() > 0.1


def test_parse_config_explicit_item_seed_wins():
    raw = {
        "L": 4,
        "seed": 1,
        "lattice": {"a": 2, "b": 2},
        "generators": [{"kind": "random", "seed": 55}],
    }
    other = dict(raw, seed=2)
    g1 = parse_config(raw).system.generators[0]
    g2 = parse_config(other).system.generators[0]
    assert np.abs(g1 - g2).max() == 0.0


@pytest.mark.parametrize(
    "raw",
    [
        {"L": "eight"},
        {"L": 8, "lattice": {"a": 3, "b": 2}},
        {"L": 8, "lattice": {"a": 2}},
        {"L": 8, "lattice": {"a": 2, "b": 2}, "generators": []},
        {"L": 8, "lattice": {"a": 2, "b": 2},
         "generators": [{"kind": "mystery"}]},
        {"L": 8, "lattice": {"a": 2, "b": 2},
         "generators": [{"kind": "random"}],
         "scheme": {"windows": [{"g": {"kind": "delta", "at": 99},
                                 "g_tilde": {"kind": "delta"}}]}},
        {"L": 8, "lattice": {"a": 2, "b": 2},
         "generators": [{"kind": "random"}],
         "scheme": {}},
        {"L": 8, "lattice": {"a": 2, "b": 2},
         "sublattice": {"a": 1, "b": 1},
         "generators": [{"kind": "random"}]},
    ],
)
def test_parse_config_rejects_bad_inputs(raw):
    with pytest.raises(ConfigError):
        parse_config(raw)
