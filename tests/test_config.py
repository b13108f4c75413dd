import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opsis
from opsis import config
from opsis.config import ConfigError, PortableRng, parse_config
from opsis.hs_ops import rank_one
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


@pytest.mark.parametrize("counts", [[0, 3, 0], [BLOCK - 1, 2, BLOCK + 3], [5, BLOCK, 1]])
def test_multi_stream_kernel_matches_one_stream_at_a_time(counts):
    # blocks run across the boundaries between streams
    seeds = [3, 2**64 - 1, 12345]
    out = np.empty(sum(counts), dtype=complex)
    config._complex_normals(out, list(zip(seeds, counts)))
    slow = [portable_complex_normal(PortableRng(s), c) for s, c in zip(seeds, counts)]
    assert same_bits(out, np.concatenate(slow))


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
    # first >> 11 = 2^53 - 1 gives u1 = 1 and a zero radius r = +0.0, whose
    # products with the cosine and sine set the signs of zero; 0 gives u1 = 2^-53
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
    # 16 blocks: the numpy kernel must agree with the loop over Python
    # floats bit for bit on every value
    fast, slow = PortableRng(seed), PortableRng(seed)
    assert same_bits(fast.complex_normal(2**17), portable_complex_normal(slow, 2**17))


# The first 8 values of two seeds under seeding contract v2; the second seed's
# first output gives u1 = 1, a zero radius.
GOLDEN = {
    2024: [
        ("0x1.209cc7ccbc223p-1", "0x1.943ac3854a092p-2"),
        ("0x1.a374131006962p-1", "0x1.7764b651e0be9p-1"),
        ("-0x1.a179f61d26329p-2", "-0x1.1d6833a6c6beep-3"),
        ("-0x1.28edc7d0a7dd5p+0", "-0x1.9af5b6c6e01adp-1"),
        ("-0x1.31ffcf57d38afp+0", "0x1.2ee3681f58cdep-1"),
        ("0x1.d3f78c59e62f7p-2", "-0x1.809d80ad35ec5p-1"),
        ("-0x1.bd52125220273p-3", "-0x1.661993df20371p-2"),
        ("-0x1.0abc532c8831ep-1", "-0x1.496a477cd68a9p+0"),
    ],
    seed_with_first_output(MASK): [
        ("0x0.0p+0", "-0x0.0p+0"),
        ("0x1.d7c4743e175c4p-2", "0x1.263906a14608ep-4"),
        ("-0x1.573de39158f4dp-1", "-0x1.d2812f9401622p-3"),
        ("-0x1.ef94cf86b607ep-5", "-0x1.c5d4e58086aafp-3"),
        ("-0x1.b9862bed78a71p-1", "0x1.73c9d6f04c818p-5"),
        ("-0x1.06818e1efa53bp-3", "0x1.be2cb8689b097p-1"),
        ("-0x1.76a48e1e45dffp-3", "0x1.a3e9afae51f92p-1"),
        ("0x1.fe004bf3269dap+0", "-0x1.4b5064e2a2688p-4"),
    ],
}


@pytest.mark.parametrize("seed", GOLDEN)
def test_complex_normal_golden_values(seed):
    expected = GOLDEN[seed]
    for z in (PortableRng(seed).complex_normal(8),
              portable_complex_normal(PortableRng(seed), 8)):
        assert [(v.real.hex(), v.imag.hex()) for v in z] == expected


def _two_product(a, b):
    """p, e with p + e = a b exactly: Dekker's product, with no fused multiply-add."""
    def split(x):
        t = 134217729.0 * x  # 2^27 + 1
        hi = t - (t - x)
        return hi, x - hi
    p = a * b
    (a1, a2), (b1, b2) = split(a), split(b)
    return p, ((a1 * b1 - p) + a1 * b2 + a2 * b1) + a2 * b2


def test_box_muller_is_within_four_eps_of_the_exact_value():
    # A 320 x 320 grid of (u1, u2), random values plus every quadrant boundary
    # u2 in {0, 1/8, ..., 7/8, 1 - 2^-53}, u1 in {2^-53, 1/2, 1}, u1 at the
    # sqrt(1/2) renormalisation, and the neighbours of each.  The references
    # sqrt(-ln u1) and cos, sin(2 pi u2) come from mpmath as double-double
    # pairs hi + lo; the error of the kernel's output z is then exact to about
    # eps^2 r, with p + e the exact product hi hi.
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(12)
    top = (1 << 53) - 1
    ends1 = [0, (1 << 52) - 1, top,
             *(math.ceil(config._SQRT_HALF * 2.0 ** (53 - d)) - 1 for d in (0, 1, 30, 52))]
    ends2 = [k << 50 for k in range(8)] + [top]
    b1 = sorted({min(max(b + d, 0), top) for b in ends1 for d in (-1, 0, 1)})
    b2 = sorted({min(max(b + d, 0), top) for b in ends2 for d in (-1, 0, 1)})
    b1 += [int(v) for v in rng.integers(0, 1 << 53, 320 - len(b1), dtype=np.uint64)]
    b2 += [int(v) for v in rng.integers(0, 1 << 53, 320 - len(b2), dtype=np.uint64)]

    def pair(x):
        hi = float(x)
        return hi, float(x - hi)

    with mpmath.workprec(120):
        radius = np.array([pair(mpmath.sqrt(-mpmath.log(mpmath.mpf(b + 1) / 2**53))) for b in b1])
        angle = [2 * mpmath.pi * mpmath.mpf(b) / 2**53 for b in b2]
        cos = np.array([pair(mpmath.cos(a)) for a in angle])
        sin = np.array([pair(mpmath.sin(a)) for a in angle])
    bits = np.empty((len(b1), len(b2), 2), dtype=np.uint64)
    bits[..., 0] = np.array(b1, dtype=np.uint64)[:, None]
    bits[..., 1] = np.array(b2, dtype=np.uint64)
    z = np.empty(bits.size // 2, dtype=complex)
    config._box_muller(bits.reshape(-1), z)
    z = z.reshape(len(b1), len(b2))

    def error(part, unit):
        (rh, rl), (uh, ul) = radius.T[:, :, None], unit.T[:, None, :]
        p, e = _two_product(rh, uh)
        return (part - p) - e - (rh * ul + rl * uh)

    err = np.hypot(error(z.real, cos), error(z.imag, sin))
    assert z.size >= 10**5
    assert (err <= 4 * np.finfo(float).eps * radius[:, :1]).all()


def test_box_muller_kernel_holds_at_most_eight_times_its_output():
    # one full block: the finalizer's bits, the kernel's reused buffers and its
    # (3, n) Horner pass come to about 6.6 times the output
    out = np.empty(BLOCK, dtype=complex)
    tracemalloc.start()
    try:
        config._complex_normals(out, [(3, BLOCK)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * out.nbytes


def test_complex_normal_pseudo_variance_vanishes():
    # a circular normal has E z^2 = 0; 2^17 values give a standard error near 0.004
    z = PortableRng(11).complex_normal(2**17)
    assert abs((z * z).mean()) < 0.02


def test_package_version_matches_pyproject():
    # README dates each seeding contract by the package version (v2 from 0.2.0)
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    assert re.search(r'^version = "([^"]+)"', text, re.M).group(1) == opsis.__version__


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


def oracle_walk(raw, seed_override):
    """raw's kernels, window pairs, averagers and (coef_seed, dual_seed), from the per-value loop.

    Every random item without its own seed takes the next output of the
    master stream, in the walk order the seeding contract fixes, and is drawn
    by oracle.portable_complex_normal and normalised on its own.
    """
    L = raw["L"]
    master = PortableRng(raw["seed"] if seed_override is None else seed_override)

    def draw(spec, shape):
        seed = spec["seed"] if "seed" in spec else master.next_u64()
        values = portable_complex_normal(PortableRng(seed), shape)
        return values / np.linalg.norm(values)

    def window(spec):
        return draw(spec, L) if spec["kind"] == "random" else gaussian_window(L)

    def generator(spec):
        if spec["kind"] == "random":
            return draw(spec, (L, L))
        return rank_one(window(spec["left"]), window(spec["right"]))

    kernels = [generator(spec) for spec in raw["generators"]]
    scheme = raw["scheme"]
    windows = [(window(item["g"]), window(item["g_tilde"])) for item in scheme.get("windows", [])]
    averagers = [generator(spec) for spec in scheme.get("averagers", [])]
    return kernels, windows, averagers, (master.next_u64(), master.next_u64())


@pytest.mark.parametrize("seed_override", [None, 0, 99])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_parse_config_walk_matches_per_value_loop(scheme, seed_override):
    raw = dict(RANDOM_ITEMS, scheme=scheme)
    cfg = parse_config(raw, seed_override)
    kernels, windows, averagers, seeds = oracle_walk(raw, seed_override)
    assert (cfg.coef_seed, cfg.dual_seed) == seeds
    fast, slow = [*cfg.generator_kernels], kernels
    if windows:
        fast += [w for pair in cfg.scheme.windows for w in pair]
        slow += [w for pair in windows for w in pair]
    else:
        fast += tuple(cfg.scheme)
        slow += averagers
    assert len(fast) == len(slow) and all(same_bits(f, s) for f, s in zip(fast, slow))


# The first entry of each generator kernel of RANDOM_ITEMS under seeding
# contract v2, then its coefficient and dual-perturbation subseeds.
WALK_GOLDEN = (
    [("-0x1.72a62e91d6502p-5", "0x1.f00beab75f043p-4"),
     ("-0x1.02d9ac8b08c76p-4", "-0x1.761b600c5dc98p-5"),
     ("0x1.c10e85c1f1a4fp-6", "-0x1.d2e3e1a7ff67dp-7")],
    0x4C6F7CBF58DBA57F,
    0x1DBE69E0AE9BB859,
)


def test_parse_config_walk_golden_values():
    cfg = parse_config(RANDOM_ITEMS)
    firsts = [(k.flat[0].real.hex(), k.flat[0].imag.hex()) for k in cfg.generator_kernels]
    assert (firsts, cfg.coef_seed, cfg.dual_seed) == WALK_GOLDEN


def test_parse_config_memory_is_bounded_by_the_block():
    # two random 512 x 512 generators are 8.4 MB of values; drawing every bit
    # of the walk at once peaks near 27 MB (a sweep stands in for the lattice)
    raw = {"L": 512, "sweep": {"a": [2], "b": [2]}, "generators": [{"kind": "random"}] * 2}
    tracemalloc.start()
    try:
        parse_config(raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 13e6


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
    assert len(cfg.generator_kernels) == 1
    g = gaussian_window(8)
    expected = np.outer(g, np.conj(np.eye(8, dtype=complex)[1]))
    assert np.abs(cfg.generator_kernels[0] - expected).max() < 1e-12
    assert len(cfg.scheme) == 1


def test_parse_config_random_items_are_seed_stable():
    raw = {
        "L": 8,
        "seed": 11,
        "lattice": {"a": 2, "b": 2},
        "generators": [{"kind": "random"}, {"kind": "random"}],
    }
    g1 = parse_config(raw).generator_kernels
    g2 = parse_config(raw).generator_kernels
    assert np.abs(g1[0] - g2[0]).max() == 0.0
    assert np.abs(g1[1] - g2[1]).max() == 0.0
    assert np.abs(g1[0] - g1[1]).max() > 0.1  # distinct subseeds
    g3 = parse_config(raw, seed_override=12).generator_kernels
    assert np.abs(g1[0] - g3[0]).max() > 0.1


def test_parse_config_explicit_item_seed_wins():
    raw = {
        "L": 4,
        "seed": 1,
        "lattice": {"a": 2, "b": 2},
        "generators": [{"kind": "random", "seed": 55}],
    }
    other = dict(raw, seed=2)
    g1 = parse_config(raw).generator_kernels[0]
    g2 = parse_config(other).generator_kernels[0]
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
