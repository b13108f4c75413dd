"""Experiment configuration: JSON schema validation, deterministic seeding,
and construction of lattices, generator systems and sampling schemes.

Randomness is driven by a portable, fully documented generator so that
fixtures reproduce across implementations and platforms:

* the core stream is SplitMix64: state advances by 0x9E3779B97F4A7C15 mod
  2^64, and each output is the state passed through the standard finalizer
  (z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27;
  z *= 0x94D049BB133111EB; z ^= z >> 31);
* uniforms in [0, 1) take the top 53 bits, u = (out >> 11) * 2^-53;
* complex standard normals come from one Box-Muller step per value,
  (sqrt(-2 ln u1) cos(2 pi u2) + i sqrt(-2 ln u1) sin(2 pi u2)) / sqrt(2),
  with u1 in (0, 1] from ((out >> 11) + 1) * 2^-53, so E|z|^2 = 1.

The state after k steps is seed + k * 0x9E3779B97F4A7C15 mod 2^64, so
complex_normal computes a block of outputs at once in wrapping uint64
arithmetic.  The logarithm, cosine and sine are the C library's, applied
per value: math.log, and one cmath.exp(i angle) for the cosine and sine,
which CPython computes as exp(0.0) cos(angle) + i exp(0.0) sin(angle), so
it equals math.cos and math.sin bit for bit.  numpy's SIMD versions may
differ from the C library in the last bit, which would tie the stream to
the numpy build.  The blocked draw is bit-identical to drawing value by
value with next_u64 and math.log, math.cos and math.sin.

A master stream seeded with the config seed hands one 64-bit subseed to
every random item that does not carry its own "seed" key, walking the
config in a fixed order: generators first, then scheme entries, then the
coefficient stream, then the dual-perturbation stream.

:func:`parse_config` returns an :class:`ExperimentConfig`, a mutable
SimpleNamespace subclass with an explicit constructor over its ten fields;
it is not a dataclass, so importing this module generates no code.
"""

from __future__ import annotations

import cmath
import json
import math
from types import SimpleNamespace

import numpy as np

from .hs_ops import rank_one
from .phase_space import Lattice, LatticeError, build_lattice
from .sampling import SamplingScheme, average_scheme, window_scheme
from .si_space import GeneratorSystem
from .timefreq import gaussian_window

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_BLOCK = 8192  # complex normals per vectorised block; bounds the temporaries


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


def _item_seed(spec, master: "PortableRng", label):
    if "seed" not in spec:
        return master.next_u64()
    seed = spec["seed"]
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError(f"'{label}.seed' must be an integer")
    return seed


class PortableRng:
    """SplitMix64 stream with uniform and complex-normal draws (see module docs)."""

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * 2.0 ** -53

    def complex_normal(self, shape) -> np.ndarray:
        n = int(np.prod(shape))
        out = np.empty(n, dtype=complex)
        for start in range(0, n, _BLOCK):
            self._box_muller(out[start:start + _BLOCK])
        return out.reshape(shape)

    def _box_muller(self, out: np.ndarray) -> None:
        """Fill out with the next len(out) complex normals, advancing the state.

        The state after k steps is state + k * GAMMA mod 2^64, so the block's
        2 len(out) outputs are computed at once in wrapping uint64 arithmetic.
        """
        count = 2 * len(out)
        z = np.uint64(self._state) + np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GAMMA)
        self._state = (self._state + count * _GAMMA) & _MASK
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        z >>= np.uint64(11)
        u1 = (z[0::2] + np.uint64(1)).astype(float) * 2.0 ** -53
        u2 = z[1::2].astype(float) * 2.0 ** -53
        r = np.sqrt(-2.0 * _per_value(math.log, u1))
        # exp(0.0) cos(y) + i exp(0.0) sin(y) with the C library's cos and
        # sin: math.cos and math.sin in one call.  The real part must be an
        # exact zero, hence zeros and not empty.
        iangle = np.zeros(len(out), dtype=complex)
        iangle.imag = 2 * math.pi * u2
        unit = _per_value(cmath.exp, iangle, complex)
        re = r * unit.real
        im = r * unit.imag
        # The per-value loop's complex / float divided by complex(sqrt(2), 0.0); the
        # "+- 0.0 *" terms keep its signs of zero when u1 = 1 makes r = -0.0.
        out.real = (re + im * 0.0) / math.sqrt(2)
        out.imag = (im - re * 0.0) / math.sqrt(2)


def _per_value(func, x: np.ndarray, dtype=float) -> np.ndarray:
    """func applied to each value of x; math's and cmath's functions, not numpy's (see module docs)."""
    return np.fromiter(map(func, x.tolist()), dtype, len(x))


class ExperimentConfig(SimpleNamespace):
    """Resolved experiment inputs plus raw options for the runners.

    Mutable; compares and prints field by field, as a SimpleNamespace does.
    """

    L: int
    seed: int
    lattice: Lattice | None
    sublattice: Lattice | None
    generator_kernels: tuple[np.ndarray, ...] | None
    system: GeneratorSystem | None
    scheme: SamplingScheme | None
    coef_seed: int
    dual_seed: int
    options: dict

    def __init__(self, L, seed, lattice, sublattice, generator_kernels, system, scheme,
                 coef_seed, dual_seed, options=None):
        super().__init__(L=L, seed=seed, lattice=lattice, sublattice=sublattice,
                         generator_kernels=generator_kernels, system=system, scheme=scheme,
                         coef_seed=coef_seed, dual_seed=dual_seed,
                         options={} if options is None else options)


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return raw


def _require_int(raw, key, minimum=None):
    val = raw.get(key)
    if not isinstance(val, int) or isinstance(val, bool):
        raise ConfigError(f"'{key}' must be an integer, got {val!r}")
    if minimum is not None and val < minimum:
        raise ConfigError(f"'{key}' must be >= {minimum}, got {val}")
    return val


def _build_lattice(spec, L, label):
    if not isinstance(spec, dict):
        raise ConfigError(f"'{label}' must be an object")
    try:
        if "generators" in spec:
            gens = spec["generators"]
            pairs = isinstance(gens, list) and all(isinstance(p, list) and len(p) == 2 for p in gens)
            if not pairs:
                raise ConfigError(f"'{label}.generators' must be a list of [x, w] integer pairs")
            return build_lattice([tuple(p) for p in gens], L)
        a = _require_int(spec, "a", minimum=1)
        b = _require_int(spec, "b", minimum=1)
        return build_lattice((a, b), L)
    except (LatticeError, TypeError, KeyError) as exc:
        raise ConfigError(f"invalid '{label}': {exc}") from exc


def _complex_vector(values, L, label):
    try:
        vec = np.array([complex(re, im) for re, im in values])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"'{label}' must be a list of [re, im] pairs: {exc}") from exc
    if vec.shape != (L,):
        raise ConfigError(f"'{label}' must have length {L}, got {vec.shape}")
    return vec


def _window(spec, L, master: PortableRng, label):
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"'{label}' must be an object with a 'kind'")
    kind = spec["kind"]
    if kind == "gaussian":
        return gaussian_window(L)
    if kind == "delta":
        at = spec.get("at", 0)
        if isinstance(at, bool) or not isinstance(at, int) or not 0 <= at < L:
            raise ConfigError(f"'{label}.at' must be an integer in [0, {L})")
        vec = np.zeros(L, dtype=complex)
        vec[at] = 1.0
        return vec
    if kind == "random":
        vec = PortableRng(_item_seed(spec, master, label)).complex_normal(L)
        return vec / np.linalg.norm(vec)
    if kind == "explicit":
        return _complex_vector(spec.get("values"), L, f"{label}.values")
    raise ConfigError(f"unknown window kind {kind!r} in '{label}'")


def _generator(spec, L, master: PortableRng, label):
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"'{label}' must be an object with a 'kind'")
    kind = spec["kind"]
    if kind == "rank_one":
        left = _window(spec.get("left"), L, master, f"{label}.left")
        right = _window(spec.get("right"), L, master, f"{label}.right")
        return rank_one(left, right)
    if kind == "random":
        kern = PortableRng(_item_seed(spec, master, label)).complex_normal((L, L))
        return kern / np.linalg.norm(kern)
    if kind == "explicit_kernel":
        rows = spec.get("kernel")
        if not isinstance(rows, list) or len(rows) != L:
            raise ConfigError(f"'{label}.kernel' must be a list of {L} rows")
        return np.array([_complex_vector(row, L, f"{label}.kernel") for row in rows])
    raise ConfigError(f"unknown generator kind {kind!r} in '{label}'")


def parse_config(raw: dict, seed_override: int | None = None) -> ExperimentConfig:
    """Validate a raw config dict and build the experiment objects it describes.

    Lattice, system and scheme are optional at this stage; runners demand
    the pieces they actually need.
    """
    L = _require_int(raw, "L", minimum=2)
    seed = seed_override if seed_override is not None else raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError(f"'seed' must be an integer, got {seed!r}")
    master = PortableRng(seed)

    lattice = None
    if "lattice" in raw:
        lattice = _build_lattice(raw["lattice"], L, "lattice")

    kernels = None
    system = None
    if "generators" in raw:
        if lattice is None and "sweep" not in raw:
            raise ConfigError("'generators' given without a 'lattice'")
        specs = raw["generators"]
        if not isinstance(specs, list) or not specs:
            raise ConfigError("'generators' must be a non-empty list")
        kernels = tuple(
            _generator(s, L, master, f"generators[{i}]") for i, s in enumerate(specs)
        )
        if lattice is not None:
            system = GeneratorSystem(lattice, kernels)

    scheme = None
    if "scheme" in raw:
        spec = raw["scheme"]
        if not isinstance(spec, dict):
            raise ConfigError("'scheme' must be an object")
        if ("windows" in spec) == ("averagers" in spec):
            raise ConfigError("'scheme' needs exactly one of 'windows' or 'averagers'")
        if "windows" in spec:
            items = spec["windows"]
            if not isinstance(items, list) or not items:
                raise ConfigError("'scheme.windows' must be a non-empty list")
            pairs = []
            for i, item in enumerate(items):
                if not isinstance(item, dict):
                    raise ConfigError(f"'scheme.windows[{i}]' must be an object")
                g = _window(item.get("g"), L, master, f"scheme.windows[{i}].g")
                gt = _window(item.get("g_tilde"), L, master, f"scheme.windows[{i}].g_tilde")
                pairs.append((g, gt))
            scheme = window_scheme(pairs)
        else:
            items = spec["averagers"]
            if not isinstance(items, list) or not items:
                raise ConfigError("'scheme.averagers' must be a non-empty list")
            ops = [
                _generator(item, L, master, f"scheme.averagers[{i}]")
                for i, item in enumerate(items)
            ]
            scheme = average_scheme(ops)

    sublattice = None
    if "sublattice" in raw:
        sublattice = _build_lattice(raw["sublattice"], L, "sublattice")
        if lattice is not None:
            if not set(sublattice.points) <= set(lattice.points):
                raise ConfigError("'sublattice' is not contained in 'lattice'")

    coef_seed = master.next_u64()
    dual_seed = master.next_u64()

    options = {
        k: raw[k]
        for k in ("channel", "sweep", "tolerances", "dual_perturbation")
        if k in raw
    }
    return ExperimentConfig(
        L=L,
        seed=seed,
        lattice=lattice,
        sublattice=sublattice,
        generator_kernels=kernels,
        system=system,
        scheme=scheme,
        coef_seed=coef_seed,
        dual_seed=dual_seed,
        options=options,
    )
