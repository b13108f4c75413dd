"""Experiment configuration: JSON schema validation, deterministic seeding,
and construction of lattices, generator systems and sampling schemes.

Randomness is driven by a portable, fully documented generator so that
fixtures reproduce across implementations and platforms (seeding contract
v2, from opsis 0.2.0):

* the core stream is SplitMix64: state advances by 0x9E3779B97F4A7C15 mod
  2^64, and each output is the state passed through the standard finalizer
  (z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27;
  z *= 0x94D049BB133111EB; z ^= z >> 31);
* uniforms in [0, 1) take the top 53 bits, u = (out >> 11) * 2^-53;
* complex standard normals come from one Box-Muller step per value on two
  outputs, u1 = ((out1 >> 11) + 1) * 2^-53 in (0, 1] and
  u2 = (out2 >> 11) * 2^-53, as z = sqrt(-ln u1) (cos 2 pi u2 + i sin 2 pi u2),
  so E|z|^2 = 1.

The logarithm, cosine and sine are fixed polynomial kernels built from
+ - * /, sqrt, frexp, floor and exact integer-float conversions, each exact
or correctly rounded under IEEE-754, so a numpy block and a loop over
Python floats give the same bits on every platform (see _box_muller).  No
C-library log, cos or sin is called: those are not correctly rounded, and
the 0.1.0 stream, which used them, could differ in the last bit between C
libraries.  The state after k steps is seed + k * 0x9E3779B97F4A7C15 mod
2^64, so complex_normal computes a block of outputs at once in wrapping
uint64 arithmetic.

A master stream seeded with the config seed hands one 64-bit subseed to
every random item that does not carry its own "seed" key, walking the
config in a fixed order: generators first, then scheme entries, then the
coefficient stream, then the dual-perturbation stream.

:func:`parse_config` returns an :class:`ExperimentConfig`, a mutable
SimpleNamespace subclass with an explicit constructor over its ten fields;
it is not a dataclass, so importing this module generates no code.
"""

from __future__ import annotations

import json
import math
import sys
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
_U_GAMMA, _U_MUL1, _U_MUL2 = map(np.uint64, (_GAMMA, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB))
_U11, _U27, _U30, _U31 = map(np.uint64, (11, 27, 30, 31))

# Seeding contract v2.  ln 2 = LN2_HI + LN2_LO, LN2_HI being ln 2 cut to 32
# bits, so k * LN2_HI is exact for every k <= 53; SQRT_HALF is the double
# nearest sqrt(1/2).  The series are Taylor series, lowest order first, each
# coefficient the double nearest its exact value:
#   ATANH[k] = 2 / (2k + 1)                   2 atanh(s) = s sum ATANH[k] s^2k
#   SIN[k] = (-1)^k (2 pi)^(2k+1) / (2k+1)!   sin(2 pi f) = f sum SIN[k] f^2k
#   COS[k] = (-1)^k (2 pi)^2k / (2k)!         cos(2 pi f) = sum COS[k] f^2k
# Each series keeps every term whose largest value on its range, |s| <=
# (sqrt(2) - 1) / (sqrt(2) + 1) or |f| <= 1/8, is at least 2^-55 of its leading term.
_LN2_HI = float.fromhex("0x1.62e42fee00000p-1")
_LN2_LO = float.fromhex("0x1.a39ef35793c76p-33")
_SQRT_HALF = float.fromhex("0x1.6a09e667f3bcdp-1")
_ATANH = tuple(map(float.fromhex, (
    "0x1.0000000000000p+1", "0x1.5555555555555p-1", "0x1.999999999999ap-2",
    "0x1.2492492492492p-2", "0x1.c71c71c71c71cp-3", "0x1.745d1745d1746p-3",
    "0x1.3b13b13b13b14p-3", "0x1.1111111111111p-3", "0x1.e1e1e1e1e1e1ep-4",
    "0x1.af286bca1af28p-4")))
_SIN = tuple(map(float.fromhex, (
    "0x1.921fb54442d18p+2", "-0x1.4abbce625be53p+5", "0x1.466bc6775aae2p+6",
    "-0x1.32d2cce62bd86p+6", "0x1.50783487ee782p+5", "-0x1.e3074fde8871fp+3",
    "0x1.e8f434d018d63p+1", "-0x1.6fadb9f155744p-1", "0x1.aaec32af93359p-4")))
_COS = tuple(map(float.fromhex, (
    "0x1.0000000000000p+0", "-0x1.3bd3cc9be45dep+4", "0x1.03c1f081b5ac4p+6",
    "-0x1.55d3c7e3cbffap+6", "0x1.e1f506891babbp+5", "-0x1.a6d1f2a204a8cp+4",
    "0x1.f9d38a3763cc3p+2", "-0x1.b6e24f44b128fp+0", "0x1.20c62c2f2d7f5p-2")))


def _horner_table(*series):
    """One Horner table for several series: highest order first, a row per series.

    Shorter series are padded with leading zeros, which leave Horner's rule
    bit for bit as it is without them: 0 x + 0 = +0 for x >= 0, and
    +0 x + c = c.
    """
    table = np.zeros((max(map(len, series)), len(series), 1))
    for row, coefs in enumerate(series):
        table[len(table) - len(coefs):, row, 0] = coefs[::-1]
    return table


_HORNER = _horner_table(_SIN, _COS, _ATANH)


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
        out = np.empty(shape, dtype=complex)
        flat = out.reshape(-1)
        for start in range(0, flat.size, _BLOCK):
            block = flat[start:start + _BLOCK]
            _box_muller(self._top_bits(2 * len(block)), block)
        return out

    def _top_bits(self, count: int) -> np.ndarray:
        """out >> 11 for the next count outputs, as uint64, advancing the state.

        The state after k steps is state + k * GAMMA mod 2^64, so the outputs
        are computed at once in wrapping uint64 arithmetic.
        """
        z = np.arange(1, count + 1, dtype=np.uint64)
        z *= _U_GAMMA
        z += np.uint64(self._state)
        self._state = (self._state + count * _GAMMA) & _MASK
        z ^= z >> _U30
        z *= _U_MUL1
        z ^= z >> _U27
        z *= _U_MUL2
        z ^= z >> _U31
        z >>= _U11
        return z


def _box_muller(bits: np.ndarray, out: np.ndarray) -> None:
    """Fill out with complex normals, one from each pair of 53-bit integers in bits.

    bits[2i] and bits[2i + 1] give u1 = (bits[2i] + 1) 2^-53 in (0, 1] and
    u2 = bits[2i + 1] 2^-53 in [0, 1), and out[i] is
    sqrt(-ln u1) (cos 2 pi u2 + i sin 2 pi u2):

    * ln: frexp gives u1 = m 2^e, m in [1/2, 1); m < SQRT_HALF takes m to 2m
      and e to e - 1, so m lies in [sqrt(1/2), sqrt(2)).  With k = -e and
      s = (m - 1) / (m + 1), -ln u1 = k LN2_HI + (k LN2_LO - 2 atanh(s)).
    * cos and sin: j = floor(4 u2 + 1/2) and f = u2 - j/4, exact and in
      [-1/8, 1/8]; the series give c = cos 2 pi f and s = sin 2 pi f, and
      (cos, sin) of the angle is (c, s), (-s, c), (-c, -s) or (s, -c) for
      j mod 4 = 0, 1, 2 or 3.

    Every step is exact or one correctly rounded +, -, *, / or sqrt, so the
    per-value transcription in Python floats (tests/oracle.py) gives the same
    bits.  The three series share one Horner pass over a (3, n) array, and
    the quadrant is one gather from the rows (s, c, -s, -c, s) of r (c, s):
    for q = j mod 4 the real part sits in row q + 1 and the imaginary part in
    row q.  out must be C-contiguous.
    """
    n = len(out)
    u = bits.astype(float)
    u[0::2] += 1.0
    u *= 2.0 ** -53
    u1, u2 = u[0::2], u[1::2]
    m, e = np.frexp(u1)
    low = m < _SQRT_HALF
    k = np.subtract(low, e, dtype=float)
    m += m * low
    s = m - 1.0
    m += 1.0
    s /= m
    j = u2 * 4.0
    j += 0.5
    np.floor(j, out=j)
    f = j * -0.25
    f += u2
    x = np.empty((3, n))
    np.multiply(f, f, out=x[:2])
    np.multiply(s, s, out=x[2])
    rows = np.empty((5, n))
    series = rows[:3]
    np.multiply(x, _HORNER[0], out=series)
    series += _HORNER[1]
    for coef in _HORNER[2:]:
        series *= x
        series += coef
    s *= rows[2]
    r = k * _LN2_HI
    k *= _LN2_LO
    k -= s
    r += k
    np.sqrt(r, out=r)
    rows[0] *= f
    rows[:2] *= r
    np.negative(rows[:2], out=rows[2:4])
    rows[4] = rows[0]
    q = j.astype(np.intp)
    q &= 3
    q *= n
    q += np.arange(n)
    rows.take(q[:, None] + np.array((n, 0)), out=out.view(float).reshape(n, 2), mode="clip")


class ExperimentConfig(SimpleNamespace):
    """Resolved experiment inputs plus options for the runners, validated by :func:`parse_config`.

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


def _tolerances(spec) -> dict:
    """The 'riesz' and 'frame' gate overrides, each a finite number >= 0, or None for the default."""
    if not isinstance(spec, dict):
        raise ConfigError("'tolerances' must be an object")
    tols = {key: spec.get(key) for key in ("riesz", "frame")}
    for key, val in tols.items():
        if val is not None and (isinstance(val, bool) or not isinstance(val, (int, float))
                                or not 0 <= val < math.inf):
            raise ConfigError(f"'tolerances.{key}' must be a finite number >= 0")
    return tols


def _dual_scale(spec):
    """The scale of the seeded left-inverse family member, or None when the perturbation is disabled."""
    if not (isinstance(spec, dict) and isinstance(spec.get("enabled"), bool)):
        raise ConfigError("'dual_perturbation' must be an object with a boolean 'enabled'")
    scale = spec.get("scale", 1.0)
    if (isinstance(scale, bool) or not isinstance(scale, (int, float))
            or not abs(scale) <= sys.float_info.max):
        raise ConfigError("'dual_perturbation.scale' must be a finite number")
    return scale if spec["enabled"] else None


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
            if not lattice.contains_lattice(sublattice):
                raise ConfigError("'sublattice' is not contained in 'lattice'")

    coef_seed = master.next_u64()
    dual_seed = master.next_u64()

    options = {k: raw[k] for k in ("channel", "sweep") if k in raw}
    options["tolerances"] = _tolerances(raw.get("tolerances", {}))
    options["dual_perturbation"] = _dual_scale(raw.get("dual_perturbation", {"enabled": False}))
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
