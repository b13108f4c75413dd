"""Experiment configuration: JSON schema validation, deterministic seeding,
and construction of lattices, generator kernels and sampling schemes.

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
or correctly rounded under IEEE-754, and the quadrant of the angle is a
choice of series and a product with +1.0 or -1.0, both exact, so a numpy
block and a loop over Python floats give the same bits on every platform
(see _box_muller).  No C-library log, cos or sin is called: those are not
correctly rounded, and the 0.1.0 stream, which used them, could differ in
the last bit between C libraries.  The state after k steps is
seed + k * 0x9E3779B97F4A7C15 mod 2^64, so a block of outputs is computed at
once in wrapping uint64 arithmetic, and one block may hold the outputs of
several streams.

A master stream seeded with the config seed hands one 64-bit subseed to
every random item that does not carry its own "seed" key, walking the
config in a fixed order: generators first, then scheme entries, then the
coefficient stream, then the dual-perturbation stream.  The walk only
records each random item's subseed and shape; for a command that reads
the coefficient stream (parse_config's coefficients), it then appends
that stream, of shape (N, |lattice|).  After it, one blocked pass of the
kernel draws every item (see _complex_normals), and only then are the
rank-one generators and the scheme formed; a window scheme keeps its pairs,
and the generators stay kernels, which the runners put on a lattice.  The
values are those of one PortableRng(subseed).complex_normal(shape) call
per item, each config item scaled to unit norm and the coefficients not.

The walk checks every value where it reaches it, through four readers:
_object (an object with its required keys and no key the schema does not
read), _integer (an integer, never a bool), _number (a finite number, never
a bool) and _items (a non-empty list).  Each message names the value's
path, such as 'sweep.b[0]'.

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

from .hs_ops import OperatorStack, rank_one
from .phase_space import Lattice, LatticeError, build_lattice
from .sampling import average_scheme, window_scheme

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_BLOCK = 8192  # complex normals per vectorised block; bounds the temporaries
_U_GAMMA, _U_MUL1, _U_MUL2 = map(np.uint64, (_GAMMA, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB))
_U11, _U27, _U30, _U31 = map(np.uint64, (11, 27, 30, 31))
# the largest L for which numpy can shape an L x L complex array
_MAX_L = math.isqrt(np.iinfo(np.intp).max // 16)

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
# the signs of the real and the imaginary part in quadrant j mod 4 = 0, 1, 2, 3
_RE_SIGN, _IM_SIGN = np.array([[1.0, -1.0, -1.0, 1.0], [1.0, 1.0, -1.0, -1.0]])


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


def _random_item(spec, shape, master: "PortableRng", draws: list, label) -> int:
    """Record a random item's subseed and shape in draws, in walk order; returns its index there."""
    seed = master.next_u64() if "seed" not in spec else _integer(spec["seed"], f"{label}.seed")
    draws.append((seed & _MASK, shape))
    return len(draws) - 1


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
        _complex_normals(out.reshape(-1), [(self._state, out.size)])
        self._state = (self._state + 2 * out.size * _GAMMA) & _MASK
        return out


def _complex_normals(out: np.ndarray, streams) -> None:
    """Fill the 1-D array out with the complex normals of several streams, one after another.

    streams holds (state, count) pairs: the next count values of out are
    the first count complex normals of the SplitMix64 stream at state.  out
    is cut into blocks of _BLOCK values, which may straddle the boundaries
    between streams, and each block takes one vectorised finalizer pass and
    one _box_muller call.  Bit g of the block sequence, for a stream whose
    values start at out[start], is that stream's output g - 2 start, whose
    state is (g + 1) GAMMA + base with base = state - 2 start GAMMA mod 2^64.
    """
    for lo in range(0, len(out), _BLOCK):
        hi = min(lo + _BLOCK, len(out))
        z = np.arange(2 * lo + 1, 2 * hi + 1, dtype=np.uint64)
        z *= _U_GAMMA
        start = 0
        for state, count in streams:
            if start < hi and lo < start + count:
                base = np.uint64((state - 2 * start * _GAMMA) & _MASK)
                z[2 * (max(start, lo) - lo):2 * (min(start + count, hi) - lo)] += base
            start += count
        z ^= z >> _U30
        z *= _U_MUL1
        z ^= z >> _U27
        z *= _U_MUL2
        z ^= z >> _U31
        z >>= _U11
        _box_muller(z, out[lo:hi])


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
    bits.  The three series share one Horner pass over a (3, n) array.  The
    quadrant takes no gather: each part is r c or r s, chosen by np.where on
    the parity of j (a masked copy runs once per run of the mask, several
    times slower), times the part's sign +-1.0 in quadrant j mod 4, which is
    exact and keeps the sign of a zero.  u1 and u2 are contiguous halves and
    spent buffers are reused (m for j, then r; u2 for f), so the kernel
    holds about 6.6 times its output.  out is 1-D.
    """
    n = len(out)
    m = np.multiply(bits[0::2] + 1, 2.0 ** -53)
    f = np.multiply(bits[1::2], 2.0 ** -53)
    k = np.frexp(m, out=(m, None))[1]  # the exponent e, until k = -e replaces it
    low = m < _SQRT_HALF
    k = np.subtract(low, k, dtype=float)
    m += m * low
    s = m - 1.0
    m += 1.0
    s /= m
    j = np.multiply(f, 4.0, out=m)
    j += 0.5
    np.floor(j, out=j)
    q = j.astype(np.intp)
    q &= 3
    j *= 0.25
    f -= j
    x = np.empty((3, n))
    np.multiply(f, f, out=x[:2])
    np.multiply(s, s, out=x[2])
    series = np.multiply(x, _HORNER[0])
    series += _HORNER[1]
    for coef in _HORNER[2:]:
        series *= x
        series += coef
    del x  # its memory serves the quadrant step's temporaries
    s *= series[2]
    r = np.multiply(k, _LN2_HI, out=j)
    k *= _LN2_LO
    k -= s
    r += k
    np.sqrt(r, out=r)
    sin, cos = series[:2]
    sin *= f
    odd = q & 1 == 1
    np.multiply(_RE_SIGN.take(q), r, out=k)
    np.multiply(np.where(odd, sin, cos), k, out=out.real)
    np.multiply(_IM_SIGN.take(q), r, out=k)
    np.multiply(np.where(odd, cos, sin), k, out=out.imag)


class ExperimentConfig(SimpleNamespace):
    """Resolved experiment inputs plus options for the runners, validated by :func:`parse_config`.

    The generators are plain kernels and the scheme an OperatorStack.
    Mutable; compares and prints field by field, as a SimpleNamespace does.
    parse_config fills options with every option, validated and defaulted:
    'channel' (a kind), 'sweep' (None or the {'a', 'b'} grid), 'tolerances'
    (None for a default) and 'dual_perturbation' (None or the scale).
    coefficients is None or the generators' (N, |lattice|) coefficients
    drawn from coef_seed, un-normalised.
    """

    L: int
    seed: int
    lattice: Lattice | None
    sublattice: Lattice | None
    generator_kernels: tuple[np.ndarray, ...] | None
    scheme: OperatorStack | None
    coef_seed: int
    dual_seed: int
    options: dict
    coefficients: np.ndarray | None

    def __init__(self, L, seed, lattice, sublattice, generator_kernels, scheme,
                 coef_seed, dual_seed, options=None, coefficients=None):
        super().__init__(L=L, seed=seed, lattice=lattice, sublattice=sublattice,
                         generator_kernels=generator_kernels, scheme=scheme,
                         coef_seed=coef_seed, dual_seed=dual_seed,
                         options={} if options is None else options, coefficients=coefficients)


def load_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:
        # ValueError covers malformed JSON, bytes that are not UTF-8 and over-long integer literals
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return raw


def _object(spec, label: str, keys, required=()) -> dict:
    """spec, checked to be an object with every required key and no key beyond keys."""
    if not isinstance(spec, dict):
        raise ConfigError(f"'{label}' must be an object")
    for key in spec:
        if key not in keys:
            raise ConfigError(f"unknown key '{label}.{key}'" if label else f"unknown key '{key}'")
    for key in required:
        if key not in spec:
            raise ConfigError(f"'{label}.{key}' must be given")
    return spec


def _integer(val, label: str, lo=None, hi=None) -> int:
    """val, checked to be an integer in [lo, hi], never a bool; a bound of None is open."""
    if (isinstance(val, bool) or not isinstance(val, int)
            or (lo is not None and val < lo) or (hi is not None and val > hi)):
        bounds = "" if lo is None else f" >= {lo}" if hi is None else f" in [{lo}, {hi}]"
        raise ConfigError(f"'{label}' must be an integer{bounds}, got {val!r}")
    return val


def _number(val, label: str, lo=None):
    """val, checked to be a finite number >= lo, never a bool (nor an int beyond the float range)."""
    if (isinstance(val, bool) or not isinstance(val, (int, float))
            or not abs(val) <= sys.float_info.max or (lo is not None and val < lo)):
        bound = "" if lo is None else f" >= {lo}"
        raise ConfigError(f"'{label}' must be a finite number{bound}, got {val!r}")
    return val


def _items(val, label: str) -> list:
    """val, checked to be a non-empty list."""
    if not isinstance(val, list) or not val:
        raise ConfigError(f"'{label}' must be a non-empty list")
    return val


def _build_lattice(spec, L, label):
    """The lattice of a separable spec ('a' and 'b') or of a 'generators' one."""
    keys = ("generators",) if "generators" in _object(spec, label, spec) else ("a", "b")
    _object(spec, label, keys, required=keys)  # the form known, check its keys
    if keys == ("a", "b"):
        descriptor = tuple(_integer(spec[key], f"{label}.{key}") for key in keys)
    else:
        descriptor = []
        for i, pair in enumerate(_items(spec["generators"], f"{label}.generators")):
            if not isinstance(pair, list) or len(pair) != 2:
                raise ConfigError(f"'{label}.generators[{i}]' must be an [x, w] pair")
            descriptor.append(tuple(_integer(v, f"{label}.generators[{i}][{j}]")
                                    for j, v in enumerate(pair)))
    try:
        return build_lattice(descriptor, L)
    except LatticeError as exc:
        raise ConfigError(f"invalid '{label}': {exc}") from exc


def _complex_vector(values, L, label):
    try:
        vec = np.array([complex(re, im) for re, im in values])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"'{label}' must be a list of [re, im] pairs: {exc}") from exc
    if vec.shape != (L,):
        raise ConfigError(f"'{label}' must have length {L}, got {vec.shape}")
    return vec


def _draw(draws, unit: int) -> list:
    """The values of every (subseed, shape) item of a walk, from one kernel call.

    The items are views of one buffer; the first unit of them, the config's
    items, are each normalised in place, and the rest are kept as drawn.
    """
    counts = [math.prod(shape) for _, shape in draws]
    flat = np.empty(sum(counts), dtype=complex)
    _complex_normals(flat, [(seed, count) for (seed, _), count in zip(draws, counts)])
    values, start = [], 0
    for (_, shape), count in zip(draws, counts):
        item = flat[start:start + count].reshape(shape)
        if len(values) < unit:
            item /= np.linalg.norm(item)
        values.append(item)
        start += count
    return values


def _built(item, values):
    """The array a walk item stands for: an index into values, a rank_one pair, or itself."""
    if isinstance(item, tuple):
        return rank_one(_built(item[0], values), _built(item[1], values))
    return values[item] if isinstance(item, int) else item


_WINDOW_KEYS = {"gaussian": ("kind",), "delta": ("kind", "at"), "random": ("kind", "seed"),
                "explicit": ("kind", "values")}
_GENERATOR_KEYS = {"rank_one": ("kind", "left", "right"), "random": ("kind", "seed"),
                   "explicit_kernel": ("kind", "kernel")}


def _kind(spec, label, keys_by_kind):
    """The 'kind' of an item spec, after checking the spec's keys against that kind's."""
    kind = _object(spec, label, spec, required=("kind",))["kind"]  # any key until the kind is known
    if not isinstance(kind, str) or kind not in keys_by_kind:
        raise ConfigError(f"'{label}.kind' must be one of {', '.join(keys_by_kind)}, got {kind!r}")
    _object(spec, label, keys_by_kind[kind])
    return kind


def _window(spec, L, master, draws, label):
    """The window's vector, or the index in draws of a random one."""
    kind = _kind(spec, label, _WINDOW_KEYS)
    if kind == "random":
        return _random_item(spec, (L,), master, draws, label)
    if kind == "gaussian":
        from .timefreq import gaussian_window

        return gaussian_window(L)
    if kind == "delta":
        vec = np.zeros(L, dtype=complex)
        vec[_integer(spec.get("at", 0), f"{label}.at", 0, L - 1)] = 1.0
        return vec
    return _complex_vector(spec.get("values"), L, f"{label}.values")


def _generator(spec, L, master, draws, label):
    """The generator's kernel, the index in draws of a random one, or the pair of a rank_one."""
    kind = _kind(spec, label, _GENERATOR_KEYS)
    if kind == "rank_one":
        return (_window(spec.get("left"), L, master, draws, f"{label}.left"),
                _window(spec.get("right"), L, master, draws, f"{label}.right"))
    if kind == "random":
        return _random_item(spec, (L, L), master, draws, label)
    rows = spec.get("kernel")
    if not isinstance(rows, list) or len(rows) != L:
        raise ConfigError(f"'{label}.kernel' must be a list of {L} rows")
    return np.array([_complex_vector(row, L, f"{label}.kernel") for row in rows])


_TOP_KEYS = ("L", "seed", "lattice", "sublattice", "generators", "scheme", "channel", "sweep",
             "tolerances", "dual_perturbation")


def parse_config(raw: dict, seed_override: int | None = None,
                 coefficients: str | None = None, build_scheme: bool = True) -> ExperimentConfig:
    """Validate a raw config dict and build the experiment objects it describes.

    Lattice, generators and scheme are optional at this stage; runners
    demand the pieces they actually need.  The walk takes the random items'
    subseeds in order, then one kernel pass draws them all before any
    object is built from them.  For a command that reads the coefficient
    stream, that pass also draws the (N, |lattice|) coefficients of the
    generators, as PortableRng(coef_seed).complex_normal would, when the
    config has both and coefficients is 'always', or 'channel' and the
    channel is synthesized; else they are None.  With build_scheme False,
    for a command that does not read the scheme, the walk still checks the
    scheme and takes its subseeds, but the pass draws none of its items and
    the scheme is None.
    """
    _object(raw, "", _TOP_KEYS)
    L = _integer(raw.get("L"), "L", 2, _MAX_L)
    seed = _integer(raw.get("seed", 0), "seed") if seed_override is None else seed_override
    master = PortableRng(seed)
    draws = []

    lattice = None
    if "lattice" in raw:
        lattice = _build_lattice(raw["lattice"], L, "lattice")

    kernels = None
    if "generators" in raw:
        if lattice is None and "sweep" not in raw:
            raise ConfigError("'generators' given without a 'lattice'")
        kernels = [_generator(s, L, master, draws, f"generators[{i}]")
                   for i, s in enumerate(_items(raw["generators"], "generators"))]

    windows = averagers = None
    if "scheme" in raw:
        first = len(draws)
        spec = _object(raw["scheme"], "scheme", ("windows", "averagers"))
        if len(spec) != 1:
            raise ConfigError("'scheme' must hold exactly one of 'windows' or 'averagers'")
        if "windows" in spec:
            windows = []
            for i, item in enumerate(_items(spec["windows"], "scheme.windows")):
                label = f"scheme.windows[{i}]"
                _object(item, label, ("g", "g_tilde"), required=("g", "g_tilde"))
                windows.append((_window(item["g"], L, master, draws, f"{label}.g"),
                                _window(item["g_tilde"], L, master, draws, f"{label}.g_tilde")))
        else:
            averagers = [_generator(item, L, master, draws, f"scheme.averagers[{i}]")
                         for i, item in enumerate(_items(spec["averagers"], "scheme.averagers"))]
        if not build_scheme:
            del draws[first:]
            windows = averagers = None

    sublattice = None
    if "sublattice" in raw:
        sublattice = _build_lattice(raw["sublattice"], L, "sublattice")
        if lattice is not None and not lattice.contains_lattice(sublattice):
            raise ConfigError("'sublattice' is not contained in 'lattice'")

    coef_seed = master.next_u64()
    dual_seed = master.next_u64()
    channel = _object(raw.get("channel", {}), "channel", ("kind",)).get("kind")
    if channel not in (None, "synthesized", "identity"):
        raise ConfigError(f"'channel.kind' must be synthesized or identity, got {channel!r}")
    unit = len(draws)
    if coefficients == "always" or coefficients == "channel" and channel != "identity":
        if lattice is not None and kernels is not None:
            draws.append((coef_seed, (len(kernels), lattice.size)))
    sweep = None
    if "sweep" in raw:
        sweep = _object(raw["sweep"], "sweep", ("a", "b"), required=("a", "b"))
        for key in ("a", "b"):
            for i, v in enumerate(_items(sweep[key], f"sweep.{key}")):
                _integer(v, f"sweep.{key}[{i}]")
    spec = _object(raw.get("tolerances", {}), "tolerances", ("riesz", "frame"))
    tolerances = {key: None if spec.get(key) is None else _number(spec[key], f"tolerances.{key}", 0)
                  for key in ("riesz", "frame")}
    spec = _object(raw.get("dual_perturbation", {"enabled": False}), "dual_perturbation",
                   ("enabled", "scale"), required=("enabled",))
    if not isinstance(spec["enabled"], bool):
        raise ConfigError(f"'dual_perturbation.enabled' must be a boolean, got {spec['enabled']!r}")
    scale = _number(spec.get("scale", 1.0), "dual_perturbation.scale")
    options = {"channel": channel or "synthesized", "sweep": sweep, "tolerances": tolerances,
               "dual_perturbation": scale if spec["enabled"] else None}

    values = _draw(draws, unit)
    scheme = None
    if kernels is not None:
        kernels = tuple(_built(k, values) for k in kernels)
    if windows is not None:
        scheme = window_scheme([(_built(g, values), _built(gt, values)) for g, gt in windows])
    elif averagers is not None:
        scheme = average_scheme([_built(q, values) for q in averagers])
    return ExperimentConfig(L=L, seed=seed, lattice=lattice, sublattice=sublattice,
                            generator_kernels=kernels, scheme=scheme,
                            coef_seed=coef_seed, dual_seed=dual_seed, options=options,
                            coefficients=values[unit] if len(values) > unit else None)
