"""The benchmark's workloads: seeded inputs, one request, and its correctness check.

Inputs are made here from the workload seed with numpy alone; opsis only ever
receives the generated configs, kernels, lattice generator lists and
operators.  Each workload holds a fixed pool of ``n_inputs`` inputs, and
request ``i`` runs input ``i % n_inputs``, so a run passes over the pool
several times.  A workload's life in one process:

    workload = WORKLOADS[name](seed, workdir)   # inputs, no opsis
    workload.prepare(opsis_module)              # timed as set-up
    workload.before_request(i)                  # untimed
    result = workload.request(i)                # timed
    problem = workload.check(i, result)         # untimed; None when correct
"""

from __future__ import annotations

import hashlib
import json
import math
import sys

import numpy as np

# Acceptance-gate tolerance for reconstruction and coefficient recovery.
REL_TOL = 1e-9


def _kernel(rng, L):
    k = rng.standard_normal((L, L)) + 1j * rng.standard_normal((L, L))
    return k / np.linalg.norm(k)


def _window(rng, L):
    v = rng.standard_normal(L) + 1j * rng.standard_normal(L)
    return v / np.linalg.norm(v)


def _rel(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def span_operator(kernels, points, coefs, L):
    """sum_n sum_j coefs[n, j] translate(points[j], kernels[n]), without opsis.

    translate((x, w), S)[t, u] = e^{2 pi i w (t - u) / L} S[t - x, u - x], so
    the points sharing one x contribute a phase that depends on t - u only.
    """
    d = np.arange(L)
    diff = (d[:, None] - d[None, :]) % L
    by_x: dict[int, list[int]] = {}
    for j, (x, _) in enumerate(points):
        by_x.setdefault(x, []).append(j)
    out = np.zeros((L, L), dtype=complex)
    for n, S in enumerate(kernels):
        for x, js in by_x.items():
            ws = np.array([points[j][1] for j in js])
            phase = np.exp(2j * np.pi * np.outer(d, ws) / L) @ coefs[n, js]
            out += phase[diff] * np.roll(S, (x, x), axis=(0, 1))
    return out


def clear_phase_space_caches():
    """Empty the functools.lru_cache caches of opsis.phase_space."""
    for f in vars(sys.modules["opsis.phase_space"]).values():
        if hasattr(f, "cache_clear"):
            f.cache_clear()


class Workload:
    name = ""
    entry_module = "opsis"
    L = 0
    n_inputs = 1

    def __init__(self):
        self._digest = hashlib.sha256()

    def _record(self, *items):
        for item in items:
            if isinstance(item, np.ndarray):
                self._digest.update(np.ascontiguousarray(item).tobytes())
            else:
                self._digest.update(json.dumps(item, sort_keys=True).encode())

    def fingerprint(self) -> str:
        """sha256 over every generated input, in generation order."""
        return self._digest.hexdigest()

    def prepare(self, opsis) -> None:
        self.opsis = opsis

    def before_request(self, i: int) -> None:
        pass

    def request(self, i: int):
        raise NotImplementedError

    def check(self, i: int, result) -> str | None:
        raise NotImplementedError


class CliReconstruct(Workload):
    """Back-to-back ``opsis reconstruct`` commands through ``opsis.cli.main``."""

    name = "cli_reconstruct"
    entry_module = "opsis.cli"

    def __init__(self, seed, workdir, L=48, step=4, N=2, M=3, commands=39):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.L = L
        self.config = {
            "L": L,
            "seed": 0,
            "lattice": {"a": step, "b": step},
            "generators": [{"kind": "random"} for _ in range(N)],
            "scheme": {"windows": [
                {"g": {"kind": "random"}, "g_tilde": {"kind": "random"}} for _ in range(M)
            ]},
        }
        self.seeds = [int(s) for s in rng.integers(0, 2**62, size=commands)]
        self.n_inputs = commands
        self._record(self.config, self.seeds)
        self.config_path = workdir / "config.json"
        self.config_path.write_text(json.dumps(self.config))
        self.out = workdir / "out"

    def prepare(self, opsis):
        self.cli = sys.modules["opsis.cli"]

    def before_request(self, i):
        # every command starts cold, as in a new process
        clear_phase_space_caches()
        (self.out / "metrics.json").unlink(missing_ok=True)

    def request(self, i):
        seed = self.seeds[i % self.n_inputs]
        return self.cli.main(["reconstruct", "--config", str(self.config_path),
                              "--out", str(self.out), "--seed", str(seed)])

    def check(self, i, code):
        if code != 0:
            return f"exit code {code}"
        metrics = json.loads((self.out / "metrics.json").read_text())
        err = metrics["reconstruction"]["rel_hs_error"]
        if not err < REL_TOL:
            return f"rel_hs_error {err:.3e}"
        return None


class KitStream(Workload):
    """One reconstruction kit; each request samples and reconstructs one operator."""

    name = "kit_stream"

    def __init__(self, seed, workdir=None, L=64, step=4, N=2, M=3, operators=99):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.L, self.step = L, step
        self.kernels = [_kernel(rng, L) for _ in range(N)]
        self.averagers = [_kernel(rng, L) for _ in range(M)]
        self.points = [(x, w) for x in range(0, L, step) for w in range(0, L, step)]
        self.coefs = [rng.standard_normal((N, len(self.points)))
                      + 1j * rng.standard_normal((N, len(self.points)))
                      for _ in range(operators)]
        self.operators = [span_operator(self.kernels, self.points, c, L) for c in self.coefs]
        self.n_inputs = operators
        self._record(*self.kernels, *self.averagers, self.points, *self.coefs)

    def prepare(self, opsis):
        self.opsis = opsis
        lattice = opsis.build_lattice((self.step, self.step), self.L)
        system = opsis.GeneratorSystem(lattice, self.kernels)
        self.kit = opsis.reconstruction_kit(system, opsis.average_scheme(self.averagers))

    def request(self, i):
        opsis, kit = self.opsis, self.kit
        T = self.operators[i % self.n_inputs]
        samples = opsis.avg_samples(T, kit.scheme, kit.system.lattice)
        return opsis.reconstruct(samples, kit), opsis.coefficient_frame_expansion(samples, kit)

    def check(self, i, result):
        T_rec, coefs = result
        k = i % self.n_inputs
        if list(self.kit.system.lattice.points) != self.points:
            return "kit lattice is not the generated point list"
        err = _rel(T_rec, self.operators[k])
        if not err < REL_TOL:
            return f"reconstruction rel HS error {err:.3e}"
        err = _rel(coefs, self.coefs[k])
        if not err < REL_TOL:
            return f"coefficient rel error {err:.3e}"
        return None


# Lattices of Z_60 x Z_60 per order, one pool per run.  Orders 180 and 240
# take (nearly) every subgroup of that order, so the pool's cost profile is
# the same for every seed; p50 falls inside the 180 block and p90 inside the
# 240 block rather than on a boundary between two orders.
L60_ORDER_QUOTAS = {60: 14, 90: 1, 100: 1, 120: 13, 150: 2, 180: 40, 200: 1, 225: 1, 240: 24}
# Filling the L = 60 quotas takes a few thousand draws.
MAX_DRAWS = 200_000


def subgroup_order(p, q, L):
    """|<p, q>| in Z_L^2: L^2 over the gcd of the 2x2 minors of [p q L e1 L e2]."""
    (x1, w1), (x2, w2) = p, q
    return L * L // math.gcd(x1 * w2 - x2 * w1, L * x1, L * w1, L * x2, L * w2, L * L)


def _subgroup_key(p, q, L):
    i = np.arange(L)[:, None]
    j = np.arange(L)[None, :]
    xs = (i * p[0] + j * q[0]) % L
    ws = (i * p[1] + j * q[1]) % L
    return np.unique(xs * L + ws).tobytes()


def lattice_pool(rng, L, quotas):
    """Distinct lattices, each generated by two random points, filling per-order quotas.

    Returns ((p, q), order) pairs.  The sequence of orders is the same for
    every seed (a fixed shuffle of the quotas), so the sequence of array sizes
    the program allocates, and with it the peak RSS, does not depend on the
    seed; which lattice of each order fills a slot does.
    """
    need = dict(quotas)
    seen = set()
    by_order: dict[int, list] = {order: [] for order in quotas}
    for _ in range(MAX_DRAWS):
        if not any(need.values()):
            break
        p, q = (tuple(int(v) for v in rng.integers(0, L, size=2)) for _ in range(2))
        order = subgroup_order(p, q, L)
        if need.get(order, 0) == 0:
            continue
        key = _subgroup_key(p, q, L)
        if key in seen:
            continue
        seen.add(key)
        need[order] -= 1
        by_order[order].append((p, q))
    if any(need.values()):
        raise RuntimeError(f"lattice quotas not met after {MAX_DRAWS} draws: {need}")
    schedule = [order for order, count in sorted(quotas.items()) for _ in range(count)]
    schedule = [schedule[k] for k in np.random.default_rng(0).permutation(len(schedule))]
    return [(by_order[order].pop(), order) for order in schedule]


class LatticeScan(Workload):
    """A new lattice per request: Riesz check, generator samples, frame bounds."""

    name = "lattice_scan"

    def __init__(self, seed, workdir=None, L=60, N=2, M=3, quotas=None):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.L = L
        self.kernels = [_kernel(rng, L) for _ in range(N)]
        self.windows = [(_window(rng, L), _window(rng, L)) for _ in range(M)]
        self.pool = lattice_pool(rng, L, quotas or L60_ORDER_QUOTAS)
        self.n_inputs = len(self.pool)
        self._record(*self.kernels, *(v for pair in self.windows for v in pair), self.pool)

    def prepare(self, opsis):
        self.opsis = opsis
        self.scheme = opsis.window_scheme(self.windows)

    def before_request(self, i):
        # every lattice is new to opsis, also on later passes over the pool
        clear_phase_space_caches()

    def request(self, i):
        opsis = self.opsis
        lattice = opsis.build_lattice(self.pool[i % self.n_inputs][0], self.L)
        system = opsis.GeneratorSystem(lattice, self.kernels)
        report = opsis.riesz_check(system)
        tm = opsis.transfer_matrix(opsis.cross_seq(system, self.scheme), lattice)
        return system, report, opsis.frame_bounds(tm)

    def check(self, i, result):
        system, report, fb = result
        order = self.pool[i % self.n_inputs][1]
        if system.lattice.size != order:
            return f"lattice size {system.lattice.size}, generated order {order}"
        oracle = self.opsis.riesz_check(system, route="gw")
        if oracle.is_riesz != report.is_riesz:
            return f"Riesz verdict {report.is_riesz}, gw oracle {oracle.is_riesz}"
        scale = max(abs(oracle.upper), 1.0)
        for label, got, want in (("lower", report.lower, oracle.lower),
                                 ("upper", report.upper, oracle.upper)):
            if not abs(got - want) <= REL_TOL * scale:
                return f"Riesz {label} bound {got!r}, gw oracle {want!r}"
        if not (math.isfinite(fb.alpha) and math.isfinite(fb.beta) and 0 <= fb.alpha <= fb.beta):
            return f"frame bounds alpha={fb.alpha!r} beta={fb.beta!r}"
        return None


WORKLOADS = {w.name: w for w in (CliReconstruct, KitStream, LatticeScan)}
