"""Spans and allocation probes for the benchmark's traced runs.

Tracing is done from the benchmark's side: each traced function is replaced,
for the duration of one traced unit of work, in every ``opsis`` namespace
that binds it (``from .x import y`` makes a separate binding, and the package
``__init__`` re-exports most functions).  A wrapper records a span with its
parent; a function's self time is its span's duration minus the durations of
its child spans.  Spans are kept in memory and folded into per-function
totals when the unit of work ends.

Allocation peaks come from ``tracemalloc``, switched on only inside the
functions named in ``ALLOC_PROBED`` and only in separate probe passes, so
that its cost never reaches the timed spans.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager

# (layer, function) pairs that get a span; "Class.method" patches the class.
TRACED = (
    ("hs_ops", "op_translate"),
    ("hs_ops", "fourier_wigner"),
    ("hs_ops", "hs_inner"),
    ("si_space", "riesz_check"),
    ("si_space", "gram_fibers"),
    ("si_space", "correlation_sequences"),
    ("si_space", "synthesize"),
    ("sampling", "cross_seq"),
    ("sampling", "diag_channel_samples"),
    ("sampling", "avg_samples"),
    ("sampling", "transfer_matrix"),
    ("sampling", "frame_bounds"),
    ("sampling", "dual_left_inverse"),
    ("sampling", "reconstruction_kit"),
    ("sampling", "reconstruct"),
    ("sampling", "coefficient_frame_expansion"),
    ("phase_space", "build_lattice"),
    ("phase_space", "annihilator"),
    ("phase_space", "dual_transversal"),
    ("phase_space", "symp_character_matrix"),
    ("phase_space", "lattice_convolve"),
    ("config", "parse_config"),
    ("config", "PortableRng.complex_normal"),
    ("cli", "main"),
)

# functools.lru_cache functions whose hit ratio is reported.
LRU_CACHED = ("phase_space.annihilator", "phase_space.dual_transversal",
              "phase_space.symp_character_matrix")

# Functions whose peak traced allocation is reported.
ALLOC_PROBED = ("si_space.correlation_sequences", "sampling.reconstruction_kit")

# Computed, not measured: one op_translate reads and writes three L x L
# complex arrays (roll, phase outer product, product).
TRANSLATE_BYTES_PER_L2 = 3 * 16


def _opsis_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "opsis" or name.startswith("opsis."))]


def _resolve(layer: str, func: str):
    """The original object and every (owner, attribute) that binds it.

    Returns None when the layer's module is not loaded in this process.
    """
    module = sys.modules.get(f"opsis.{layer}")
    if module is None:
        return None
    if "." in func:
        cls_name, attr = func.split(".")
        cls = getattr(module, cls_name)
        return cls.__dict__[attr], [(cls, attr)]
    original = getattr(module, func)
    bindings = [(m, attr) for m in _opsis_modules()
                for attr, value in vars(m).items() if value is original]
    return original, bindings


@contextmanager
def _patched(replacements):
    """Install (original, bindings, wrapper) replacements; restore on exit."""
    for _, bindings, wrapper in replacements:
        for owner, attr in bindings:
            setattr(owner, attr, wrapper)
    try:
        yield
    finally:
        for original, bindings, _ in replacements:
            for owner, attr in bindings:
                setattr(owner, attr, original)


class Tracer:
    """Span recorder and allocation prober over the currently loaded opsis.

    Build it after the final ``import opsis`` of the process: it binds to the
    module objects it finds then.
    """

    def __init__(self):
        self._targets = []
        for layer, func in TRACED:
            found = _resolve(layer, func)
            if found is not None:
                self._targets.append((f"{layer}.{func}", *found))
        self._originals = {name: original for name, original, _ in self._targets}
        self._spans: list = []
        self._stack: list[int] = []
        self._alloc_frames: list[list[int]] = []
        # phase ("setup" / "request") -> name -> total
        self.calls = defaultdict(Counter)
        self.self_s = defaultdict(lambda: defaultdict(float))
        self.cache = defaultdict(lambda: defaultdict(lambda: [0, 0]))
        self.peak_alloc = defaultdict(int)
        self.requests = 0
        self.request_s = 0.0
        self.covered_s = 0.0

    # ---------------------------------------------------------------- spans

    def _span_wrapper(self, name, fn):
        spans, stack = self._spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[index] = (name, t1 - t0, parent)

        return traced

    def _cache_counts(self):
        out = {}
        for name in LRU_CACHED:
            fn = self._originals.get(name)
            if fn is not None:
                info = fn.cache_info()
                out[name] = (info.hits, info.misses)
        return out

    @contextmanager
    def spans(self, phase: str):
        """Record spans of the enclosed work under ``phase``.

        The caller may set ``unit["wall_s"]`` to the enclosed request's wall
        time; the uncovered share is computed from it.  Cache statistics are
        read before and after, so a cache_clear inside the unit is not allowed.
        """
        unit = {}
        before = self._cache_counts()
        replacements = [(orig, bindings, self._span_wrapper(name, orig))
                        for name, orig, bindings in self._targets]
        try:
            with _patched(replacements):
                yield unit
        finally:
            after = self._cache_counts()
            for name, (hits, misses) in after.items():
                h0, m0 = before[name]
                self.cache[phase][name][0] += hits - h0
                self.cache[phase][name][1] += misses - m0
            self._fold(phase, unit.get("wall_s"))

    def _fold(self, phase, wall_s):
        spans = self._spans
        child = [0.0] * len(spans)
        for name, duration, parent in spans:
            if parent >= 0:
                child[parent] += duration
        root_s = 0.0
        for (name, duration, parent), child_s in zip(spans, child):
            self.calls[phase][name] += 1
            self.self_s[phase][name] += duration - child_s
            if parent < 0:
                root_s += duration
        if phase == "request":
            self.requests += 1
            if wall_s is not None:
                self.request_s += wall_s
                self.covered_s += min(root_s, wall_s)
        spans.clear()

    # ---------------------------------------------------------- allocations

    def _alloc_wrapper(self, name, fn):
        frames = self._alloc_frames

        def probed(*args, **kwargs):
            started = not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            current, peak = tracemalloc.get_traced_memory()
            for frame in frames:
                frame[1] = max(frame[1], peak)
            tracemalloc.reset_peak()
            frame = [current, current]
            frames.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                frames.pop()
                frame[1] = max(frame[1], tracemalloc.get_traced_memory()[1])
                for outer in frames:
                    outer[1] = max(outer[1], frame[1])
                self.peak_alloc[name] = max(self.peak_alloc[name], frame[1] - frame[0])
                if started:
                    tracemalloc.stop()

        return probed

    @contextmanager
    def alloc_probe(self):
        """Record peak allocations of the ALLOC_PROBED functions in the enclosed work."""
        replacements = [(orig, bindings, self._alloc_wrapper(name, orig))
                        for name, orig, bindings in self._targets if name in ALLOC_PROBED]
        with _patched(replacements):
            yield

    # -------------------------------------------------------------- metrics

    def per_layer(self, spec, L: int, overhead_ratio: float) -> dict:
        """Every per-layer metric of ``spec`` (BENCHMARK.json's ``per_layer`` list).

        Values cover one traced set-up plus the mean traced request: counts
        and self times of the set-up (opsis work done before the first
        request, such as a kit build) are added once to the request figures
        averaged over the traced requests.
        """
        n = max(self.requests, 1)

        def total(table, name):
            return table["setup"][name] + table["request"][name] / n

        values = {
            "trace.overhead_ratio": overhead_ratio,
            "trace.uncovered_share": (1.0 - self.covered_s / self.request_s
                                      if self.request_s > 0 else 0.0),
        }
        for name in (m["name"] for m in spec if m["name"] not in values):
            func, _, stat = name.rpartition(".")
            if stat == "calls":
                values[name] = total(self.calls, func)
            elif stat == "self_s":
                values[name] = total(self.self_s, func)
            elif stat == "computed_mb":
                values[name] = total(self.calls, func) * TRANSLATE_BYTES_PER_L2 * L * L / 1e6
            elif stat == "peak_alloc_mb":
                values[name] = self.peak_alloc[func] / 1e6
            elif stat == "hit_ratio":
                hits = sum(self.cache[p][func][0] for p in ("setup", "request"))
                misses = sum(self.cache[p][func][1] for p in ("setup", "request"))
                values[name] = hits / (hits + misses) if hits + misses else 0.0
            else:
                raise ValueError(f"unknown per-layer metric {name!r}")
        return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
