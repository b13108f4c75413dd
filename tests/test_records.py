"""The package's record types: immutability, construction, equality and
cached stages of the plain classes that hold lattices, generator systems,
schemes, transfer matrices and kits, and the one dataclass left."""

import dataclasses
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import opsis
from opsis import sampling, si_space
from opsis.config import ExperimentConfig
from opsis.phase_space import build_lattice
from opsis.sampling import (
    FrameBounds,
    ReconstructionKit,
    SamplingScheme,
    TransferMatrix,
    average_scheme,
    window_scheme,
)
from opsis.si_space import GeneratorSystem, RieszReport, riesz_check
from conftest import rand_kernel, rand_signal

SRC = Path(opsis.__file__).resolve().parent.parent
L = 8


def setup():
    rng = np.random.default_rng(5)
    lat = build_lattice((2, 2), L)
    system = GeneratorSystem(lat, tuple(rand_kernel(rng, L) for _ in range(2)))
    scheme = window_scheme([(rand_signal(rng, L), rand_signal(rng, L)) for _ in range(3)])
    return system, scheme


def records():
    system, scheme = setup()
    kit = ReconstructionKit(system, scheme)
    return {"Lattice": system.lattice, "GeneratorSystem": system, "SamplingScheme": scheme,
            "TransferMatrix": kit.transfer, "ReconstructionKit": kit}


# a declared field and a cached stage of each record, read before the attempt
FIELDS = {"Lattice": ("modulus", "points"), "GeneratorSystem": ("generators", "spreading"),
          "SamplingScheme": ("windows", "spreading"), "TransferMatrix": ("fibers", "bounds"),
          "ReconstructionKit": ("C", "transfer")}


@pytest.mark.parametrize("kind", FIELDS)
@pytest.mark.parametrize("which", ["field", "stage", "new"])
def test_records_refuse_assignment_and_deletion(kind, which):
    record = records()[kind]
    name = {"field": FIELDS[kind][0], "stage": FIELDS[kind][1], "new": "extra"}[which]
    before = getattr(record, name, None)
    with pytest.raises(AttributeError, match=f"cannot assign to field {name!r} of an immutable {kind}"):
        setattr(record, name, 0)
    with pytest.raises(AttributeError, match=f"cannot delete field {name!r} of an immutable {kind}"):
        delattr(record, name)
    assert getattr(record, name, None) is before


def test_frame_bounds_are_an_immutable_value():
    fb = FrameBounds(0.5, 2.0)
    with pytest.raises(AttributeError):
        fb.alpha = 1.0
    with pytest.raises(AttributeError):
        del fb.beta
    assert fb == FrameBounds(alpha=0.5, beta=2.0, diagnostic=None)
    assert hash(fb) == hash(FrameBounds(0.5, 2.0))
    assert fb != FrameBounds(0.5, 2.0, "rank deficient: M < N")
    assert fb != FrameBounds(0.5, 3.0)
    assert repr(fb) == "FrameBounds(alpha=0.5, beta=2.0, diagnostic=None)"


def test_stateful_records_are_equal_only_to_themselves():
    first, second = records(), records()
    for kind in FIELDS:
        if kind == "Lattice":
            assert first[kind] == second[kind]
            continue
        assert first[kind] == first[kind] and first[kind] != second[kind]
        assert hash(first[kind]) != hash(second[kind])


def test_keyword_construction_and_defaults():
    system, scheme = setup()
    lat = system.lattice
    gens = [np.eye(L), np.ones((L, L))]
    built = GeneratorSystem(generators=gens, lattice=lat)
    assert built.lattice is lat and isinstance(built.generators, tuple)
    assert all(S.dtype == complex for S in built.generators)
    np.testing.assert_array_equal(built.generators[1], np.ones((L, L)))

    averagers = scheme.averagers
    assert SamplingScheme(averagers=averagers).windows is None
    # a scheme keeps its own read-only copy of the windows, equal to the given ones
    kept = SamplingScheme(averagers, scheme.windows).windows
    assert kept is not scheme.windows
    assert np.array_equal(np.array(kept), np.array(scheme.windows))

    C = np.zeros((lat.size, 2, 3))
    kit = ReconstructionKit(system=system, scheme=scheme, C=C, tol=1e-9, riesz_tol=1e-8)
    assert (kit.system, kit.scheme, kit.C, kit.tol, kit.riesz_tol) == (system, scheme, C, 1e-9, 1e-8)
    plain = ReconstructionKit(system, scheme)
    assert (plain.C, plain.tol, plain.riesz_tol) == (None, None, None)

    tm = TransferMatrix(fibers=kit.transfer.fibers, lattice=lat)
    assert (tm.lattice, tm.fibers, tm.num_channels, tm.num_generators) == (lat, kit.transfer.fibers, 3, 2)

    cfg = ExperimentConfig(L=L, seed=1, lattice=lat, sublattice=None, generator_kernels=None,
                           system=system, scheme=scheme, coef_seed=2, dual_seed=3, options={})
    assert (cfg.L, cfg.system, cfg.options) == (L, system, {})
    cfg.options = {"sweep": {}}
    assert cfg.options == {"sweep": {}}
    fields = (L, 1, lat, None, None, system, scheme, 2, 3)
    assert ExperimentConfig(*fields).options == {}
    assert ExperimentConfig(*fields, {"sweep": {}}) == cfg
    with pytest.raises(TypeError):
        ExperimentConfig(*fields[:-1])
    with pytest.raises(TypeError):
        ExperimentConfig(*fields, optoins={})


@pytest.mark.parametrize("gens, message", [
    ((), "at least one generator is required"),
    ([], "at least one generator is required"),
    ((np.eye(L), np.eye(L - 1)), f"generator shape {(L - 1, L - 1)} does not match L={L}"),
    ((np.ones(L),), f"generator shape {(L,)} does not match L={L}"),
])
def test_generator_system_validation(gens, message):
    lat = build_lattice((2, 2), L)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        GeneratorSystem(lat, gens)
    with pytest.raises(ValueError):
        GeneratorSystem(lattice=lat, generators=gens)


@pytest.mark.parametrize("build, message", [
    (lambda: average_scheme([]), "at least one averager is required"),
    (lambda: average_scheme([np.ones((4, 3))]), "averager shape (4, 3) does not match L=4"),
    (lambda: average_scheme([np.eye(4), np.eye(5)]), "averager shape (5, 5) does not match L=4"),
    (lambda: average_scheme([np.ones(4)]), "averager shape (4,) does not match L=4"),
    (lambda: window_scheme([(np.ones(4), np.ones(5))]), "averager shape (5, 4) does not match L=5"),
    (lambda: window_scheme([(np.ones(4), np.ones(4)), (np.ones(5), np.ones(5))]),
     "averager shape (5, 5) does not match L=4"),
], ids=["empty", "non-square", "mixed-sizes", "not-a-matrix", "unequal-pair", "mixed-pairs"])
def test_sampling_scheme_validates_its_averagers_when_built(build, message):
    # the kernels are checked at construction, as a GeneratorSystem's are,
    # not on the first read of a cached stage
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def assert_read_only(arrays):
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0


def test_generator_system_keeps_its_own_read_only_generators():
    rng = np.random.default_rng(9)
    lat = build_lattice((2, 2), L)
    S = rand_kernel(rng, L)
    before = S.copy()
    system = GeneratorSystem(lat, [S])
    upper = riesz_check(system).upper
    S *= 10
    assert system.generators[0] is not S
    assert np.array_equal(system.generators[0], before)
    assert_read_only(system.generators)
    assert riesz_check(system).upper == upper
    assert riesz_check(GeneratorSystem(lat, system.generators)).upper == upper
    assert riesz_check(GeneratorSystem(lat, [S])).upper > 50 * upper


@pytest.mark.parametrize("kind", ["windows", "averagers"])
def test_sampling_scheme_keeps_its_own_read_only_arrays(kind):
    rng = np.random.default_rng(10)
    if kind == "windows":
        given = [rand_signal(rng, L), rand_signal(rng, L)]
        scheme = window_scheme([given])
        assert_read_only(scheme.windows[0])
    else:
        given = [rand_kernel(rng, L)]
        scheme = average_scheme(given)
    before = [a.copy() for a in given]
    spreading = scheme.spreading.copy()
    averager = scheme.averagers[0].copy()
    for a in given:
        a *= 10
    assert_read_only(scheme.averagers)
    assert np.array_equal(scheme.averagers[0], averager)
    assert np.array_equal(scheme.spreading, spreading)
    kept = scheme.windows[0] if kind == "windows" else scheme.averagers
    assert all(a is not b and np.array_equal(a, b0) for a, b, b0 in zip(kept, given, before))


def test_cached_stages_are_computed_once(monkeypatch):
    calls = Counter()

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[f"{module.__name__}.{name}"] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((si_space, "fourier_wigner"), (si_space, "gram_fibers"),
                         (si_space, "hermitian_spectrum"), (sampling, "fourier_wigner"),
                         (sampling, "transfer_fibers"), (sampling, "riesz_check"),
                         (sampling, "fiber_singular_values"), (sampling, "frame_bounds"),
                         (sampling, "dual_left_inverse"), (sampling, "tile_product"),
                         (sampling, "inverse_fourier_wigner")):
        counting(module, name)
    system, scheme = setup()
    kit = ReconstructionKit(system, scheme)
    stages = ("riesz", "transfer", "_dual", "b", "spreading", "recon_ops")
    first = {name: getattr(kit, name) for name in stages}
    for _ in range(2):
        assert all(getattr(kit, name) is first[name] for name in stages)
        assert kit.transfer.bounds is kit.transfer.bounds
        assert kit.transfer.singular_values is kit.transfer.singular_values
        assert system.riesz_spectrum is system.riesz_spectrum
        assert (kit.alpha, kit.beta) == kit.transfer.bounds[:2]
    # one spreading transform of each input, and one of every stage
    assert calls == {name: 1 for name in calls} and len(calls) == 11


def test_riesz_report_stays_a_replaceable_dataclass():
    report = RieszReport(True, 0.25, 4.0, "fibers")
    moved = dataclasses.replace(report, lower=0.5)
    assert moved == RieszReport(True, 0.5, 4.0, "fibers", None) != report
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.lower = 1.0


def test_only_riesz_report_is_a_dataclass_after_a_fresh_cli_import():
    script = (
        "import dataclasses, sys\n"
        "import opsis.cli\n"
        "print(sorted(f'{name}.{attr}' for name, module in list(sys.modules.items())\n"
        "             if name == 'opsis' or name.startswith('opsis.')\n"
        "             for attr, value in vars(module).items()\n"
        "             if isinstance(value, type) and value.__module__ == name\n"
        "             and dataclasses.is_dataclass(value)))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['opsis.si_space.RieszReport']"
