"""The package's record types: immutability, construction, equality and
cached stages of the plain classes that hold lattices, operator stacks,
generator systems, transfer matrices and kits, and the one dataclass left."""

import dataclasses
import json
import os
import re
import subprocess
import sys
from collections import Counter
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

import opsis
from opsis import cli, hs_ops, phase_space, sampling, si_space
from opsis.config import ExperimentConfig
from opsis.hs_ops import OperatorStack, fourier_wigner, rank_one
from opsis.phase_space import Immutable, build_lattice, stage
from opsis.sampling import (
    FrameBounds,
    ReconstructionKit,
    TransferMatrix,
    average_scheme,
    avg_samples,
    cross_seq,
    reconstruct,
    reconstruct_from_spreading,
    reconstruction_kit,
    transfer_fibers,
    transfer_matrix,
    window_scheme,
)
from opsis.si_space import GeneratorSystem, RieszReport, coefficients, riesz_check, synthesize
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
    return {"Lattice": system.lattice, "GeneratorSystem": system, "OperatorStack": scheme,
            "TransferMatrix": kit.transfer, "ReconstructionKit": kit}


# a declared field and a cached stage of each record, read before the attempt
FIELDS = {"Lattice": ("modulus", "points"), "GeneratorSystem": ("generators", "spreading"),
          "OperatorStack": ("windows", "spreading"), "TransferMatrix": ("fibers", "bounds"),
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
    assert built.lattice is lat and isinstance(built.generators, OperatorStack)
    assert all(S.dtype == complex for S in built.generators)
    np.testing.assert_array_equal(built.generators[1], np.ones((L, L)))

    averagers = tuple(scheme)
    assert OperatorStack(kernels=averagers).windows is None
    # a scheme keeps its own read-only copy of the windows, equal to the given ones
    kept = OperatorStack(windows=scheme.windows).windows
    assert kept is not scheme.windows
    assert np.array_equal(np.array(kept), np.array(scheme.windows))

    C = np.zeros((lat.size, 2, 3))
    kit = ReconstructionKit(system=system, scheme=scheme, C=C, tol=1e-9, riesz_tol=1e-8)
    assert (kit.system, kit.scheme, kit.tol, kit.riesz_tol) == (system, scheme, 1e-9, 1e-8)
    # the kit keeps an equal, read-only copy of the caller's C
    assert kit.C is not C and np.array_equal(kit.C, C)
    assert_read_only(kit.C)
    plain = ReconstructionKit(system, scheme)
    assert (plain.C, plain.tol, plain.riesz_tol) == (None, None, None)

    # so does a transfer matrix of the caller's fibers
    tm = TransferMatrix(fibers=kit.transfer.fibers)
    assert tm.fibers is not kit.transfer.fibers and np.array_equal(tm.fibers, kit.transfer.fibers)
    assert_read_only(tm.fibers)
    assert (tm.num_channels, tm.num_generators) == (3, 2)

    cfg = ExperimentConfig(L=L, seed=1, lattice=lat, sublattice=None, generator_kernels=gens,
                           scheme=scheme, coef_seed=2, dual_seed=3, options={})
    assert (cfg.L, cfg.generator_kernels, cfg.options) == (L, gens, {})
    cfg.options = {"sweep": {}}
    assert cfg.options == {"sweep": {}}
    fields = (L, 1, lat, None, gens, scheme, 2, 3)
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


@pytest.mark.parametrize("build", [ReconstructionKit, reconstruction_kit])
def test_a_kit_refuses_a_scheme_of_another_modulus(build):
    # checked where the kit is built, as a GeneratorSystem checks its generators,
    # not by the first stage that folds the scheme against the lattice
    system, _ = setup()
    rng = np.random.default_rng(6)
    scheme = window_scheme([(rand_signal(rng, 6), rand_signal(rng, 6)) for _ in range(3)])
    with pytest.raises(ValueError, match=f"^{re.escape('averager shape (6, 6) does not match L=8')}$"):
        build(system, scheme)


@pytest.mark.parametrize("build", [ReconstructionKit, reconstruction_kit])
@pytest.mark.parametrize("shape", [(1, 1, 1), (16, 3, 2), (2, 3), (16, 2, 3, 1)])
def test_a_kit_refuses_a_c_of_another_shape(build, shape):
    # checked where the kit is built, with the message of dual_left_inverse's
    # check, not on the first read of the dual fibers
    system, scheme = setup()
    message = f"C must have shape {(16, 2, 3)}, got {shape}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build(system, scheme, C=np.zeros(shape))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        sampling.dual_left_inverse(ReconstructionKit(system, scheme).transfer, C=np.zeros(shape))


@pytest.mark.parametrize("build, message", [
    (lambda: average_scheme([]), "at least one averager is required"),
    (lambda: average_scheme([np.ones((4, 3))]), "averager shape (4, 3) does not match L=4"),
    (lambda: average_scheme([np.eye(4), np.eye(5)]), "averager shape (5, 5) does not match L=4"),
    (lambda: average_scheme([np.ones(4)]), "averager shape (4,) does not match L=4"),
    (lambda: window_scheme([(np.ones(4), np.ones(5))]), "averager shape (5, 4) does not match L=5"),
    (lambda: window_scheme([(np.ones(4), np.ones(4)), (np.ones(5), np.ones(5))]),
     "averager shape (5, 5) does not match L=4"),
    (lambda: window_scheme([(np.ones(4), np.ones(4)), (np.ones(3), np.ones(4))]),
     "averager shape (4, 3) does not match L=4"),
    (lambda: window_scheme([]), "at least one averager is required"),
    (lambda: window_scheme([(np.ones(4), np.ones((4, 1)))]), "averager shape (4, 1, 4) does not match L=4"),
    (lambda: OperatorStack([np.eye(4)], [(np.ones(4), np.ones(4))] * 2),
     "give the operators as kernels or as window pairs, not both or neither"),
    (lambda: OperatorStack([np.eye(4)], [np.ones(4)]),
     "give the operators as kernels or as window pairs, not both or neither"),
    (lambda: OperatorStack(what="averager"),
     "give the averagers as kernels or as window pairs, not both or neither"),
    (lambda: window_scheme([(np.ones(4), np.ones(4), np.ones(4))]),
     "averager window item of length 3 is not a pair (g, gt)"),
    (lambda: window_scheme([(np.ones(4), np.ones(4)), (np.ones(4),)]),
     "averager window item of length 1 is not a pair (g, gt)"),
    (lambda: OperatorStack(windows=[(np.ones(4), np.ones(5), np.ones(6))]),
     "operator window item of length 3 is not a pair (g, gt)"),
    (lambda: window_scheme([3]), "averager window item 3 is not a pair (g, gt)"),
    (lambda: window_scheme([None]), "averager window item None is not a pair (g, gt)"),
    (lambda: TransferMatrix(np.ones((3, 2))), "transfer fibers must have shape (K, M, N), each at least 1, got (3, 2)"),
    (lambda: TransferMatrix(np.ones((2, 3, 2, 1))),
     "transfer fibers must have shape (K, M, N), each at least 1, got (2, 3, 2, 1)"),
    (lambda: TransferMatrix(np.ones((4, 0, 2))),
     "transfer fibers must have shape (K, M, N), each at least 1, got (4, 0, 2)"),
    (lambda: TransferMatrix(np.ones((0, 3, 2))),
     "transfer fibers must have shape (K, M, N), each at least 1, got (0, 3, 2)"),
], ids=["empty", "non-square", "mixed-sizes", "not-a-matrix", "unequal-pair", "mixed-pairs",
        "unequal-second-pair", "no-pairs", "windows-of-another-size", "more-windows-than-averagers", "not-pairs",
        "neither", "a-triple", "a-single", "a-ragged-triple", "no-length", "none", "transfer-fibers-2d", "transfer-fibers-4d",
        "transfer-fibers-no-channel", "transfer-fibers-no-fiber"])
def test_sampling_scheme_validates_its_averagers_when_built(build, message):
    # the kernels, window pairs and transfer fibers are checked at construction,
    # as a GeneratorSystem's generators are, not on the first read of a cached stage
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize("L", [8, 12, 48, 60])
def test_window_scheme_transforms_its_pairs_and_forms_kernels_on_read(L):
    rng = np.random.default_rng(L)
    pairs = [(rand_signal(rng, L), rand_signal(rng, L)) for _ in range(3)]
    scheme = window_scheme(pairs)
    stack = np.array([rank_one(gt, g) for g, gt in pairs])
    # the pairs are transformed with the record, and no kernel is formed
    assert len(scheme) == 3 and "spreading" in vars(scheme) and "kernels" not in vars(scheme)
    # the transforms of the pairs are those of the rank_one stack, bit for bit
    assert scheme.spreading.tobytes() == fourier_wigner(stack).tobytes()
    assert scheme.spreading.flags.c_contiguous
    assert_read_only(scheme.spreading)
    assert "kernels" not in vars(scheme)
    # the kernels, formed on the first read, are that stack, once and read-only
    assert scheme.kernels.tobytes() == stack.tobytes() and scheme.kernels is scheme.kernels
    assert_read_only(scheme.kernels)
    assert [S.tobytes() for S in scheme] == [S.tobytes() for S in stack]
    assert np.array_equal(scheme[1], stack[1]) and np.array_equal(scheme[-2:], stack[-2:])
    with pytest.raises(IndexError):
        scheme[3]
    # a record of those kernels keeps a copy and transforms it when built, with the same bits
    kernels = average_scheme(stack)
    assert {"kernels", "spreading"} <= vars(kernels).keys() and kernels.kernels is not stack
    assert kernels.spreading.tobytes() == scheme.spreading.tobytes()
    assert_read_only(kernels.spreading)
    # a pair of unequal lengths is refused with the message its kernel gives
    with pytest.raises(ValueError, match=re.escape(f"averager shape {(L, L + 1)} does not match L={L}")):
        window_scheme([(np.ones(L + 1), np.ones(L))])


@pytest.mark.parametrize("desc", [(2, 2), [(2, 1), (0, 4)]], ids=["separable", "sheared"])
def test_a_pair_record_serves_every_stage_with_no_kernel(monkeypatch, desc):
    rng = np.random.default_rng(12)
    lat = build_lattice(desc, L)
    gen_pairs = [(rand_signal(rng, L), rand_signal(rng, L)) for _ in range(2)]
    scheme = window_scheme([(rand_signal(rng, L), rand_signal(rng, L)) for _ in range(3)])
    coefs = rng.standard_normal((2, lat.size)) + 1j * rng.standard_normal((2, lat.size))

    def run(generators):
        system = GeneratorSystem(lat, generators)
        assert riesz_check(system).is_riesz and riesz_check(system, route="gw").is_riesz
        kit = ReconstructionKit(system, scheme)
        T = synthesize(system, coefs)
        samples = avg_samples(T, scheme, lat)
        return (kit.dual_fibers, T, samples, coefficients(system, T), reconstruct(samples, kit),
                reconstruct_from_spreading(fourier_wigner(T), kit))

    # the same operators held as kernels give the reference, bit for bit
    want = run([rank_one(gt, g) for g, gt in gen_pairs])

    def refuse(self):
        raise AssertionError("an operator record's kernels were read")
    monkeypatch.setattr(OperatorStack, "kernels", property(refuse))
    record = OperatorStack(windows=gen_pairs, what="generator")
    got = run(record)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want, strict=True))
    assert "kernels" not in vars(record) and "kernels" not in vars(scheme)
    with pytest.raises(AssertionError, match="kernels were read"):
        record[0]
    # a record of another modulus is refused from its transforms alone
    with pytest.raises(ValueError, match=re.escape(f"generator shape {(L, L)} does not match L={2 * L}")):
        GeneratorSystem(build_lattice((2, 2), 2 * L), record)


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
    averager = scheme[0].copy()
    for a in given:
        a *= 10
    assert_read_only(scheme)
    assert np.array_equal(scheme[0], averager)
    assert np.array_equal(scheme.spreading, spreading)
    kept = scheme.windows[0] if kind == "windows" else scheme
    assert all(a is not b and np.array_equal(a, b0) for a, b, b0 in zip(kept, given, before))


def record_stages():
    """(class name, stage name, descriptor) of every cached_property of every Immutable record of the engine."""
    return [(cls.__name__, name, attr)
            for module in (phase_space, hs_ops, si_space, sampling)
            for cls in vars(module).values()
            if isinstance(cls, type) and issubclass(cls, Immutable) and cls.__module__ == module.__name__
            for name, attr in vars(cls).items() if isinstance(attr, cached_property)]


def reached_arrays(value):
    """The arrays in value: itself, those in a tuple, and the fields and stages of a record, recursively."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from reached_arrays(item)
    elif isinstance(value, Immutable):
        for item in vars(value).values():
            yield from reached_arrays(item)


@pytest.mark.parametrize("desc", [(2, 2), [(2, 1), (0, 4)]], ids=["separable", "sheared"])
def test_every_cached_stage_of_every_record_is_read_only(desc):
    found = record_stages()
    # every cached property of a record is a stage, and the list holds the known stages
    assert all(isinstance(attr, stage) for _, _, attr in found)
    names = {(kind, name) for kind, name, _ in found}
    assert {("Lattice", "_xy"), ("Lattice", "_twiddles"), ("Lattice", "_coset_gather"), ("OperatorStack", "kernels"),
            ("GeneratorSystem", "spreading_cosets"), ("GeneratorSystem", "riesz_fibers"),
            ("GeneratorSystem", "riesz_spectrum"), ("TransferMatrix", "singular_values"),
            ("ReconstructionKit", "transfer"), ("ReconstructionKit", "dual_fibers"), ("ReconstructionKit", "b"),
            ("ReconstructionKit", "spreading"), ("ReconstructionKit", "recon_ops")} <= names

    rng = np.random.default_rng(13)
    lat = build_lattice(desc, L)
    pairs = OperatorStack(windows=[(rand_signal(rng, L), rand_signal(rng, L)) for _ in range(2)], what="generator")
    kernels = OperatorStack([rand_kernel(rng, L) for _ in range(2)], what="generator")
    scheme = window_scheme([(rand_signal(rng, L), rand_signal(rng, L)) for _ in range(3)])
    records = [lat, pairs, kernels, scheme, average_scheme(tuple(scheme))]
    for generators in (pairs, kernels):
        system = GeneratorSystem(lat, generators)
        C = 0.1 * (rng.standard_normal((lat.size, 2, 3)) + 1j * rng.standard_normal((lat.size, 2, 3)))
        records += [system, ReconstructionKit(system, scheme), ReconstructionKit(system, scheme, C),
                    transfer_matrix(cross_seq(system, scheme), lat), TransferMatrix(transfer_fibers(system, scheme))]
    read, arrays = set(), []
    for record in records:
        for kind, name, _ in found:
            if kind == type(record).__name__:
                arrays += reached_arrays(getattr(record, name))
                read.add((kind, name))
        arrays += reached_arrays(record)
    assert read == names and len(arrays) > 100
    # the series above cached the DFT matrices of the lattice's sides, which every lattice shares
    arrays += [phase_space._dft_matrix(L // d, sign, scaled) for d in lat._hnf[:2] for sign in (1, -1)
               for scaled in (False, True)]
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0


def test_a_kit_is_safe_from_writes_and_from_its_callers_c():
    system, scheme = setup()
    rng = np.random.default_rng(14)
    C = 0.1 * (rng.standard_normal((system.lattice.size, 2, 3)) + 1j * rng.standard_normal((system.lattice.size, 2, 3)))
    kit = ReconstructionKit(system, scheme, C)
    want = ReconstructionKit(system, scheme, C.copy()).dual_fibers
    # the caller reuses its buffer before the dual stage runs
    C[:] = 1e6
    assert np.array_equal(kit.dual_fibers, want)
    with pytest.raises(ValueError, match="read-only"):
        kit.dual_fibers[:] = 0
    assert np.array_equal(kit.dual_fibers, want)


def test_cached_stages_are_computed_once(monkeypatch):
    calls = Counter()

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[f"{module.__name__}.{name}"] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((hs_ops, "fourier_wigner"), (si_space, "cosets"),
                         (si_space, "gram_fibers"), (si_space, "hermitian_spectrum"),
                         (sampling, "transfer_fibers"), (sampling, "riesz_check"),
                         (sampling, "fiber_singular_values"), (si_space, "fiber_singular_values"),
                         (sampling, "frame_bounds"),
                         (sampling, "dual_left_inverse"), (sampling, "tile_product"),
                         (sampling, "inverse_fourier_wigner")):
        counting(module, name)
    system, scheme = setup()
    kit = ReconstructionKit(system, scheme)
    stages = ("riesz", "transfer", "dual_fibers", "b", "spreading", "recon_ops")
    first = {name: getattr(kit, name) for name in stages}
    for _ in range(2):
        assert all(getattr(kit, name) is first[name] for name in stages)
        assert kit.transfer.bounds is kit.transfer.bounds
        assert kit.transfer.singular_values is kit.transfer.singular_values
        assert system.riesz_spectrum is system.riesz_spectrum
        assert system.spreading_cosets is system.spreading_cosets
        assert (kit.alpha, kit.beta) == kit.transfer.bounds[:2]
    assert_read_only((system.spreading_cosets,))
    # one spreading transform of the generators (the window scheme transformed
    # its pairs when built), one coset layout of them, and one of every stage;
    # the left inverse reads the transfer matrix's cached singular values and
    # takes no second pass of its own
    assert calls == {name: 1 for name in calls} and len(calls) == 11
    assert "opsis.si_space.fiber_singular_values" not in calls


def test_one_spreading_transform_per_record(monkeypatch, tmp_path):
    calls = Counter()

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in ("fourier_wigner", "inverse_fourier_wigner"):
        original = getattr(hs_ops, name)
        for module in (opsis, hs_ops, si_space, sampling, cli):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting(name, original))
    rng = np.random.default_rng(11)
    record = OperatorStack([rand_kernel(rng, L) for _ in range(2)], what="generator")
    separable = GeneratorSystem(build_lattice((2, 2), L), record)
    sheared = GeneratorSystem(build_lattice([(2, 1), (0, 4)], L), separable.generators)
    assert separable.generators is sheared.generators is record
    assert sheared.spreading is separable.spreading is record.spreading
    assert riesz_check(separable).upper > 0 and riesz_check(sheared).upper > 0
    assert calls["fourier_wigner"] == 1
    with pytest.raises(ValueError, match=re.escape(f"generator shape {(L, L)} does not match L={L + 2}")):
        GeneratorSystem(build_lattice((2, 2), L + 2), record)

    # a sweep or a reconstruct command transforms the generators once, and the
    # window pairs with no kernel; T and its reconstructions stay in the spreading domain
    scheme = {"windows": [{"g": {"kind": "random"}, "g_tilde": {"kind": "random"}},
                          {"g": {"kind": "gaussian"}, "g_tilde": {"kind": "gaussian"}}]}
    configs = {"sweep": {"sweep": {"a": [2, 4], "b": [2, 4]}}, "reconstruct": {"lattice": {"a": 2, "b": 2}}}
    for command, extra in configs.items():
        calls.clear()
        config = dict(extra, L=L, seed=3, generators=[{"kind": "random"}], scheme=scheme)
        (tmp_path / "c.json").write_text(json.dumps(config))
        out = tmp_path / command
        assert cli.main([command, "--config", str(tmp_path / "c.json"), "--out", str(out)]) == 0
        if command == "sweep":
            rows = (out / "sweep.csv").read_text().splitlines()[1:]
            assert len(rows) == 4 and all(row.endswith(",ok") for row in rows)
        assert (calls["fourier_wigner"], calls["inverse_fourier_wigner"]) == (1, 0)


def test_riesz_report_stays_a_replaceable_dataclass():
    report = RieszReport(True, 0.25, 4.0, "fibers")
    moved = dataclasses.replace(report, lower=0.5)
    assert moved == RieszReport(True, 0.5, 4.0, "fibers", None) != report
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.lower = 1.0
    # the hand-written methods behave as those of the frozen dataclass @dataclass would write
    frozen = dataclasses.make_dataclass(
        "RieszReport", ["is_riesz", "lower", "upper", "route", ("diagnostic", "str | None", None)], frozen=True)
    for fields in [(True, 0.25, 4.0, "fibers"), (False, 0.0, 1.5, "gw", "zero lower bound")]:
        ours, theirs = RieszReport(*fields), frozen(*fields)
        assert repr(ours) == repr(theirs) and hash(ours) == hash(theirs)
        assert dataclasses.astuple(ours) == dataclasses.astuple(theirs)
        assert ours == RieszReport(*fields) and ours != theirs
    assert hash(moved) == hash(RieszReport(True, 0.5, 4.0, "fibers"))
    with pytest.raises(dataclasses.FrozenInstanceError):
        del report.lower
    assert report.lower == 0.25


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
