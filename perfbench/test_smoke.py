"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs in-process for a fraction of a second on small inputs; the
tests check that every metric named in BENCHMARK.json is emitted, that a
deliberately corrupted result is counted as a failure, and that the runner
refuses to run without the opsis sources.
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads

sys.path.insert(0, str(run.SRC))

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "cli_reconstruct": {"L": 8, "step": 2},
    "kit_stream": {"L": 8, "step": 2, "operators": 3},
    "lattice_scan": {"L": 12, "quotas": {12: 3, 24: 2, 48: 1}},
}


def tiny_run(name, trace, seed=3):
    return run.run_workload(name, seed, 0.2, trace, sizes=TINY[name])


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_is_emitted(name, trace):
    result, info = tiny_run(name, trace)
    spec = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert info["error_rate"] == 0.0
    json.dumps(result, allow_nan=False)


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)


def _corrupt_cli(self, i, code):
    path = self.out / "metrics.json"
    metrics = json.loads(path.read_text())
    metrics["reconstruction"]["rel_hs_error"] = 1e-3
    path.write_text(json.dumps(metrics))
    return code


def _corrupt_kit(self, i, result):
    T_rec, coefs = result
    return T_rec * (1 + 1e-6), coefs


def _corrupt_lattice(self, i, result):
    system, report, fb = result
    return system, dataclasses.replace(report, lower=report.lower + 1e-3), fb


CORRUPT = {"cli_reconstruct": _corrupt_cli, "kit_stream": _corrupt_kit,
           "lattice_scan": _corrupt_lattice}


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_corrupted_result_is_counted_as_failure(name, monkeypatch):
    cls = workloads.WORKLOADS[name]
    original = cls.request

    def request(self, i):
        result = original(self, i)
        return CORRUPT[name](self, i, result) if i % 2 == 0 else result

    monkeypatch.setattr(cls, "request", request)
    result, info = tiny_run(name, False)
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]
    assert info["error_rate"] == result["failed"] / result["attempted"]
    success = result["metrics"]["success_rate"]["value"]
    assert success == pytest.approx(100.0 * (1 - info["error_rate"]))


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_inputs_depend_only_on_the_seed(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    a, b, c = (cls(seed, tmp_path, **TINY[name]).fingerprint() for seed in (5, 5, 6))
    assert a == b != c


def test_span_operator_matches_opsis_synthesize():
    import numpy as np
    import opsis

    w = workloads.KitStream(2, L=8, step=2, operators=1)
    system = opsis.GeneratorSystem(opsis.build_lattice((2, 2), 8), w.kernels)
    np.testing.assert_allclose(w.operators[0], opsis.synthesize(system, w.coefs[0]),
                               rtol=0, atol=1e-12)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in run.Path(run.__file__).parent.glob("*.py"):
        shutil.copy(f, bench)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kit_stream", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
