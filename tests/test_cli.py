import json
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import opsis
from opsis import cli, config, hs_ops, sampling, si_space
from opsis.cli import main
from opsis.config import ConfigError, PortableRng, parse_config
from opsis.hs_ops import hs_norm, inverse_fourier_wigner
from opsis.sampling import ReconstructionKit, avg_samples, reconstruct, sublattice_inflate
from opsis.si_space import GeneratorSystem, synthesize


def write_config(path, cfg):
    path.write_text(json.dumps(cfg))
    return str(path)


def read_metrics(outdir):
    return json.loads((outdir / "metrics.json").read_text())


NEGATIVE_CONTROL = {
    "L": 4,
    "seed": 7,
    "lattice": {"a": 1, "b": 1},
    "generators": [
        {"kind": "rank_one", "left": {"kind": "delta"}, "right": {"kind": "delta"}}
    ],
    "scheme": {"windows": [{"g": {"kind": "delta"}, "g_tilde": {"kind": "delta"}}]},
}

GAUSSIAN_RIESZ = {
    "L": 8,
    "seed": 1,
    "lattice": {"a": 2, "b": 2},
    "generators": [
        {"kind": "rank_one", "left": {"kind": "gaussian"}, "right": {"kind": "gaussian"}}
    ],
}

RECON_OK = {
    "L": 8,
    "seed": 42,
    "lattice": {"a": 2, "b": 2},
    "generators": [{"kind": "random"}, {"kind": "random"}],
    "scheme": {
        "windows": [
            {"g": {"kind": "random"}, "g_tilde": {"kind": "random"}},
            {"g": {"kind": "random"}, "g_tilde": {"kind": "random"}},
            {"g": {"kind": "gaussian"}, "g_tilde": {"kind": "gaussian"}},
        ]
    },
}


# ---------------------------------------------------------------- riesz-check

def test_riesz_check_negative_control(tmp_path):
    cfg = write_config(tmp_path / "c.json", NEGATIVE_CONTROL)
    out = tmp_path / "out"
    assert main(["riesz-check", "--config", cfg, "--out", str(out)]) == 0
    metrics = read_metrics(out)
    assert metrics["riesz"]["is_riesz"] is False
    assert metrics["riesz"]["m"] == 0.0


def test_riesz_check_gaussian_regression_pin(tmp_path):
    cfg = write_config(tmp_path / "c.json", GAUSSIAN_RIESZ)
    out = tmp_path / "out"
    assert main(["riesz-check", "--config", cfg, "--out", str(out)]) == 0
    metrics = read_metrics(out)
    assert metrics["riesz"]["is_riesz"] is True
    # values pinned against the dense-Gram oracle on first run
    assert abs(metrics["riesz"]["m"] - 0.34829126543270206) < 1e-9
    assert abs(metrics["riesz"]["M"] - 2.029990258760138) < 1e-9
    fibers_csv = (out / "riesz_fibers.csv").read_text().strip().splitlines()
    assert fibers_csv[0] == "xi_x,xi_w,index,eigenvalue"
    assert len(fibers_csv) == 1 + 16  # one row per fiber eigenvalue


def test_riesz_check_invalid_divisor_exits_3(tmp_path):
    bad = dict(GAUSSIAN_RIESZ, lattice={"a": 3, "b": 2})
    cfg = write_config(tmp_path / "c.json", bad)
    assert main(["riesz-check", "--config", cfg, "--out", str(tmp_path / "out")]) == 3


@pytest.mark.parametrize("cfg", [RECON_OK, GAUSSIAN_RIESZ, NEGATIVE_CONTROL],
                         ids=["random_items", "gaussian_windows", "delta_windows"])
def test_modulus_beyond_the_array_size_limit_exits_3(tmp_path, capsys, cfg):
    # no L x L complex array can be shaped for L = 10 ** 30, nor an array of L entries
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = main(["reconstruct", "--config", write_config(tmp_path / "c.json", dict(cfg, L=10 ** 30)),
                     "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert "'L'" in capsys.readouterr().err
    assert not (out / "metrics.json").exists()
    assert peak < 2 ** 20
    # the bound is the largest L whose L x L complex array numpy can shape
    bound = math.isqrt(np.iinfo(np.intp).max // 16)
    assert parse_config({"L": bound}).L == bound
    with pytest.raises(ConfigError, match="'L' must be an integer in"):
        parse_config({"L": bound + 1})


def test_running_out_of_memory_exits_3(tmp_path, capsys, monkeypatch):
    # L = 100000 on a 1000 x 1000 lattice asks parse_config for 149 GiB; the
    # error is raised in its place, since a host that overcommits memory may
    # grant the real request and run out later
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 149. GiB")

    monkeypatch.setattr(cli, "parse_config", out_of_memory)
    out = tmp_path / "out"
    assert main(["riesz-check", "--config", write_config(tmp_path / "c.json", GAUSSIAN_RIESZ),
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == "opsis: invalid configuration: out of memory (Unable to allocate 149. GiB)\n"
    assert not out.exists()


# in these exit-3 tests the ids leave the expected path out of each case's name
@pytest.mark.parametrize("command, cfg, extra, label", [
    ("riesz-check", GAUSSIAN_RIESZ, {"tolerances": {"riesz": True}}, "tolerances.riesz"),
    ("reconstruct", RECON_OK, {"tolerances": {"frame": True}}, "tolerances.frame"),
    ("reconstruct", RECON_OK, {"dual_perturbation": {"enabled": True, "scale": True}},
     "dual_perturbation.scale"),
], ids=["riesz-check-cfg0-extra0", "reconstruct-cfg1-extra1", "reconstruct-cfg2-extra2"])
def test_boolean_for_a_number_exits_3(tmp_path, capsys, command, cfg, extra, label):
    path = write_config(tmp_path / "c.json", dict(cfg, **extra))
    assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 3
    assert f"'{label}'" in capsys.readouterr().err


@pytest.mark.parametrize("change, label", [
    ({"lattice": {"generators": [[1.5, 0], [0, 2]]}}, "lattice.generators[0][0]"),
    ({"lattice": {"generators": [["1", 0], [0, 2]]}}, "lattice.generators[0][0]"),
    ({"lattice": {"generators": [[True, 0], [0, 2]]}}, "lattice.generators[0][0]"),
    ({"lattice": {"generators": [[1, 0, 5], [0, 2]]}}, "lattice.generators[0]"),
    ({"lattice": {"generators": [2, 2]}}, "lattice.generators[0]"),
    ({"generators": [{"kind": "rank_one", "left": {"kind": "delta", "at": True},
                      "right": {"kind": "gaussian"}}]}, "generators[0].left.at"),
], ids=[f"change{i}" for i in range(6)])
def test_malformed_lattice_generator_or_delta_exits_3(tmp_path, capsys, change, label):
    cfg = write_config(tmp_path / "c.json", dict(GAUSSIAN_RIESZ, **change))
    assert main(["riesz-check", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    assert f"'{label}'" in capsys.readouterr().err


@pytest.mark.parametrize("content", [None, b'{"seed": ' + b"7" * 5000 + b"}", b'{"L": 12, "x": "\xff"}'],
                         ids=["missing", "5000-digit-seed", "non-utf8-byte"])
def test_unreadable_config_exits_3(tmp_path, content):
    path = tmp_path / "c.json"
    if content is not None:
        path.write_bytes(content)
    out = tmp_path / "out"
    assert main(["riesz-check", "--config", str(path), "--out", str(out)]) == 3
    assert not (out / "metrics.json").exists()


# ---------------------------------------------------------------- frame-check

def test_frame_check_reports_bounds(tmp_path):
    cfg = write_config(tmp_path / "c.json", RECON_OK)
    out = tmp_path / "out"
    assert main(["frame-check", "--config", cfg, "--out", str(out)]) == 0
    metrics = read_metrics(out)
    assert metrics["frame"]["alpha_A"] > 0
    assert metrics["frame"]["beta_A"] >= metrics["frame"]["alpha_A"]
    assert (out / "frame_fibers.csv").exists()


# ---------------------------------------------------------------- reconstruct

def test_reconstruct_happy_path(tmp_path):
    cfg = write_config(tmp_path / "c.json", RECON_OK)
    out = tmp_path / "out"
    assert main(["reconstruct", "--config", cfg, "--out", str(out)]) == 0
    metrics = read_metrics(out)
    assert metrics["reconstruction"]["rel_hs_error"] < 1e-9


def test_reconstruct_square_case_reports_interpolation(tmp_path):
    square = dict(RECON_OK, scheme={"windows": RECON_OK["scheme"]["windows"][:2]})
    cfg = write_config(tmp_path / "c.json", square)
    out = tmp_path / "out"
    assert main(["reconstruct", "--config", cfg, "--out", str(out)]) == 0
    metrics = read_metrics(out)
    assert metrics["reconstruction"]["interp_max_dev"] < 1e-10


def test_reconstruct_rank_one_generators_sum_of_multipliers(tmp_path):
    # operators in a rank-one-generated space are finite sums of Gabor
    # multipliers; the square pipeline reconstructs and interpolates
    cfg_dict = {
        "L": 8,
        "seed": 5,
        "lattice": {"a": 2, "b": 2},
        "generators": [
            {"kind": "rank_one", "left": {"kind": "random"}, "right": {"kind": "random"}},
            {"kind": "rank_one", "left": {"kind": "random"}, "right": {"kind": "random"}},
        ],
        "scheme": {
            "windows": [
                {"g": {"kind": "random"}, "g_tilde": {"kind": "random"}},
                {"g": {"kind": "random"}, "g_tilde": {"kind": "random"}},
            ]
        },
    }
    cfg = write_config(tmp_path / "c.json", cfg_dict)
    out = tmp_path / "out"
    assert main(["reconstruct", "--config", cfg, "--out", str(out)]) == 0
    metrics = read_metrics(out)
    assert metrics["reconstruction"]["rel_hs_error"] < 1e-9
    assert metrics["reconstruction"]["interp_max_dev"] < 1e-10


def test_reconstruct_with_dual_perturbation(tmp_path):
    perturbed = dict(RECON_OK, dual_perturbation={"enabled": True})
    cfg = write_config(tmp_path / "c.json", perturbed)
    out = tmp_path / "out"
    assert main(["reconstruct", "--config", cfg, "--out", str(out)]) == 0
    metrics = read_metrics(out)
    assert metrics["reconstruction"]["rel_hs_error"] < 1e-9


def test_reconstruct_respects_frame_tolerance_override(tmp_path):
    strict = dict(RECON_OK, tolerances={"frame": 1e6})
    cfg = write_config(tmp_path / "c.json", strict)
    out = tmp_path / "out"
    assert main(["reconstruct", "--config", cfg, "--out", str(out)]) == 2
    assert read_metrics(out)["error"]["kind"] == "not_a_frame"


def test_a_failed_riesz_gate_reports_the_librarys_message(tmp_path):
    strict = dict(RECON_OK, tolerances={"riesz": 1e6})
    cfg = write_config(tmp_path / "c.json", strict)
    out = tmp_path / "out"
    assert main(["reconstruct", "--config", cfg, "--out", str(out)]) == 2
    metrics = read_metrics(out)
    # the same system at the same tolerance in the library: its message names the positive bound
    parsed = parse_config(strict)
    kit = ReconstructionKit(GeneratorSystem(parsed.lattice, parsed.generator_kernels), parsed.scheme, riesz_tol=1e6)
    with pytest.raises(si_space.NotRieszError) as failure:
        kit.riesz.require()
    assert metrics["error"] == {"kind": "not_riesz", "detail": str(failure.value)}
    assert 0 < metrics["riesz"]["m"] < 1e6 and f"lower fiber bound {metrics['riesz']['m']:.3e}" in str(failure.value)


def spreading_kernel(L, point, value):
    """explicit_kernel spec of an operator whose spreading transform is 1 except at `point`."""
    F = np.ones((L, L), dtype=complex)
    F[point] = value
    rows = inverse_fourier_wigner(F)
    return {"kind": "explicit_kernel", "kernel": [[[z.real, z.imag] for z in row] for row in rows]}


# Riesz lower bound about 4e-14 and alpha_A about 7e-14: both pass a zero
# tolerance and fail the default gate of 1e-10 times the upper bound.
NEAR_SINGULAR = {
    "L": 4,
    "seed": 0,
    "lattice": {"a": 1, "b": 1},
    "generators": [spreading_kernel(4, (1, 2), 1e-7)],
    "scheme": {"windows": [{"g": {"kind": "random"}, "g_tilde": {"kind": "random"}}]},
}


def test_configured_tolerances_gate_every_stage(tmp_path):
    loose = dict(NEAR_SINGULAR, tolerances={"riesz": 0, "frame": 0},
                 sweep={"a": [1], "b": [1]})
    cfg = write_config(tmp_path / "c.json", loose)
    out = tmp_path / "out"
    assert main(["reconstruct", "--config", cfg, "--out", str(out)]) == 0
    metrics = read_metrics(out)
    assert 0 < metrics["riesz"]["m"] < 1e-10 * metrics["riesz"]["M"]
    assert 0 < metrics["frame"]["alpha_A"] < 1e-10 * metrics["frame"]["beta_A"]
    assert metrics["reconstruction"]["rel_hs_error"] < 1e-6
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    row = (out / "sweep.csv").read_text().splitlines()[1]
    assert row.endswith(",ok")

    cfg = write_config(tmp_path / "d.json", NEAR_SINGULAR)
    assert main(["reconstruct", "--config", cfg, "--out", str(tmp_path / "default")]) == 2
    assert read_metrics(tmp_path / "default")["error"]["kind"] == "not_riesz"


def test_left_inverse_failure_writes_metrics(tmp_path):
    # two nearly equal channels: alpha_A is positive, so a zero frame
    # tolerance passes the gate, but the pseudoinverse drops the tiny
    # singular value and is no left inverse
    nearly_equal = dict(RECON_OK, L=4, tolerances={"frame": 0}, scheme={"windows": [
        {"g": {"kind": "gaussian"}, "g_tilde": {"kind": "delta"}},
        {"g": {"kind": "gaussian"},
         "g_tilde": {"kind": "explicit", "values": [[1, 0], [1e-12, 0], [0, 0], [0, 0]]}},
    ]})
    cfg = write_config(tmp_path / "c.json", nearly_equal)
    out = tmp_path / "out"
    assert main(["reconstruct", "--config", cfg, "--out", str(out)]) == 2
    metrics = read_metrics(out)
    assert metrics["frame"]["alpha_A"] > 0
    assert metrics["error"]["kind"] == "not_a_frame"
    assert metrics["error"]["detail"].startswith("left-inverse residual")


@pytest.mark.parametrize("key", ["riesz", "frame"])
@pytest.mark.parametrize("value", [-1, -1e-300, math.nan, math.inf, -math.inf,
                                   pytest.param(10 ** 400, id="int_1e400")])
def test_negative_or_non_finite_tolerance_exits_3(tmp_path, key, value):
    # json.dumps writes 10 ** 400 as the integer literal 1 followed by 400 zeros
    cfg = write_config(tmp_path / "c.json", dict(RECON_OK, tolerances={key: value}))
    assert main(["reconstruct", "--config", cfg, "--out", str(tmp_path / "out")]) == 3


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400",
                                     pytest.param("1" + "0" * 400, id="int_1e400")])
def test_non_finite_dual_perturbation_scale_exits_3(tmp_path, literal):
    # json.load reads NaN and Infinity, 1e400 as inf and 1 followed by 400 zeros as an int
    text = json.dumps(dict(RECON_OK, dual_perturbation={"enabled": True, "scale": "SCALE"}))
    cfg = tmp_path / "c.json"
    cfg.write_text(text.replace('"SCALE"', literal))
    out = tmp_path / "out"
    assert main(["reconstruct", "--config", str(cfg), "--out", str(out)]) == 3
    assert not (out / "metrics.json").exists()


@pytest.mark.parametrize("spec, label", [
    (True, "dual_perturbation"),
    ([1, 2], "dual_perturbation"),
    ("enabled", "dual_perturbation"),
    ({"enabled": "false"}, "dual_perturbation.enabled"),
    ({"enabled": "no"}, "dual_perturbation.enabled"),
    ({"enabled": 1}, "dual_perturbation.enabled"),
    ({"enabled": None}, "dual_perturbation.enabled"),
    ({"scale": 2.0}, "dual_perturbation.enabled"),                      # no 'enabled'
    ({"enabled": False, "scale": "large"}, "dual_perturbation.scale"),  # checked when disabled too
], ids=["True", "spec1", "enabled"] + [f"spec{i}" for i in range(3, 9)])
def test_malformed_dual_perturbation_exits_3(tmp_path, capsys, spec, label):
    cfg = write_config(tmp_path / "c.json", dict(RECON_OK, dual_perturbation=spec))
    out = tmp_path / "out"
    assert main(["reconstruct", "--config", cfg, "--out", str(out)]) == 3
    assert not (out / "metrics.json").exists()
    assert f"'{label}'" in capsys.readouterr().err


def test_disabled_dual_perturbation_is_the_default_dual(tmp_path):
    outputs = []
    for name, extra in (("plain", {}), ("off", {"dual_perturbation": {"enabled": False, "scale": 5}})):
        cfg = write_config(tmp_path / f"{name}.json", dict(RECON_OK, **extra))
        assert main(["reconstruct", "--config", cfg, "--out", str(tmp_path / name)]) == 0
        outputs.append((tmp_path / name / "metrics.json").read_bytes())
    assert outputs[0] == outputs[1]


# a config every command runs on, with exit 0
ALL_COMMANDS_OK = dict(RECON_OK, sweep={"a": [2], "b": [2]})


@pytest.mark.parametrize("command", ["riesz-check", "frame-check", "reconstruct",
                                     "channel-demo", "sweep"])
@pytest.mark.parametrize("tolerances, label", [
    ("bad", "tolerances"), ([1e-3], "tolerances"), ({"riesz": "1e-3"}, "tolerances.riesz"),
    ({"frame": -1}, "tolerances.frame"),
], ids=["bad", "tolerances1", "tolerances2", "tolerances3"])
def test_malformed_tolerances_exit_3_on_every_command(tmp_path, capsys, command, tolerances, label):
    cfg = write_config(tmp_path / "ok.json", ALL_COMMANDS_OK)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "ok")]) == 0
    cfg = write_config(tmp_path / "c.json", dict(ALL_COMMANDS_OK, tolerances=tolerances))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([command, "--config", cfg, "--out", str(out)]) == 3
    assert not (out / "metrics.json").exists()
    assert f"'{label}'" in capsys.readouterr().err


# every object of the schema, each window and generator kind included
EVERY_OBJECT = {
    "L": 8,
    "seed": 42,
    "lattice": {"a": 2, "b": 2},
    "sublattice": {"a": 4, "b": 2},
    "generators": [
        {"kind": "random"},
        {"kind": "rank_one", "left": {"kind": "delta", "at": 1},
         "right": {"kind": "explicit", "values": [[1, 0]] * 8}},
        {"kind": "explicit_kernel", "kernel": [[[1, 0]] * 8] * 8},
    ],
    "scheme": {"windows": [{"g": {"kind": "random"}, "g_tilde": {"kind": "gaussian"}}]},
    "tolerances": {"riesz": 1e-10},
    "dual_perturbation": {"enabled": False},
    "sweep": {"a": [2], "b": [2]},
    "channel": {"kind": "identity"},
}


@pytest.mark.parametrize("path, label", [
    ((), "typo"),
    (("lattice",), "lattice.typo"),
    (("sublattice",), "sublattice.typo"),
    (("generators", 0), "generators[0].typo"),
    (("generators", 1), "generators[1].typo"),
    (("generators", 1, "left"), "generators[1].left.typo"),
    (("generators", 1, "right"), "generators[1].right.typo"),
    (("generators", 2), "generators[2].typo"),
    (("scheme",), "scheme.typo"),
    (("scheme", "windows", 0), "scheme.windows[0].typo"),
    (("scheme", "windows", 0, "g"), "scheme.windows[0].g.typo"),
    (("scheme", "windows", 0, "g_tilde"), "scheme.windows[0].g_tilde.typo"),
    (("tolerances",), "tolerances.typo"),
    (("dual_perturbation",), "dual_perturbation.typo"),
    (("sweep",), "sweep.typo"),
    (("channel",), "channel.typo"),
])
def test_unknown_key_exits_3_and_names_its_path(tmp_path, capsys, path, label):
    assert main(["frame-check", "--config", write_config(tmp_path / "ok.json", EVERY_OBJECT),
                 "--out", str(tmp_path / "ok")]) == 0
    raw = json.loads(json.dumps(EVERY_OBJECT))
    obj = raw
    for step in path:
        obj = obj[step]
    obj["typo"] = 1
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["frame-check", "--config", write_config(tmp_path / "c.json", raw),
                 "--out", str(out)]) == 3
    assert f"unknown key '{label}'" in capsys.readouterr().err
    assert not (out / "metrics.json").exists()


@pytest.mark.parametrize("extra", [
    {"lattice": {"a": 2, "b": 2, "generators": [[2, 0], [0, 2]]}},  # 'a' and 'b' go unread
    {"scheme": {"averagers": [{"kind": "random", "at": 3}]}},        # a key of another kind
])
def test_keys_the_schema_does_not_read_exit_3(tmp_path, extra):
    cfg = write_config(tmp_path / "c.json", dict(RECON_OK, **extra))
    assert main(["reconstruct", "--config", cfg, "--out", str(tmp_path / "out")]) == 3


@pytest.mark.parametrize("extra, label", [
    ({"sweep": "bad"}, "sweep"), ({"sweep": {"a": [2]}}, "sweep.b"),
    ({"sweep": {"a": [], "b": [2]}}, "sweep.a"), ({"sweep": {"a": [2], "b": [True]}}, "sweep.b[0]"),
    ({"channel": "identity"}, "channel"), ({"channel": {"kind": "noise"}}, "channel.kind"),
], ids=[f"extra{i}" for i in range(6)])
def test_malformed_sweep_or_channel_exits_3_on_every_command(tmp_path, capsys, extra, label):
    # both are validated with the rest of the config, not only by the command that reads them
    cfg = write_config(tmp_path / "c.json", dict(RECON_OK, **extra))
    assert main(["reconstruct", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    assert f"'{label}'" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_dual_perturbation_fails_the_left_inverse_gate(tmp_path):
    # a finite scale whose family member overflows: the residual is NaN, not small
    perturbed = dict(RECON_OK, dual_perturbation={"enabled": True, "scale": 1e308})
    cfg = write_config(tmp_path / "c.json", perturbed)
    out = tmp_path / "out"
    assert main(["reconstruct", "--config", cfg, "--out", str(out)]) == 2
    assert read_metrics(out)["error"] == {"kind": "not_a_frame",
                                          "detail": "left-inverse residual nan exceeds 1e-10"}


STAGES = {"gram_fibers": si_space, "riesz_check": si_space,
          "transfer_fibers": sampling, "frame_bounds": sampling}


@pytest.fixture
def stage_calls(monkeypatch):
    """Counts of calls to the pipeline's stage functions, through every binding."""
    calls = Counter()

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name, home in STAGES.items():
        original = getattr(home, name)
        wrapper = counting(name, original)
        for module in (opsis, si_space, sampling, cli):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapper)
    return calls


def test_reconstruct_computes_each_stage_once(tmp_path, stage_calls):
    cfg = write_config(tmp_path / "c.json", RECON_OK)
    assert main(["reconstruct", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert stage_calls == {name: 1 for name in STAGES}


def test_sweep_row_computes_each_stage_once(tmp_path, stage_calls):
    cfg = write_config(tmp_path / "c.json", dict(SWEEP, sweep={"a": [2], "b": [2]}))
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "sweep.csv").read_text().splitlines()[1].endswith(",ok")
    assert stage_calls == {name: 1 for name in STAGES}


def test_console_script_is_installed(tmp_path):
    import shutil

    exe = shutil.which("opsis")
    if exe is None:
        pytest.skip("console script not on PATH")
    cfg = write_config(tmp_path / "c.json", GAUSSIAN_RIESZ)
    out = tmp_path / "out"
    proc = subprocess.run([exe, "riesz-check", "--config", cfg, "--out", str(out)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert (out / "metrics.json").exists()


def test_python_m_runs_the_command(tmp_path):
    # runs on every CI leg, where the console script may not be on PATH
    cfg = write_config(tmp_path / "c.json", GAUSSIAN_RIESZ)
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=str(Path(opsis.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-m", "opsis.cli", "riesz-check", "--config", cfg,
                           "--out", str(out)], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.startswith("opsis riesz-check: done in ")
    assert read_metrics(out)["riesz"]["is_riesz"] is True


@pytest.mark.parametrize("command", list(cli._COMMANDS))
@pytest.mark.parametrize("where", ["file", "below a file"])
def test_an_unusable_output_directory_exits_3(tmp_path, capsys, command, where):
    cfg = write_config(tmp_path / "c.json", dict(RECON_OK, sweep={"a": [2], "b": [2]}))
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = blocker if where == "file" else blocker / "sub"
    assert main([command, "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("opsis: cannot write output: ") and str(out) in err


def test_an_unwritable_table_exits_3(tmp_path, capsys):
    # the directory is made, but a table's name is taken by a directory
    out = tmp_path / "out"
    (out / "riesz_fibers.csv").mkdir(parents=True)
    cfg = write_config(tmp_path / "c.json", GAUSSIAN_RIESZ)
    assert main(["riesz-check", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(out / "riesz_fibers.csv") in err
    assert not (out / "metrics.json").exists()


AVERAGERS_24 = {
    "L": 24,
    "seed": 5,
    "lattice": {"a": 4, "b": 4},
    "generators": [{"kind": "random"}] * 2,
    "scheme": {"averagers": [{"kind": "random"}] * 3},
}


@pytest.mark.parametrize("command, stacks", [("riesz-check", [(2, 24, 24)]),
                                             ("frame-check", [(2, 24, 24), (3, 24, 24)])])
def test_only_commands_that_read_the_scheme_transform_it(tmp_path, monkeypatch, command, stacks):
    calls = Counter()
    transform = hs_ops.fourier_wigner

    def counting(S):
        calls[np.shape(S)] += 1
        return transform(S)

    monkeypatch.setattr(hs_ops, "fourier_wigner", counting)
    assert main([command, "--config", write_config(tmp_path / "c.json", AVERAGERS_24),
                 "--out", str(tmp_path / "out")]) == 0
    # the generators' stack, and the averagers' only where the command reads them
    assert calls == Counter(stacks)


@pytest.mark.parametrize("scheme, label", [
    ({"averagers": [{"kind": "random", "seed": -1.5}]}, "'scheme.averagers[0].seed' must be an integer"),
    ({"averagers": [{"kind": "rank_one", "left": {"kind": "delta", "at": 24}, "right": {"kind": "delta"}}]},
     "'scheme.averagers[0].left.at' must be an integer in [0, 23]"),
    ({"windows": [{"g": {"kind": "explicit", "values": [[1, 0]]}, "g_tilde": {"kind": "gaussian"}}]},
     "'scheme.windows[0].g.values' must have length 24"),
    ({"windows": [], "averagers": []}, "'scheme' must hold exactly one of"),
], ids=["seed", "delta", "length", "both"])
def test_a_malformed_scheme_exits_3_on_riesz_check(tmp_path, capsys, scheme, label):
    cfg = write_config(tmp_path / "c.json", dict(AVERAGERS_24, scheme=scheme))
    assert main(["riesz-check", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    assert label in capsys.readouterr().err


def test_reconstruct_underdetermined_exits_2(tmp_path):
    under = dict(RECON_OK, scheme={"windows": RECON_OK["scheme"]["windows"][:1]})
    cfg = write_config(tmp_path / "c.json", under)
    out = tmp_path / "out"
    assert main(["reconstruct", "--config", cfg, "--out", str(out)]) == 2
    metrics = read_metrics(out)
    assert metrics["frame"]["alpha_A"] == 0.0
    assert metrics["error"]["kind"] == "not_a_frame"


def test_reconstruct_negative_control_exits_2(tmp_path):
    cfg = write_config(tmp_path / "c.json", NEGATIVE_CONTROL)
    out = tmp_path / "out"
    assert main(["reconstruct", "--config", cfg, "--out", str(out)]) == 2
    metrics = read_metrics(out)
    assert metrics["frame"]["alpha_A"] < 1e-20


def test_reconstruct_missing_scheme_exits_3(tmp_path):
    cfg = write_config(tmp_path / "c.json", GAUSSIAN_RIESZ)
    assert main(["reconstruct", "--config", cfg, "--out", str(tmp_path / "out")]) == 3


def test_reconstruct_with_sublattice(tmp_path):
    sub = dict(RECON_OK)
    sub["generators"] = [{"kind": "random"}]
    sub["sublattice"] = {"generators": [[4, 0], [0, 2]]}
    cfg = write_config(tmp_path / "c.json", sub)
    out = tmp_path / "out"
    assert main(["reconstruct", "--config", cfg, "--out", str(out)]) == 0
    metrics = read_metrics(out)
    assert metrics["config"]["sublattice"] is True
    assert metrics["frame"]["N"] == 2  # one generator inflated over two cosets
    assert metrics["reconstruction"]["rel_hs_error"] < 1e-9


PARSEVAL_CONFIGS = {
    "separable": dict(RECON_OK, L=12, lattice={"a": 2, "b": 3}),
    "sheared": dict(RECON_OK, L=12, lattice={"generators": [[2, 1], [0, 4]]}),
    "sublattice": dict(RECON_OK, generators=[{"kind": "random"}], sublattice={"generators": [[4, 0], [0, 2]]}),
    "sweep_grid": dict(RECON_OK, sweep={"a": [1, 2], "b": [2, 4]}),
}


@pytest.mark.parametrize("name", PARSEVAL_CONFIGS)
def test_rel_hs_error_by_parseval_matches_the_kernel_domain(tmp_path, name):
    raw = PARSEVAL_CONFIGS[name]
    out = tmp_path / "out"
    assert main(["reconstruct", "--config", write_config(tmp_path / "c.json", raw), "--out", str(out)]) == 0
    # the command's T and kit, with T and its reconstruction formed as kernels
    cfg = parse_config(raw)
    system = GeneratorSystem(cfg.lattice, cfg.generator_kernels)
    T = synthesize(system, PortableRng(cfg.coef_seed).complex_normal((system.num_generators, system.lattice.size)))
    if cfg.sublattice is not None:
        system = sublattice_inflate(system, cfg.sublattice)
    kit = ReconstructionKit(system, cfg.scheme)
    kernel = hs_norm(T - reconstruct(avg_samples(T, cfg.scheme, system.lattice), kit)) / hs_norm(T)
    parseval = read_metrics(out)["reconstruction"]["rel_hs_error"]
    assert abs(parseval - kernel) <= 1e-15 and max(parseval, kernel) < 1e-14


# ---------------------------------------------------------------- the draw

def recording_draws(monkeypatch):
    """The size of every Box-Muller call, and every config main parses, as they happen."""
    seen = {"draws": [], "configs": []}
    box_muller, parse = config._box_muller, cli.parse_config

    def counting(bits, out):
        seen["draws"].append(len(out))
        return box_muller(bits, out)

    def parsing(*args, **kwargs):
        seen["configs"].append(parse(*args, **kwargs))
        return seen["configs"][-1]

    monkeypatch.setattr(config, "_box_muller", counting)
    monkeypatch.setattr(cli, "parse_config", parsing)
    return seen


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_config_items_unchanged(cfg, raw):
    """cfg's generators, windows and subseeds are those of parse_config(raw), which draws no coefficients."""
    plain = parse_config(raw)
    assert plain.coefficients is None
    assert (cfg.coef_seed, cfg.dual_seed) == (plain.coef_seed, plain.dual_seed)
    assert all(same_bits(a, b) for a, b in zip(cfg.generator_kernels, plain.generator_kernels, strict=True))
    assert cfg.scheme is None or same_bits(cfg.scheme.windows, plain.scheme.windows)


@pytest.mark.parametrize("name", PARSEVAL_CONFIGS)
def test_reconstruct_draws_its_coefficients_in_the_config_pass(tmp_path, monkeypatch, name):
    raw = PARSEVAL_CONFIGS[name]
    seen = recording_draws(monkeypatch)
    assert main(["reconstruct", "--config", write_config(tmp_path / "c.json", raw),
                 "--out", str(tmp_path / "out")]) == 0
    draws = list(seen["draws"])
    (cfg,) = seen["configs"]
    N, K = len(cfg.generator_kernels), cfg.lattice.size
    # one kernel call for the config's items and the coefficients after them
    assert draws == [N * cfg.L ** 2 + 2 * 2 * cfg.L + N * K]
    assert same_bits(cfg.coefficients, PortableRng(cfg.coef_seed).complex_normal((N, K)))
    assert_config_items_unchanged(cfg, raw)


@pytest.mark.parametrize("command, extra, reads", [
    ("riesz-check", {}, False),
    ("frame-check", {}, False),
    ("channel-demo", {}, True),
    ("channel-demo", {"channel": {"kind": "synthesized"}}, True),
    ("channel-demo", {"channel": {"kind": "identity"}}, False),
    ("sweep", {"sweep": {"a": [1, 2], "b": [2, 4]}}, False),
], ids=["riesz-check", "frame-check", "channel-demo", "synthesized", "identity", "sweep"])
def test_other_commands_draw_the_values_they_read(tmp_path, monkeypatch, command, extra, reads):
    raw = dict(RECON_OK, **extra)
    seen = recording_draws(monkeypatch)
    out = tmp_path / "out"
    assert main([command, "--config", write_config(tmp_path / "c.json", raw), "--out", str(out)]) == 0
    draws = list(seen["draws"])
    (cfg,) = seen["configs"]
    N, K = len(cfg.generator_kernels), cfg.lattice.size
    # riesz-check reads no scheme, so its pass draws no window
    reads_scheme = command != "riesz-check"
    assert (cfg.scheme is not None) == reads_scheme
    config_pass = N * cfg.L ** 2 + 2 * 2 * cfg.L * reads_scheme
    if reads:
        assert draws == [config_pass + N * K]
        assert same_bits(cfg.coefficients, PortableRng(cfg.coef_seed).complex_normal((N, K)))
    elif command == "sweep":
        # each row that reconstructs draws its own stream, coef_seed + row index
        rows = [row.split(",") for row in (out / "sweep.csv").read_text().splitlines()[1:]]
        ok = [N * (cfg.L // int(a)) * (cfg.L // int(b)) for _, a, b, *_, status in rows if status == "ok"]
        assert cfg.coefficients is None and ok and draws == [config_pass] + ok
    else:
        assert cfg.coefficients is None and draws == [config_pass]
    assert_config_items_unchanged(cfg, raw)


def test_reconstruct_without_a_lattice_draws_no_coefficients(tmp_path, monkeypatch, capsys):
    # a sweep grid lets the generators come without a lattice; reconstruct then needs one
    seen = recording_draws(monkeypatch)
    assert main(["reconstruct", "--config", write_config(tmp_path / "c.json", SWEEP),
                 "--out", str(tmp_path / "out")]) == 3
    assert "needs 'lattice + generators'" in capsys.readouterr().err
    (cfg,) = seen["configs"]
    assert cfg.coefficients is None and seen["draws"] == [cfg.L ** 2 + 2 * cfg.L]


# ---------------------------------------------------------------- channel-demo

def test_channel_demo_seeded(tmp_path):
    cfg = write_config(tmp_path / "c.json", dict(RECON_OK))
    out = tmp_path / "out"
    assert main(["channel-demo", "--config", cfg, "--out", str(out)]) == 0
    metrics = read_metrics(out)
    assert metrics["channel"]["diag_max_dev"] < 1e-12
    rows = (out / "channel_matrix.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 16 * 16  # header plus one row per lattice pair


def test_channel_demo_identity(tmp_path):
    ident = dict(RECON_OK, channel={"kind": "identity"})
    del ident["generators"]
    cfg = write_config(tmp_path / "c.json", ident)
    out = tmp_path / "out"
    assert main(["channel-demo", "--config", cfg, "--out", str(out)]) == 0
    metrics = read_metrics(out)
    assert metrics["channel"]["kind"] == "identity"
    assert metrics["channel"]["diag_max_dev"] < 1e-12


# ---------------------------------------------------------------- sweep

SWEEP = {
    "L": 8,
    "seed": 3,
    "sweep": {"a": [1, 2, 4], "b": [1, 2, 4]},
    "generators": [{"kind": "random"}],
    "scheme": {
        "windows": [
            {"g": {"kind": "random"}, "g_tilde": {"kind": "random"}},
            {"g": {"kind": "gaussian"}, "g_tilde": {"kind": "gaussian"}},
        ]
    },
}


def test_sweep_grid_rows(tmp_path):
    cfg = write_config(tmp_path / "c.json", SWEEP)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "sweep.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 9


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_sweep_row_keeps_riesz_bounds_when_transfer_fibers_overflow(tmp_path):
    big = [[1e200, 0.0]] * 4
    window = {"kind": "explicit", "values": big}
    cfg = write_config(tmp_path / "c.json", {
        "L": 4,
        "seed": 0,
        "generators": [
            {"kind": "rank_one", "left": {"kind": "gaussian"}, "right": {"kind": "gaussian"}}
        ],
        "scheme": {"windows": [{"g": window, "g_tilde": window}]},
        "sweep": {"a": [2], "b": [2]},
    })
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    row = (out / "sweep.csv").read_text().splitlines()[1].split(",")
    assert row[:5] == ["4", "2", "2", "1", "1"]
    assert math.isfinite(float(row[5])) and math.isfinite(float(row[6]))
    assert row[7:] == ["", "", "", "NumericalError"]


def test_sweep_is_byte_deterministic(tmp_path):
    cfg = write_config(tmp_path / "c.json", SWEEP)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["sweep", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
    assert (out1 / "metrics.json").read_bytes() == (out2 / "metrics.json").read_bytes()


def test_reconstruct_outputs_are_byte_deterministic(tmp_path):
    cfg = write_config(tmp_path / "c.json", RECON_OK)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["reconstruct", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["reconstruct", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "metrics.json").read_bytes() == (out2 / "metrics.json").read_bytes()


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_a_gaussian_window_writes_what_its_explicit_vector_writes(tmp_path, command):
    # the config pass builds gaussian windows after its draw, which they take no subseed from
    from opsis.timefreq import gaussian_window

    L, gaussian = 8, {"kind": "gaussian"}
    explicit = {"kind": "explicit", "values": [[v.real, v.imag] for v in gaussian_window(L).tolist()]}

    def config(window):
        return {"L": L, "seed": 5, "lattice": {"a": 2, "b": 2}, "sweep": {"a": [1, 2], "b": [2, 4]},
                "generators": [{"kind": "random"}, {"kind": "rank_one", "left": window, "right": {"kind": "random"}}],
                "scheme": {"windows": [{"g": window, "g_tilde": {"kind": "random"}},
                                       {"g": {"kind": "random"}, "g_tilde": window},
                                       {"g": window, "g_tilde": window}]}}
    outs = []
    for name, window in (("gaussian", gaussian), ("explicit", explicit)):
        cfg = write_config(tmp_path / f"{name}.json", config(window))
        outs.append(tmp_path / name)
        assert main([command, "--config", cfg, "--out", str(outs[-1])]) == 0
    files = sorted(path.name for path in outs[0].iterdir())
    assert files == sorted(path.name for path in outs[1].iterdir())
    assert all((outs[0] / f).read_bytes() == (outs[1] / f).read_bytes() for f in files)


def test_seed_override_changes_metrics(tmp_path):
    cfg = write_config(tmp_path / "c.json", RECON_OK)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["reconstruct", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["reconstruct", "--config", cfg, "--out", str(out2), "--seed", "99"]) == 0
    m1, m2 = read_metrics(out1), read_metrics(out2)
    assert m1["seed"] == 42 and m2["seed"] == 99
    assert m1["frame"]["alpha_A"] != m2["frame"]["alpha_A"]


# ---------------------------------------------------------------- numerical failure

@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_kernel_exits_4(tmp_path):
    big = 1e200
    kernel = [[[big, 0.0] for _ in range(4)] for _ in range(4)]
    cfg_dict = {
        "L": 4,
        "seed": 0,
        "lattice": {"a": 2, "b": 2},
        "generators": [{"kind": "explicit_kernel", "kernel": kernel}],
    }
    cfg = write_config(tmp_path / "c.json", cfg_dict)
    assert main(["riesz-check", "--config", cfg, "--out", str(tmp_path / "out")]) == 4


def test_integer_beyond_the_float_range_in_a_window_exits_3(tmp_path):
    # json.load reads 1 followed by 400 zeros as an int, which complex() cannot convert
    window = {"kind": "explicit", "values": [["BIG", 0]] + [[0, 0]] * 3}
    text = json.dumps({
        "L": 4,
        "seed": 0,
        "lattice": {"a": 2, "b": 2},
        "generators": [
            {"kind": "rank_one", "left": {"kind": "gaussian"}, "right": {"kind": "gaussian"}}
        ],
        "scheme": {"windows": [{"g": window, "g_tilde": {"kind": "gaussian"}}]},
    })
    cfg = tmp_path / "c.json"
    cfg.write_text(text.replace('"BIG"', "1" + "0" * 400))
    out = tmp_path / "out"
    assert main(["frame-check", "--config", str(cfg), "--out", str(out)]) == 3
    assert not (out / "metrics.json").exists()


@pytest.mark.parametrize("value", [
    math.nan, pytest.param(math.inf, marks=pytest.mark.filterwarnings("ignore::RuntimeWarning"))])
@pytest.mark.parametrize("command", ["frame-check", "reconstruct", "channel-demo", "sweep"])
def test_non_finite_window_exits_4(tmp_path, command, value):
    # json.load reads the NaN and Infinity that json.dumps writes here
    window = {"kind": "explicit", "values": [[value, 0.0]] + [[0.0, 0.0]] * 3}
    cfg = write_config(tmp_path / "c.json", {
        "L": 4,
        "seed": 0,
        "lattice": {"a": 2, "b": 2},
        "generators": [
            {"kind": "rank_one", "left": {"kind": "gaussian"}, "right": {"kind": "gaussian"}}
        ],
        "scheme": {"windows": [{"g": window, "g_tilde": {"kind": "gaussian"}}]},
        "sweep": {"a": [2], "b": [2]},
    })
    out = tmp_path / "out"
    code = main([command, "--config", cfg, "--out", str(out)])
    if command == "sweep":
        assert code == 0
        assert (out / "sweep.csv").read_text().splitlines()[1].endswith(",NumericalError")
    else:
        assert code == 4
        assert not (out / "metrics.json").exists()
