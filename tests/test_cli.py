import json
import math
from collections import Counter

import numpy as np
import pytest

import opsis
from opsis import cli, sampling, si_space
from opsis.cli import main
from opsis.hs_ops import inverse_fourier_wigner


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


@pytest.mark.parametrize("command, cfg, extra", [
    ("riesz-check", GAUSSIAN_RIESZ, {"tolerances": {"riesz": True}}),
    ("reconstruct", RECON_OK, {"tolerances": {"frame": True}}),
    ("reconstruct", RECON_OK, {"dual_perturbation": {"enabled": True, "scale": True}}),
])
def test_boolean_for_a_number_exits_3(tmp_path, command, cfg, extra):
    path = write_config(tmp_path / "c.json", dict(cfg, **extra))
    assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 3


@pytest.mark.parametrize("change", [
    {"lattice": {"generators": [[1.5, 0], [0, 2]]}},
    {"lattice": {"generators": [["1", 0], [0, 2]]}},
    {"lattice": {"generators": [[True, 0], [0, 2]]}},
    {"lattice": {"generators": [[1, 0, 5], [0, 2]]}},
    {"lattice": {"generators": [2, 2]}},
    {"generators": [{"kind": "rank_one", "left": {"kind": "delta", "at": True},
                     "right": {"kind": "gaussian"}}]},
])
def test_malformed_lattice_generator_or_delta_exits_3(tmp_path, change):
    cfg = write_config(tmp_path / "c.json", dict(GAUSSIAN_RIESZ, **change))
    assert main(["riesz-check", "--config", cfg, "--out", str(tmp_path / "out")]) == 3


def test_missing_config_file_exits_3(tmp_path):
    assert main(["riesz-check", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "out")]) == 3


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
@pytest.mark.parametrize("value", [-1, -1e-300, math.nan, math.inf, -math.inf])
def test_negative_or_non_finite_tolerance_exits_3(tmp_path, key, value):
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


@pytest.mark.parametrize("spec", [
    True,
    [1, 2],
    "enabled",
    {"enabled": "false"},
    {"enabled": "no"},
    {"enabled": 1},
    {"enabled": None},
    {"scale": 2.0},                          # no 'enabled'
    {"enabled": False, "scale": "large"},    # scale is checked when disabled too
])
def test_malformed_dual_perturbation_exits_3(tmp_path, spec):
    cfg = write_config(tmp_path / "c.json", dict(RECON_OK, dual_perturbation=spec))
    out = tmp_path / "out"
    assert main(["reconstruct", "--config", cfg, "--out", str(out)]) == 3
    assert not (out / "metrics.json").exists()


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
@pytest.mark.parametrize("tolerances", ["bad", [1e-3], {"riesz": "1e-3"}, {"frame": -1}])
def test_malformed_tolerances_exit_3_on_every_command(tmp_path, command, tolerances):
    cfg = write_config(tmp_path / "ok.json", ALL_COMMANDS_OK)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "ok")]) == 0
    cfg = write_config(tmp_path / "c.json", dict(ALL_COMMANDS_OK, tolerances=tolerances))
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 3
    assert not (out / "metrics.json").exists()


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
    import subprocess

    exe = shutil.which("opsis")
    if exe is None:
        pytest.skip("console script not on PATH")
    cfg = write_config(tmp_path / "c.json", GAUSSIAN_RIESZ)
    out = tmp_path / "out"
    proc = subprocess.run([exe, "riesz-check", "--config", cfg, "--out", str(out)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert (out / "metrics.json").exists()


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
