"""Batch experiment runner.

    opsis riesz-check|frame-check|reconstruct|channel-demo|sweep
          --config <path> --out <dir> [--seed N]

Reads a JSON config (schema in the README), writes a metrics.json plus CSV
tables into the output directory, and exits with

    0  success (a negative mathematical verdict is still a success),
    2  the pipeline needs a Riesz system and a frame; metrics.json says which failed,
    3  invalid configuration,
    4  internal numerical failure (non-finite values detected).

Identical config and seed produce byte-identical output files; wall time is
reported on stderr only.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig, PortableRng, load_config, parse_config
from .hs_ops import hs_norm, identity
from .phase_space import LatticeError, build_lattice, dual_transversal
from .sampling import (
    NotAFrameError,
    ReconstructionKit,
    avg_samples,
    channel_matrix,
    diag_channel_samples,
    interpolation_deviation,
    reconstruct,
    sublattice_inflate,
)
from .si_space import GeneratorSystem, NotRieszError, riesz_check, synthesize


class NumericalError(RuntimeError):
    """A non-finite value showed up where a finite number was required."""


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _ensure_finite(name, *values):
    for v in values:
        if not np.all(np.isfinite(v)):
            raise NumericalError(f"non-finite values in {name}")


def _write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, float):
                cells.append(_fmt(cell))
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")


def _need(cfg: ExperimentConfig, attr, what):
    val = getattr(cfg, attr)
    if val is None:
        raise ConfigError(f"this command needs '{what}' in the config")
    return val


def _coefficients(seed: int, system: GeneratorSystem) -> np.ndarray:
    return PortableRng(seed).complex_normal((system.num_generators, system.lattice.size))


def _tolerance(cfg: ExperimentConfig, key: str) -> float | None:
    return cfg.options.get("tolerances", {}).get(key)


def _dual_perturbation(cfg: ExperimentConfig, K: int, N: int, M: int):
    scale = cfg.options.get("dual_perturbation")
    return None if scale is None else scale * PortableRng(cfg.dual_seed).complex_normal((K, N, M))


def _kit(cfg: ExperimentConfig, system: GeneratorSystem, scheme, C=None) -> ReconstructionKit:
    """The pipeline at the configured tolerances, after a finiteness check of the Riesz fibers."""
    _ensure_finite("riesz fibers", system.riesz_fibers)
    return ReconstructionKit(system, scheme, C=C, tol=_tolerance(cfg, "frame"),
                             riesz_tol=_tolerance(cfg, "riesz"))


def _gate(kit: ReconstructionKit) -> dict | None:
    """The metrics error entry of the first gate the kit fails, or None."""
    try:
        kit.dual_fibers
    except NotRieszError:
        return {"kind": "not_riesz", "detail": kit.riesz.diagnostic or "zero lower bound"}
    except NotAFrameError as exc:
        return {"kind": "not_a_frame", "detail": str(exc)}
    return None


def _rel_error(kit: ReconstructionKit, T) -> float:
    """Relative HS error of reconstructing T from its samples through the kit."""
    samples = avg_samples(T, kit.scheme, kit.system.lattice)
    rel = hs_norm(T - reconstruct(samples, kit)) / hs_norm(T)
    _ensure_finite("reconstruction", rel)
    return rel


def _fiber_rows(lattice, values) -> list[tuple]:
    """CSV rows (xi_x, xi_w, index, value), one per value of every fiber."""
    return [(xi[0], xi[1], i, float(v))
            for xi, row in zip(dual_transversal(lattice), values)
            for i, v in enumerate(row)]


def _riesz_metrics(report) -> dict:
    return {"m": report.lower, "M": report.upper, "is_riesz": report.is_riesz,
            "diagnostic": report.diagnostic}


def _frame_metrics(kit: ReconstructionKit) -> dict:
    """The frame bounds entry, after a finiteness check of the transfer fibers."""
    _ensure_finite("transfer fibers", kit.transfer.fibers)
    fb = kit.transfer.bounds
    return {"alpha_A": fb.alpha, "beta_A": fb.beta, "M": kit.scheme.num_channels,
            "N": kit.system.num_generators, "diagnostic": fb.diagnostic}


def run_riesz_check(cfg: ExperimentConfig, outdir: Path) -> tuple[int, dict]:
    system = _need(cfg, "system", "lattice + generators")
    _ensure_finite("riesz fibers", system.riesz_fibers)
    report = riesz_check(system, tol=_tolerance(cfg, "riesz"))
    _write_csv(outdir / "riesz_fibers.csv", ["xi_x", "xi_w", "index", "eigenvalue"],
               _fiber_rows(system.lattice, system.riesz_spectrum))
    metrics = {
        "riesz": dict(_riesz_metrics(report), route=report.route),
        "config": {"L": cfg.L, "N": system.num_generators, "lattice_size": system.lattice.size},
        "tables": {"fibers": "riesz_fibers.csv"},
    }
    return 0, metrics


def run_frame_check(cfg: ExperimentConfig, outdir: Path) -> tuple[int, dict]:
    system = _need(cfg, "system", "lattice + generators")
    kit = ReconstructionKit(system, _need(cfg, "scheme", "scheme"))
    frame = _frame_metrics(kit)
    _write_csv(outdir / "frame_fibers.csv", ["xi_x", "xi_w", "index", "singular_value"],
               _fiber_rows(system.lattice, kit.transfer.singular_values))
    metrics = {
        "frame": frame,
        "config": {"L": cfg.L, "lattice_size": system.lattice.size},
        "tables": {"fibers": "frame_fibers.csv"},
    }
    return 0, metrics


def run_reconstruct(cfg: ExperimentConfig, outdir: Path) -> tuple[int, dict]:
    system = _need(cfg, "system", "lattice + generators")
    scheme = _need(cfg, "scheme", "scheme")
    T = synthesize(system, _coefficients(cfg.coef_seed, system))
    if cfg.sublattice is not None:
        system = sublattice_inflate(system, cfg.sublattice)
    N, M = system.num_generators, scheme.num_channels
    kit = _kit(cfg, system, scheme, _dual_perturbation(cfg, system.lattice.size, N, M))
    metrics = {
        "riesz": _riesz_metrics(kit.riesz),
        "frame": _frame_metrics(kit),
        "config": {"L": cfg.L, "lattice_size": system.lattice.size,
                   "sublattice": cfg.sublattice is not None},
    }
    error = _gate(kit)
    if error is not None:
        metrics["error"] = error
        return 2, metrics
    metrics["reconstruction"] = {"rel_hs_error": _rel_error(kit, T)}
    if M == N:
        metrics["reconstruction"]["interp_max_dev"] = interpolation_deviation(kit)
    return 0, metrics


def run_channel_demo(cfg: ExperimentConfig, outdir: Path) -> tuple[int, dict]:
    lattice = _need(cfg, "lattice", "lattice")
    scheme = _need(cfg, "scheme", "scheme")
    if scheme.windows is None:
        raise ConfigError("channel-demo needs a window-pair scheme")
    g, gt = scheme.windows[0]

    channel_spec = cfg.options.get("channel", {"kind": "synthesized"})
    if not isinstance(channel_spec, dict):
        raise ConfigError("'channel' must be an object with a 'kind'")
    channel_kind = channel_spec.get("kind")
    if channel_kind == "identity":
        H = identity(cfg.L)
    elif channel_kind in (None, "synthesized"):
        system = _need(cfg, "system", "lattice + generators")
        H = synthesize(system, _coefficients(cfg.coef_seed, system))
    else:
        raise ConfigError(f"unknown channel kind {channel_kind!r}")

    mat = channel_matrix(H, g, gt, lattice)
    samples = diag_channel_samples(H, scheme, lattice)[0]
    diag_dev = float(np.abs(np.diagonal(mat) - samples).max())
    _ensure_finite("channel matrix", mat)

    pts = lattice.points
    rows = [
        (pts[i][0], pts[i][1], pts[j][0], pts[j][1],
         float(mat[i, j].real), float(mat[i, j].imag))
        for i in range(len(pts))
        for j in range(len(pts))
    ]
    _write_csv(outdir / "channel_matrix.csv",
               ["lam_x", "lam_w", "mu_x", "mu_w", "re", "im"], rows)
    srows = [
        (p[0], p[1], float(s.real), float(s.imag)) for p, s in zip(pts, samples)
    ]
    _write_csv(outdir / "samples.csv", ["lam_x", "lam_w", "re", "im"], srows)
    metrics = {
        "channel": {"kind": channel_kind or "synthesized",
                    "diag_max_dev": diag_dev, "size": len(pts)},
        "config": {"L": cfg.L, "lattice_size": lattice.size},
        "tables": {"matrix": "channel_matrix.csv", "samples": "samples.csv"},
    }
    return 0, metrics


def run_sweep(cfg: ExperimentConfig, outdir: Path) -> tuple[int, dict]:
    sweep = cfg.options.get("sweep")
    if not isinstance(sweep, dict) or "a" not in sweep or "b" not in sweep:
        raise ConfigError("sweep needs 'sweep': {'a': [...], 'b': [...]}")
    kernels = _need(cfg, "generator_kernels", "generators")
    scheme = _need(cfg, "scheme", "scheme")
    a_list, b_list = sweep["a"], sweep["b"]
    for label, vals in (("a", a_list), ("b", b_list)):
        if not (isinstance(vals, list) and vals
                and all(isinstance(v, int) and not isinstance(v, bool) for v in vals)):
            raise ConfigError(f"'sweep.{label}' must be a non-empty list of integers")

    header = ["L", "a", "b", "N", "M", "riesz_m", "riesz_M",
              "alpha_A", "beta_A", "rel_err", "status"]
    rows = []
    for row_index, (a, b) in enumerate((a, b) for a in a_list for b in b_list):
        cells: list = [cfg.L, a, b, len(kernels), scheme.num_channels]
        try:
            kit = _kit(cfg, GeneratorSystem(build_lattice((a, b), cfg.L), kernels), scheme)
            cells += [kit.riesz.lower, kit.riesz.upper]
            frame = _frame_metrics(kit)
            cells += [frame["alpha_A"], frame["beta_A"]]
            error = _gate(kit)
            if error is not None:
                rows.append(cells + ["", error["kind"]])
                continue
            T = synthesize(kit.system, _coefficients(cfg.coef_seed + row_index, kit.system))
            rows.append(cells + [_rel_error(kit, T), "ok"])
        except (LatticeError, NumericalError) as exc:
            cells += [""] * (len(header) - 2 - len(cells))
            rows.append(cells + ["", type(exc).__name__])
    _write_csv(outdir / "sweep.csv", header, rows)
    metrics = {
        "sweep": {"rows": len(rows)},
        "config": {"L": cfg.L},
        "tables": {"sweep": "sweep.csv"},
    }
    return 0, metrics


_COMMANDS = {
    "riesz-check": run_riesz_check,
    "frame-check": run_frame_check,
    "reconstruct": run_reconstruct,
    "channel-demo": run_channel_demo,
    "sweep": run_sweep,
}


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opsis",
        description="Operator sampling experiments on the finite phase space Z_L x Z_L.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON experiment config")
        p.add_argument("--out", required=True, help="output directory (created if missing)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    started = time.perf_counter()
    try:
        raw = load_config(args.config)
        cfg = parse_config(raw, seed_override=args.seed)
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        code, metrics = _COMMANDS[args.command](cfg, outdir)
    except ConfigError as exc:
        print(f"opsis: invalid configuration: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"opsis: numerical failure: {exc}", file=sys.stderr)
        return 4
    metrics["command"] = args.command
    metrics["seed"] = cfg.seed
    (outdir / "metrics.json").write_text(json.dumps(metrics, indent=2, sort_keys=True) + "\n")
    elapsed = time.perf_counter() - started
    print(f"opsis {args.command}: done in {elapsed:.3f}s -> {outdir}", file=sys.stderr)
    return code


def entry() -> None:
    raise SystemExit(main())
