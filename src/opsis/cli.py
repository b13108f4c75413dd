"""Batch experiment runner.

    opsis riesz-check|frame-check|reconstruct|channel-demo|sweep
          --config <path> --out <dir> [--seed N]

Reads a JSON config (schema in the README), writes a metrics.json plus CSV
tables into the output directory, and exits with

    0  success (a negative mathematical verdict is still a success),
    2  the requested pipeline needs a frame / Riesz system and got none,
    3  invalid configuration,
    4  internal numerical failure (non-finite values detected).

Identical config and seed produce byte-identical output files; wall time is
reported on stderr only.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig, PortableRng, load_config, parse_config
from .phase_space import LatticeError, build_lattice, dual_transversal
from .sampling import (
    NotAFrameError,
    cross_seq,
    channel_matrix,
    diag_channel_samples,
    avg_samples,
    frame_bounds,
    interpolation_deviation,
    reconstruct,
    reconstruction_kit,
    sublattice_inflate,
    transfer_matrix,
)
from .si_space import GeneratorSystem, NotRieszError, gram_fibers, riesz_check, synthesize
from .hs_ops import hs_norm, identity


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


def _write_metrics(outdir: Path, metrics: dict) -> None:
    (outdir / "metrics.json").write_text(
        json.dumps(metrics, indent=2, sort_keys=True) + "\n"
    )


def _need(cfg: ExperimentConfig, attr, what):
    val = getattr(cfg, attr)
    if val is None:
        raise ConfigError(f"this command needs '{what}' in the config")
    return val


def _coefficients(cfg: ExperimentConfig, system: GeneratorSystem) -> np.ndarray:
    rng = PortableRng(cfg.coef_seed)
    return rng.complex_normal((system.num_generators, system.lattice.size))


def _tolerance(cfg: ExperimentConfig, key: str, default: float | None = None):
    tols = cfg.options.get("tolerances", {})
    if not isinstance(tols, dict):
        raise ConfigError("'tolerances' must be an object")
    val = tols.get(key, default)
    if val is not None and (isinstance(val, bool) or not isinstance(val, (int, float))):
        raise ConfigError(f"'tolerances.{key}' must be a number")
    return val


def _dual_perturbation(cfg: ExperimentConfig, K: int, N: int, M: int):
    spec = cfg.options.get("dual_perturbation")
    if not spec:
        return None
    if not (isinstance(spec, dict) and spec.get("enabled")):
        return None
    scale = spec.get("scale", 1.0)
    if isinstance(scale, bool) or not isinstance(scale, (int, float)):
        raise ConfigError("'dual_perturbation.scale' must be a number")
    return scale * PortableRng(cfg.dual_seed).complex_normal((K, N, M))


def run_riesz_check(cfg: ExperimentConfig, outdir: Path) -> tuple[int, dict]:
    system = _need(cfg, "system", "lattice + generators")
    fibers = gram_fibers(system)
    _ensure_finite("riesz fibers", fibers)
    report = riesz_check(system, tol=_tolerance(cfg, "riesz"))
    eigs = np.linalg.eigvalsh(fibers)
    trans = dual_transversal(system.lattice)
    rows = [
        (xi[0], xi[1], i, float(eigs[k, i]))
        for k, xi in enumerate(trans)
        for i in range(eigs.shape[1])
    ]
    _write_csv(outdir / "riesz_fibers.csv", ["xi_x", "xi_w", "index", "eigenvalue"], rows)
    metrics = {
        "riesz": {"m": report.lower, "M": report.upper, "is_riesz": report.is_riesz,
                  "route": report.route, "diagnostic": report.diagnostic},
        "config": {"L": cfg.L, "N": system.num_generators, "lattice_size": system.lattice.size},
        "tables": {"fibers": "riesz_fibers.csv"},
    }
    return 0, metrics


def run_frame_check(cfg: ExperimentConfig, outdir: Path) -> tuple[int, dict]:
    system = _need(cfg, "system", "lattice + generators")
    scheme = _need(cfg, "scheme", "scheme")
    A = cross_seq(system, scheme)
    tm = transfer_matrix(A, system.lattice)
    _ensure_finite("transfer fibers", tm.fibers)
    fb = frame_bounds(tm)
    sv = np.linalg.svd(tm.fibers, compute_uv=False)
    trans = dual_transversal(system.lattice)
    rows = [
        (xi[0], xi[1], i, float(sv[k, i]))
        for k, xi in enumerate(trans)
        for i in range(sv.shape[1])
    ]
    _write_csv(outdir / "frame_fibers.csv", ["xi_x", "xi_w", "index", "singular_value"], rows)
    metrics = {
        "frame": {"alpha_A": fb.alpha, "beta_A": fb.beta,
                  "M": scheme.num_channels, "N": system.num_generators,
                  "diagnostic": fb.diagnostic},
        "config": {"L": cfg.L, "lattice_size": system.lattice.size},
        "tables": {"fibers": "frame_fibers.csv"},
    }
    return 0, metrics


def run_reconstruct(cfg: ExperimentConfig, outdir: Path) -> tuple[int, dict]:
    system = _need(cfg, "system", "lattice + generators")
    scheme = _need(cfg, "scheme", "scheme")
    coefs = _coefficients(cfg, system)
    T = synthesize(system, coefs)

    work_system = system
    if cfg.sublattice is not None:
        work_system = sublattice_inflate(system, cfg.sublattice)

    A = cross_seq(work_system, scheme)
    tm = transfer_matrix(A, work_system.lattice)
    _ensure_finite("transfer fibers", tm.fibers, gram_fibers(work_system))
    report = riesz_check(work_system, tol=_tolerance(cfg, "riesz"))
    fb = frame_bounds(tm)
    metrics = {
        "riesz": {"m": report.lower, "M": report.upper, "is_riesz": report.is_riesz,
                  "diagnostic": report.diagnostic},
        "frame": {"alpha_A": fb.alpha, "beta_A": fb.beta,
                  "M": scheme.num_channels, "N": work_system.num_generators,
                  "diagnostic": fb.diagnostic},
        "config": {"L": cfg.L, "lattice_size": work_system.lattice.size,
                   "sublattice": cfg.sublattice is not None},
    }
    frame_tol = _tolerance(cfg, "frame", 1e-10 * fb.beta)
    if not report.is_riesz:
        metrics["error"] = {"kind": "not_riesz", "detail": report.diagnostic or "zero lower bound"}
        return 2, metrics
    if not fb.alpha > frame_tol:
        metrics["error"] = {"kind": "not_a_frame",
                            "detail": fb.diagnostic or f"alpha_A = {fb.alpha:.3e}"}
        return 2, metrics

    K = tm.fibers.shape[0]
    C = _dual_perturbation(cfg, K, work_system.num_generators, scheme.num_channels)
    kit = reconstruction_kit(work_system, scheme, C=C)
    if scheme.windows is not None:
        samples = diag_channel_samples(T, scheme, work_system.lattice)
    else:
        samples = avg_samples(T, scheme, work_system.lattice)
    T_rec = reconstruct(samples, kit)
    rel_err = hs_norm(T - T_rec) / hs_norm(T)
    _ensure_finite("reconstruction", rel_err)
    metrics["reconstruction"] = {"rel_hs_error": rel_err}
    if scheme.num_channels == work_system.num_generators:
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
        H = synthesize(system, _coefficients(cfg, system))
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
    kernels = cfg.generator_kernels
    if kernels is None:
        raise ConfigError("sweep needs 'generators'")
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
            lattice = build_lattice((a, b), cfg.L)
            system = GeneratorSystem(lattice, kernels)
            _ensure_finite("sweep fibers", gram_fibers(system))
            report = riesz_check(system)
            cells += [report.lower, report.upper]
            tm = transfer_matrix(cross_seq(system, scheme), lattice)
            _ensure_finite("sweep transfer", tm.fibers)
            fb = frame_bounds(tm)
            cells += [fb.alpha, fb.beta]
            if not report.is_riesz:
                rows.append(cells + ["", "not_riesz"])
                continue
            if not fb.alpha > 1e-10 * fb.beta:
                rows.append(cells + ["", "not_a_frame"])
                continue
            kit = reconstruction_kit(system, scheme)
            rng = PortableRng(cfg.coef_seed + row_index)
            coefs = rng.complex_normal((system.num_generators, lattice.size))
            T = synthesize(system, coefs)
            if scheme.windows is not None:
                samples = diag_channel_samples(T, scheme, lattice)
            else:
                samples = avg_samples(T, scheme, lattice)
            rel = hs_norm(T - reconstruct(samples, kit)) / hs_norm(T)
            _ensure_finite("sweep row", rel)
            rows.append(cells + [rel, "ok"])
        except (LatticeError, NotRieszError, NotAFrameError, NumericalError) as exc:
            while len(cells) < len(header) - 2:
                cells.append("")
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


def main(argv=None) -> int:
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
    args = parser.parse_args(argv)

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
    except (NotAFrameError, NotRieszError) as exc:
        print(f"opsis: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"opsis: numerical failure: {exc}", file=sys.stderr)
        return 4
    metrics["command"] = args.command
    metrics["seed"] = cfg.seed
    _write_metrics(outdir, metrics)
    elapsed = time.perf_counter() - started
    print(f"opsis {args.command}: done in {elapsed:.3f}s -> {outdir}", file=sys.stderr)
    return code


def entry() -> None:
    raise SystemExit(main())
