"""Batch experiment runner.

    opsis riesz-check|frame-check|reconstruct|channel-demo|sweep
          --config <path> --out <dir> [--seed N]

or python -m opsis.cli with the same arguments.  Reads a JSON config
(schema in the README), writes a metrics.json plus CSV tables into the
output directory, and exits with

    0  success (a negative mathematical verdict is still a success),
    2  the pipeline needs a Riesz system and a frame; metrics.json says which failed,
    3  invalid configuration, one too large to fit in memory, or an output
       directory that cannot be created or written,
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
from .hs_ops import OperatorStack, identity
from .phase_space import LatticeError, build_lattice, dual_transversal
from .sampling import (
    NotAFrameError,
    ReconstructionKit,
    channel_matrix,
    diag_channel_samples,
    interpolation_deviation,
    reconstruct_from_spreading,
    sublattice_inflate,
)
from .si_space import GeneratorSystem, NotRieszError, riesz_check, synthesize, synthesize_spreading


class NumericalError(RuntimeError):
    """A non-finite value showed up where a finite number was required."""


def _ensure_finite(name, *values):
    for v in values:
        if not np.all(np.isfinite(v)):
            raise NumericalError(f"non-finite values in {name}")


def _write_csv(path: Path, header: list[str], rows) -> None:
    """One line per row; floats written with 17 significant digits, so they read back exactly."""
    lines = [header] + [[f"{c:.17g}" if isinstance(c, float) else str(c) for c in row] for row in rows]
    path.write_text("".join(",".join(line) + "\n" for line in lines))


def _need(cfg: ExperimentConfig, attr, what):
    val = getattr(cfg, attr)
    if val is None:
        raise ConfigError(f"this command needs '{what}' in the config")
    return val


def _system(cfg: ExperimentConfig) -> GeneratorSystem:
    what = "lattice + generators"
    return GeneratorSystem(_need(cfg, "lattice", what), _need(cfg, "generator_kernels", what))


def _tolerance(cfg: ExperimentConfig, key: str) -> float | None:
    return cfg.options["tolerances"][key]


def _dual_perturbation(cfg: ExperimentConfig, K: int, N: int, M: int):
    scale = cfg.options["dual_perturbation"]
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


def _rel_error(kit: ReconstructionKit, FT) -> float:
    """Relative HS error ||T - R|| / ||T|| of the reconstruction R of T from its samples through the kit.

    Read off the spreading transform FT of T and that of R, by Parseval
    (sum_z |F(S)(z)|^2 = L ||S||^2), so neither operator is formed, and
    R's sample fibers are read off the fold, so the samples are not either.
    """
    FR = reconstruct_from_spreading(FT, kit)
    rel = float(np.linalg.norm(FT - FR) / np.linalg.norm(FT))
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
    return {"alpha_A": fb.alpha, "beta_A": fb.beta, "M": len(kit.scheme),
            "N": kit.system.num_generators, "diagnostic": fb.diagnostic}


def run_riesz_check(cfg: ExperimentConfig, outdir: Path) -> tuple[int, dict]:
    system = _system(cfg)
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
    system = _system(cfg)
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
    system = _system(cfg)
    scheme = _need(cfg, "scheme", "scheme")
    FT = synthesize_spreading(system, cfg.coefficients)
    if cfg.sublattice is not None:
        system = sublattice_inflate(system, cfg.sublattice)
    N, M = system.num_generators, len(scheme)
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
    metrics["reconstruction"] = {"rel_hs_error": _rel_error(kit, FT)}
    if M == N:
        metrics["reconstruction"]["interp_max_dev"] = interpolation_deviation(kit)
    return 0, metrics


def run_channel_demo(cfg: ExperimentConfig, outdir: Path) -> tuple[int, dict]:
    lattice = _need(cfg, "lattice", "lattice")
    scheme = _need(cfg, "scheme", "scheme")
    if scheme.windows is None:
        raise ConfigError("channel-demo needs a window-pair scheme")
    g, gt = scheme.windows[0]

    channel_kind = cfg.options["channel"]
    if channel_kind == "identity":
        H = identity(cfg.L)
    else:
        system = _system(cfg)
        H = synthesize(system, cfg.coefficients)

    mat = channel_matrix(H, g, gt, lattice)
    samples = diag_channel_samples(H, scheme, lattice)[0]
    diag_dev = float(np.abs(np.diagonal(mat) - samples).max())
    _ensure_finite("channel matrix", mat)

    pts = lattice.points
    rows = [(*lam, *mu, v.real, v.imag) for lam, row in zip(pts, mat.tolist()) for mu, v in zip(pts, row)]
    _write_csv(outdir / "channel_matrix.csv", ["lam_x", "lam_w", "mu_x", "mu_w", "re", "im"], rows)
    rows = [(*lam, s.real, s.imag) for lam, s in zip(pts, samples.tolist())]
    _write_csv(outdir / "samples.csv", ["lam_x", "lam_w", "re", "im"], rows)
    metrics = {
        "channel": {"kind": channel_kind, "diag_max_dev": diag_dev, "size": len(pts)},
        "config": {"L": cfg.L, "lattice_size": lattice.size},
        "tables": {"matrix": "channel_matrix.csv", "samples": "samples.csv"},
    }
    return 0, metrics


def run_sweep(cfg: ExperimentConfig, outdir: Path) -> tuple[int, dict]:
    sweep = cfg.options["sweep"]
    if sweep is None:
        raise ConfigError("sweep needs 'sweep': {'a': [...], 'b': [...]}")
    # one record for every row: each generator is transformed once
    generators = OperatorStack(_need(cfg, "generator_kernels", "generators"), what="generator")
    scheme = _need(cfg, "scheme", "scheme")
    a_list, b_list = sweep["a"], sweep["b"]

    header = ["L", "a", "b", "N", "M", "riesz_m", "riesz_M",
              "alpha_A", "beta_A", "rel_err", "status"]
    rows = []
    for row_index, (a, b) in enumerate((a, b) for a in a_list for b in b_list):
        cells: list = [cfg.L, a, b, len(generators), len(scheme)]
        try:
            kit = _kit(cfg, GeneratorSystem(build_lattice((a, b), cfg.L), generators), scheme)
            cells += [kit.riesz.lower, kit.riesz.upper]
            frame = _frame_metrics(kit)
            cells += [frame["alpha_A"], frame["beta_A"]]
            error = _gate(kit)
            if error is not None:
                rows.append(cells + ["", error["kind"]])
                continue
            shape = (len(generators), kit.system.lattice.size)
            FT = synthesize_spreading(kit.system, PortableRng(cfg.coef_seed + row_index).complex_normal(shape))
            rows.append(cells + [_rel_error(kit, FT), "ok"])
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
# the commands that read the coefficient stream, and when (parse_config's coefficients)
_COEFFICIENTS = {"reconstruct": "always", "channel-demo": "channel"}
# the one command that reads no scheme (parse_config's build_scheme)
_SCHEMELESS = "riesz-check"


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
        cfg = parse_config(raw, seed_override=args.seed, coefficients=_COEFFICIENTS.get(args.command),
                           build_scheme=args.command != _SCHEMELESS)
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        code, metrics = _COMMANDS[args.command](cfg, outdir)
        metrics["command"] = args.command
        metrics["seed"] = cfg.seed
        (outdir / "metrics.json").write_text(json.dumps(metrics, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        # the config is read by load_config, so this is the output directory or a file in it
        print(f"opsis: cannot write output: {exc.strerror}: {exc.filename}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(f"opsis: invalid configuration: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"opsis: invalid configuration: out of memory ({exc or 'no detail'})", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"opsis: numerical failure: {exc}", file=sys.stderr)
        return 4
    elapsed = time.perf_counter() - started
    print(f"opsis {args.command}: done in {elapsed:.3f}s -> {outdir}", file=sys.stderr)
    return code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
