"""Command-line front end: experiment dispatch and CSV/JSON emission.

Every randomized run requires an explicit seed (or uses seed 0); nothing is
clock-seeded, and floats are printed with 17 significant digits so output
files are byte-stable golden-file material.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from . import analysis, montecarlo
from .model import MODES, ConfigError, SystemConfig, db_to_linear

OUT_DIR_ENV = "COOPFB_OUT_DIR"


@dataclass(frozen=True)
class RunManifest:
    """What produced a set of output files; re-running an identical manifest
    reproduces them byte for byte (the timestamp is bookkeeping only)."""

    experiment: str
    config: dict
    output_paths: list
    config_hash: str
    timestamp: str


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_csv(path: Path, columns, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(v) for v in row])


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    if hasattr(value, "item"):  # numpy scalars
        return _jsonable(value.item())
    return value


def write_summary(path: Path, result: montecarlo.ExperimentResult) -> None:
    payload = {
        "experiment": result.experiment,
        "config": _jsonable(result.config),
        "aggregates": _jsonable(result.aggregates),
        "seed": result.seed,
        "resample_count": result.resample_count,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_manifest(path: Path, manifest: RunManifest) -> None:
    payload = {
        "experiment": manifest.experiment,
        "config": _jsonable(manifest.config),
        "output_paths": manifest.output_paths,
        "config_hash": manifest.config_hash,
        "timestamp": manifest.timestamp,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _config_hash(config: dict) -> str:
    canonical = json.dumps(_jsonable(config), sort_keys=True).encode("utf-8")
    return hashlib.sha256(canonical).hexdigest()


def parse_grid(text: str) -> list:
    """Grid syntax: a scalar, a comma list, or ``start..stop[..step]``."""
    text = text.strip()
    if ".." in text:
        parts = text.split("..")
        if len(parts) not in (2, 3):
            raise ConfigError(f"bad grid {text!r}; use start..stop[..step]")
        start, stop = float(parts[0]), float(parts[1])
        step = float(parts[2]) if len(parts) == 3 else 1.0
        if step <= 0:
            raise ConfigError("grid step must be positive")
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        return [start + i * step for i in range(count)]
    return [float(v) for v in text.split(",") if v.strip()]


def _int_grid(values) -> list:
    out = []
    for v in values:
        if abs(v - round(v)) > 1e-9:
            raise ConfigError(f"expected integers in grid, got {v}")
        out.append(int(round(v)))
    return out


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--m", type=int, default=None, help="transmit antennas / beams")
    p.add_argument("--n", type=int, default=None, help="receive antennas per user")
    p.add_argument("--k", type=int, default=None, help="number of users (even)")
    p.add_argument("--bcl", type=str, default=None, help="cooperation-link bits (scalar or grid)")
    p.add_argument("--rho-db", type=str, default=None, help="SNR grid in dB (scalar, list, or a..b[..step])")
    p.add_argument("--trials", type=int, default=None, help="Monte Carlo repetitions")
    p.add_argument("--seed", type=int, default=None, help="master seed (default 0, never wall clock)")
    p.add_argument("--codebook", choices=("haar", "dft"), default=None, help="global codebook mode")
    p.add_argument("--workers", type=int, default=1, help="parallel worker processes")
    p.add_argument("--out-dir", type=str, default=None, help=f"output directory (or ${OUT_DIR_ENV})")
    p.add_argument("--config", type=str, default=None, help="JSON config file; flags override its keys")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coopfb",
        description="Link-level simulator and closed-form analysis for cooperative limited feedback",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for fig in montecarlo.EXPERIMENTS:
        p = sub.add_parser(fig, help=f"run the {fig} experiment")
        _add_common(p)
        if fig == "fig7":
            p.add_argument("--k-grid", type=str, default=None, help="user-count grid, e.g. 50,100,200,400")
    p = sub.add_parser("sweep", help="mean sum-rate over an SNR grid for chosen modes")
    _add_common(p)
    p.add_argument("--mode", choices=MODES, action="append", default=None, help="mode(s) to simulate")
    p = sub.add_parser("analyze", help="closed-form mode advice without simulation")
    _add_common(p)
    p.add_argument("--k-grid", type=str, default=None, help="user-count grid")
    return parser


def _load_config_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return data


def _file_value(file_cfg: dict, *names):
    for name in names:
        if name in file_cfg:
            return file_cfg[name]
    return None


def _gather(args) -> dict:
    """Merge config file and flags; flags win."""
    file_cfg = _load_config_file(args.config) if args.config else {}
    merged = {
        "m": args.m if args.m is not None else _file_value(file_cfg, "m"),
        "n": args.n if args.n is not None else _file_value(file_cfg, "n"),
        "k": args.k if args.k is not None else _file_value(file_cfg, "k"),
        "trials": args.trials if args.trials is not None else _file_value(file_cfg, "trials"),
        "seed": args.seed if args.seed is not None else _file_value(file_cfg, "seed") or 0,
        "codebook_mode": args.codebook
        if args.codebook is not None
        else _file_value(file_cfg, "codebook_mode"),
    }
    bcl = args.bcl if args.bcl is not None else _file_value(file_cfg, "b_cl", "bcl")
    if bcl is not None:
        grid = _int_grid(parse_grid(str(bcl)))
        if len(grid) != 1 and args.command != "fig3":
            raise ConfigError(f"{args.command} takes a single --bcl value")
        merged["bcl"] = grid[0] if len(grid) == 1 else None
        merged["bcl_grid"] = grid
    rho = args.rho_db if args.rho_db is not None else _file_value(file_cfg, "rho_db")
    if rho is not None:
        merged["rho_db"] = parse_grid(str(rho)) if isinstance(rho, str) else [float(v) for v in np_listify(rho)]
        if not merged["rho_db"]:
            raise ConfigError("the SNR grid is empty")
    mode = _file_value(file_cfg, "mode")
    if mode is not None:
        merged["mode"] = mode
    return merged


def np_listify(value):
    return value if isinstance(value, (list, tuple)) else [value]


def _out_dir(args) -> Path:
    path = args.out_dir or os.environ.get(OUT_DIR_ENV) or "."
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _emit(out_dir: Path, result: montecarlo.ExperimentResult) -> list:
    csv_path = out_dir / f"{result.experiment}.csv"
    json_path = out_dir / f"{result.experiment}.json"
    manifest_path = out_dir / f"{result.experiment}_manifest.json"
    write_csv(csv_path, result.columns, result.rows)
    write_summary(json_path, result)
    manifest = RunManifest(
        experiment=result.experiment,
        config=result.config,
        output_paths=[str(csv_path), str(json_path)],
        config_hash=_config_hash(result.config),
        timestamp=time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
    )
    write_manifest(manifest_path, manifest)
    return [csv_path, json_path, manifest_path]


def _run_experiment_command(args) -> int:
    merged = _gather(args)
    overrides = {k: v for k, v in merged.items() if v is not None and k != "mode"}
    overrides.pop("bcl" if args.command == "fig3" else "bcl_grid", None)
    if args.command == "fig7":
        overrides.pop("k", None)
        if getattr(args, "k_grid", None):
            overrides["k_grid"] = _int_grid(parse_grid(args.k_grid))
        if merged.get("n") is not None or merged.get("bcl") is not None:
            n = merged.get("n")
            bcl = merged.get("bcl")
            if n is None or bcl is None:
                raise ConfigError("fig7 needs both --n and --bcl to pin a single configuration")
            overrides["configs"] = [(int(n), int(bcl))]
            overrides.pop("n", None)
            overrides.pop("bcl", None)
    if args.command == "fig9" and merged.get("n") is not None:
        overrides["n_grid"] = [int(merged["n"])]
        overrides.pop("n", None)
    result = montecarlo.run_experiment(args.command, overrides, workers=args.workers)
    paths = _emit(_out_dir(args), result)
    print(f"{result.experiment}: wrote {', '.join(str(p) for p in paths)}")
    return 0


def _given(merged: dict, key: str, default):
    """The merged value of ``key``, or ``default`` only when none was given
    (an explicit zero is kept and checked downstream)."""
    value = merged.get(key)
    return default if value is None else value


def _run_sweep(args) -> int:
    merged = _gather(args)
    modes = args.mode or np_listify(merged.get("mode") or "cooperative")
    for mode in modes:
        if mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    cfg = SystemConfig(
        m=_given(merged, "m", 4),
        n=_given(merged, "n", 2),
        k=_given(merged, "k", 16),
        bcl=_given(merged, "bcl", 8),
        trials=_given(merged, "trials", 1000),
        seed=_given(merged, "seed", 0),
        codebook_mode=_given(merged, "codebook_mode", "haar"),
    )
    rho_db = _given(merged, "rho_db", [10.0])
    result = montecarlo.run_sweep(cfg, modes, rho_db, workers=args.workers)
    paths = _emit(_out_dir(args), result)
    print(f"sweep: wrote {', '.join(str(p) for p in paths)}")
    return 0


def _run_analyze(args) -> int:
    merged = _gather(args)
    m = _given(merged, "m", 4)
    n = _given(merged, "n", 2)
    bcl = _given(merged, "bcl", 8)
    rho_db = _given(merged, "rho_db", [float(d) for d in range(-5, 26)])
    if getattr(args, "k_grid", None):
        k_grid = _int_grid(parse_grid(args.k_grid))
    else:
        k_grid = [_given(merged, "k", 200)]
    header = f"{'k':>6} {'rho_db':>8} {'rate_coop':>12} {'rate_conv':>12} {'delta':>10} decision"
    print(header)
    for k_users in k_grid:
        for db in rho_db:
            decision = analysis.mode_switch(k_users, m, n, db_to_linear(db), bcl)
            print(
                f"{k_users:>6} {db:>8.2f} {decision.rate_cooperative:>12.4f} "
                f"{decision.rate_conventional:>12.4f} {decision.delta_rate:>10.4f} {decision.mode}"
            )
    return 0


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in montecarlo.EXPERIMENTS:
            return _run_experiment_command(args)
        if args.command == "sweep":
            return _run_sweep(args)
        if args.command == "analyze":
            return _run_analyze(args)
        parser.error(f"unknown command {args.command!r}")
    except (ConfigError, analysis.InvalidRegime, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
