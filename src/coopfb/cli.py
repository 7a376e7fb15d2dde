"""Command-line front end: flags and config files resolved against each
command's spec, and CSV/JSON emission.

argparse checks no value: a number, from a flag's text or a config file, is
read by :func:`_value`, and a name (codebook, mode) is checked by the library.
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
from pathlib import Path

from . import montecarlo
from .model import CODEBOOK_MODES, MODES, ConfigError

OUT_DIR_ENV = "COOPFB_OUT_DIR"
# The most points a start..stop..step grid may have, checked before the
# list is built; the README's grids have at most 31.
MAX_GRID_POINTS = 10_000


def _format_cell(value) -> str:
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
        "config": result.config,
        "aggregates": result.aggregates,
        "seed": result.seed,
        "resample_count": result.resample_count,
    }
    _write_json(path, payload)


def write_manifest(path: Path, manifest: dict) -> None:
    """What produced a set of output files; re-running an identical manifest
    reproduces them byte for byte (the timestamp is bookkeeping only)."""
    _write_json(path, manifest)


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _config_hash(config: dict) -> str:
    canonical = json.dumps(_jsonable(config), sort_keys=True).encode("utf-8")
    return hashlib.sha256(canonical).hexdigest()


def parse_grid(text: str, name: str = "a grid") -> list:
    """Grid syntax: a scalar, a comma list, or ``start..stop[..step]``, of
    finite numbers; ``name`` says whose grid it is in the error."""
    text = text.strip()
    ranged = ".." in text
    parts = text.split("..") if ranged else [v for v in text.split(",") if v.strip()]
    if ranged and len(parts) not in (2, 3):
        raise ConfigError(f"bad grid {text!r}; use start..stop[..step]")
    try:  # integer text exactly, so a seed past 2**53 keeps its digits
        numbers = [int(v) if v.strip().lstrip("+-").isdigit() and int(v) != float(v) else float(v) for v in parts]
    except ValueError:  # text that is no number, refused below by name
        numbers = [math.nan]
    values = _finite(numbers, name, text)
    if not ranged:
        return values
    start, stop, step = values + [1] * (3 - len(values))  # an int step keeps int ends exact
    if step <= 0:
        raise ConfigError("grid step must be positive")
    span = (stop - start) / step + 1e-9
    if not span < MAX_GRID_POINTS:  # an infinite span fails too
        raise ConfigError(f"{name} {text!r} has more than {MAX_GRID_POINTS} points")
    return [start + i * step for i in range(int(math.floor(span)) + 1)]


def _finite(values: list, name: str, given) -> list:
    # Compares ints exactly, so NaN, infinities and ints beyond the float
    # range all fail.
    if not all(abs(v) <= sys.float_info.max for v in values):
        raise ConfigError(f"{name} takes finite numbers, got {given!r}")
    return values


# Every flag a command may take, by argparse dest: the parameter it sets
# unless the command's spec remaps it, and its argparse options.
FLAGS = {
    "m": ("m", dict(help="transmit antennas / beams")),
    "n": ("n", dict(help="receive antennas per user")),
    "k": ("k", dict(help="number of users (even)")),
    "k_grid": ("k_grid", dict(help="user-count grid, e.g. 50,100,200,400")),
    "bcl": ("bcl", dict(help="cooperation-link bits")),
    "rho_db": ("rho_db", dict(help="SNR grid in dB (scalar, list, or a..b[..step])")),
    "trials": ("trials", dict(help="Monte Carlo repetitions")),
    "seed": ("seed", dict(help="master seed (default 0, never wall clock)")),
    "codebook": ("codebook_mode", dict(help=f"global codebook mode: {' or '.join(CODEBOOK_MODES)}")),
    "mode": ("modes", dict(action="append", help=f"mode(s) to simulate: {', '.join(MODES)}")),
}

# Config-file keys and the flag each stands for.
CONFIG_KEYS = {key: key for key in ("m", "n", "k", "bcl", "rho_db", "trials", "seed", "mode")} | {
    "b_cl": "bcl",
    "codebook_mode": "codebook",
}


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _routes(spec: montecarlo.Spec) -> dict:
    """``flag -> (parameter, flags that set it together)`` for every flag
    the command takes, in :data:`FLAGS` order."""
    routes = {dest: (param, (dest,)) for dest, (param, _) in FLAGS.items() if param in spec.params}
    for names, param in spec.remaps.items():
        group = names if isinstance(names, tuple) else (names,)
        routes.update((dest, (param, group)) for dest in group)
    return {dest: routes[dest] for dest in FLAGS if dest in routes}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coopfb",
        description="Link-level simulator and closed-form analysis for cooperative limited feedback",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, spec in montecarlo.SPECS.items():
        # No abbreviations: fig7's --k would otherwise be read as --k-grid.
        p = sub.add_parser(command, help=spec.runner.__doc__.splitlines()[0].rstrip("."), allow_abbrev=False)
        for dest in _routes(spec):
            p.add_argument(_flag(dest), dest=dest, **FLAGS[dest][1])
        if spec.writes:
            p.add_argument("--workers", default=1, help="parallel worker processes")
            p.add_argument("--out-dir", type=str, default=None, help=f"output directory (or ${OUT_DIR_ENV})")
            p.add_argument("--config", type=str, default=None, help="JSON config file; flags override its keys")
    return parser


def _load_config_file(path: str, routes: dict) -> dict:
    """The file's keys as flags; a key that stands for no flag of the
    command, two keys for one flag (a repeated key among them) and a null
    value are refused."""
    objects = []  # each object's key-value pairs as read, repeats kept; the outermost ends last
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh, object_pairs_hook=lambda pairs: objects.append(pairs) or dict(pairs))
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    flags = {}
    for key, value in objects[-1]:
        dest = CONFIG_KEYS.get(key)
        if dest not in routes:
            raise ConfigError(f"config file {path}: this command takes no key {key!r}")
        if dest in flags:
            raise ConfigError(f"config file {path}: two keys set {_flag(dest)}")
        if value is None:
            raise ConfigError(f"config file {path}: {key!r} is null; give a value or leave the key out")
        flags[dest] = value
    return flags


def _numbers(dest: str, item) -> list:
    """The numbers of one flag text (a grid) or one config-file value; NaN
    and infinities are refused."""
    if isinstance(item, str):
        return parse_grid(item, _flag(dest))
    if isinstance(item, (int, float)) and not isinstance(item, bool):
        return _finite([item], _flag(dest), item)
    raise ConfigError(f"expected a number or a grid, got {item!r}")


def _value(command: str, dest: str, value, default):
    """A flag's text or a config-file value, in the shape and element type
    of the parameter's ``default``: a list for a grid, else one value."""
    grid = isinstance(default, list)
    kind = type(default[0] if grid else default)
    items = value if isinstance(value, list) else [value]
    if kind is not str:
        items = [v for item in items for v in _numbers(dest, item)]
        fractional = [v for v in items if kind is int and int(v) != v]
        if fractional:
            raise ConfigError(f"{_flag(dest)} takes integers, got {fractional[0]}")
        items = [kind(v) for v in items]
    if not items:
        raise ConfigError(f"{_flag(dest)} is empty")
    if grid:
        return items
    if len(items) != 1:
        raise ConfigError(f"{command} takes a single {_flag(dest)} value")
    return items[0]


def resolve(command: str, *sources: dict) -> dict:
    """The command's parameters: its spec's defaults overlaid by each of
    ``sources`` (flag dest -> value, None for not given) in turn, so a
    later source wins. Within one source, two flags that set one parameter
    are refused unless the spec has them set it together."""
    spec = montecarlo.SPECS[command]
    routes = _routes(spec)
    params = dict(spec.params)
    for source in sources:
        given = {}
        for dest, value in source.items():
            if value is not None:
                given.setdefault(routes[dest][0], {})[dest] = value
        for param, values in given.items():
            group = routes[next(iter(values))][1]
            default = spec.params[param]
            if len(group) > 1:  # one grid point, set by the group's flags together
                if set(values) != set(group):
                    raise ConfigError(f"{command} takes {' and '.join(map(_flag, group))} together")
                params[param] = [tuple(_value(command, d, values[d], dv) for d, dv in zip(group, default[0]))]
            elif len(values) > 1:
                raise ConfigError(f"{command}: {' and '.join(map(_flag, values))} set the same parameter; give one")
            else:
                (dest, value), = values.items()
                params[param] = _value(command, dest, value, default)
    return params


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
    manifest = {
        "experiment": result.experiment,
        "config": result.config,
        "output_paths": [str(csv_path), str(json_path)],
        "config_hash": _config_hash(result.config),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
    }
    write_manifest(manifest_path, manifest)
    return [csv_path, json_path, manifest_path]


def _print_advice(result: montecarlo.ExperimentResult) -> None:
    """analyze's table, one row per (k, SNR)."""
    print(f"{'k':>6} {'rho_db':>8} {'rate_coop':>12} {'rate_conv':>12} {'delta':>10} decision")
    for k_users, db, coop, conv, delta, mode in result.rows:
        print(f"{k_users:>6} {db:>8.2f} {coop:>12.4f} {conv:>12.4f} {delta:>10.4f} {mode}")


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    spec = montecarlo.SPECS[args.command]
    routes = _routes(spec)
    try:
        config = getattr(args, "config", None)
        sources = [_load_config_file(config, routes)] if config else []
        params = resolve(args.command, *sources, {dest: getattr(args, dest) for dest in routes})
        workers = _value(args.command, "workers", getattr(args, "workers", 1), 1)
        result = montecarlo.run_experiment(args.command, params, workers=workers)
        if not spec.writes:
            _print_advice(result)
            return 0
        paths = _emit(_out_dir(args), result)
        print(f"{result.experiment}: wrote {', '.join(str(p) for p in paths)}")
    except (ValueError, MemoryError) as exc:  # ConfigError and InvalidRegime among them
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
