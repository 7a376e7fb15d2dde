"""Run the regression run list against one checkout and print a hash per output.

    python tools/run_list.py <checkout> [--workers N]

Each run is ``python -m coopfb.cli`` with ``<checkout>/src`` on the path, in
a fresh output directory. For every run the script prints its exit code,
the sha256 of its stdout (with the output directory replaced by ``<out>``)
and of its stderr, and the sha256 of every file it wrote. A manifest is
hashed without its ``timestamp`` and ``output_paths`` keys, which change
from run to run. Two checkouts, or two worker counts, are then compared
with one ``diff`` of the printed lists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

_COOP_CONV = ("--mode", "cooperative", "--mode", "conventional")

# (label, command line); the writing runs are also given --workers and --out-dir.
RUNS = [
    ("fig3_seed2", ("fig3", "--seed", "2", "--trials", "300")),
    ("fig3_bcl2-4_n1", ("fig3", "--bcl", "2..4", "--n", "1", "--trials", "300")),
    ("fig5_seed2", ("fig5", "--seed", "2", "--trials", "300")),
    ("fig5_bcl5_dft", ("fig5", "--bcl", "5", "--codebook", "dft", "--trials", "300")),
    ("fig6_seed2", ("fig6", "--seed", "2", "--trials", "300")),
    ("fig6_rho5,15_bcl6", ("fig6", "--rho-db", "5,15", "--bcl", "6", "--trials", "300")),
    ("fig7_defaults", ("fig7", "--trials", "6")),
    ("fig7_n2_bcl4_k20-50", ("fig7", "--n", "2", "--bcl", "4", "--k-grid", "20,30,50", "--trials", "6")),
    ("fig8_defaults", ("fig8", "--trials", "20")),
    ("fig8_k16_n2_bcl4", ("fig8", "--k", "16", "--n", "2", "--bcl", "4", "--trials", "20")),
    ("fig9_seed2", ("fig9", "--seed", "2", "--trials", "300")),
    ("fig9_seed2_n3", ("fig9", "--seed", "2", "--n", "3", "--trials", "300")),
    ("sweep_defaults", ("sweep", "--trials", "200")),
    ("sweep_coop_conv_k16", ("sweep", *_COOP_CONV, "--k", "16", "--rho-db", "0..20..5", "--trials", "200")),
    (
        "sweep_all_k200",
        ("sweep", *_COOP_CONV, "--mode", "adaptive", "--k", "200", "--n", "3", "--bcl", "6",
         "--rho-db=-5..25..5", "--trials", "40"),
    ),
    ("sweep_adaptive", ("sweep", "--mode", "adaptive", "--trials", "50")),
    ("sweep_conv_dft_k10", ("sweep", "--mode", "conventional", "--codebook", "dft", "--k", "10", "--trials", "200")),
    # The benchmark's command lines (perfbench/workloads.py) at seed 7.
    ("rate_fig8_seed7", ("fig8", "--seed", "7", "--trials", "200")),
    ("sweep_small_k_seed7", ("sweep", *_COOP_CONV, "--rho-db", "0..20..5", "--seed", "7", "--trials", "200")),
    ("pairs_fig6_seed7", ("fig6", "--seed", "7", "--trials", "500")),
    ("analyze_defaults", ("analyze",)),
    ("analyze_k50,100_rho0-10", ("analyze", "--k-grid", "50,100", "--rho-db", "0..10..5")),
    ("analyze_n3_bcl4", ("analyze", "--n", "3", "--bcl", "4")),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_hash(path: Path) -> str:
    data = path.read_bytes()
    if path.name.endswith("_manifest.json"):
        manifest = json.loads(data)
        for key in ("timestamp", "output_paths"):
            manifest.pop(key, None)
        data = json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8")
    return _sha(data)


def run_one(src: Path, argv: tuple, workers: int, out_dir: Path) -> list[tuple[str, str]]:
    """``(what, value)`` lines for one run: exit code, stdout, stderr, files."""
    if argv[0] != "analyze":
        argv = (*argv, "--workers", str(workers), "--out-dir", str(out_dir))
    env = {key: value for key, value in os.environ.items() if key != "COOPFB_OUT_DIR"}
    env["PYTHONPATH"] = str(src)
    done = subprocess.run(
        [sys.executable, "-m", "coopfb.cli", *argv], capture_output=True, env=env, cwd=out_dir.parent
    )
    stdout = done.stdout.replace(str(out_dir).encode(), b"<out>")
    lines = [("exit", str(done.returncode)), ("stdout", _sha(stdout)), ("stderr", _sha(done.stderr))]
    if out_dir.is_dir():
        lines += [(path.name, _file_hash(path)) for path in sorted(out_dir.iterdir())]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path, help="repository checkout whose src/ is run")
    parser.add_argument("--workers", type=int, default=1, help="--workers of every writing run")
    args = parser.parse_args(argv)
    src = (args.checkout / "src").resolve()
    if not (src / "coopfb").is_dir():
        parser.error(f"no src/coopfb under {args.checkout}")
    with tempfile.TemporaryDirectory(prefix="run_list-") as tmp:
        for label, command in RUNS:
            run_dir = Path(tmp) / label
            run_dir.mkdir()
            for what, value in run_one(src, command, args.workers, run_dir / "out"):
                print(f"{label} {what} {value}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
