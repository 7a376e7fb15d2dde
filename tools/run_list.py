"""Run the regression run list against one checkout and print a hash per output,
or compare every output with another checkout's.

    python tools/run_list.py <checkout> [--workers N]
    python tools/run_list.py <checkout> --against <baseline> [--workers N]

Each run is :func:`run_entry` in a fresh interpreter with ``<checkout>/src``
on the path, in a fresh output directory: ``coopfb.cli.run`` on its command
line. One more run, ``per_user_link_seed7``, covers criterion 1's per-user
pipeline, which no command reaches: it imports the checkout's
``perfbench/workloads.py`` without writing to it and writes what
``run_per_user`` returns to ``per_user.csv`` (:func:`write_per_user`).
For every run the script prints its exit code,
the sha256 of its stdout (with the output directory replaced by ``<out>``)
and of its stderr, and the sha256 of every file it wrote. A manifest is
hashed without its ``timestamp`` and ``output_paths`` keys, which change
from run to run. Two checkouts, or two worker counts, are then compared
with one ``diff`` of the printed lists.

With ``--against`` each run also runs on ``<baseline>``, and for each
output (exit code, stdout, stderr and every file) the script prints either
``identical`` or the largest relative change over its non-integer numbers
(CSV cells, JSON numbers, words of stdout) with where it is, followed by one
``differs`` line for every other cell that differs: integers (counts) are
compared exactly, like text. So a change that only moves last bits shows as
a small ``max_rel`` and no ``differs`` line.

A hash list starts with one ``#`` line naming the Python and numpy versions
that made it. The list at one worker is committed as
``tests/run_list_hashes.txt``, which ``tests/test_run_list.py`` reproduces
in process (:func:`execute_in_process`); a change that moves an output
regenerates it with ``python tools/run_list.py . > tests/run_list_hashes.txt``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import re
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path

_COOP_CONV = ("--mode", "cooperative", "--mode", "conventional")

# (label, command line); the writing runs are also given --workers and --out-dir,
# ahead of the entry's own flags, which win.
RUNS = [
    ("fig3_seed2", ("fig3", "--seed", "2", "--trials", "300")),
    ("fig3_bcl2-4_n1", ("fig3", "--bcl", "2..4", "--n", "1", "--trials", "300")),
    # 11- and 12-bit codebooks: ln_beta's Stirling branch (qcl > 1024) and
    # sampler blocks of 32 and 16 trials, the last of each partial.
    ("fig3_bcl11,12", ("fig3", "--bcl", "11,12", "--seed", "2", "--trials", "100")),
    ("fig5_seed2", ("fig5", "--seed", "2", "--trials", "300")),
    ("fig5_bcl5_dft", ("fig5", "--bcl", "5", "--codebook", "dft", "--trials", "300")),
    ("fig6_seed2", ("fig6", "--seed", "2", "--trials", "300")),
    ("fig6_rho5,15_bcl6", ("fig6", "--rho-db", "5,15", "--bcl", "6", "--trials", "300")),
    # n + 1 = m: the pair sampler's square stack and sinr_cdf_exact's n = m - 1 branch.
    ("fig6_n3", ("fig6", "--n", "3", "--seed", "2", "--trials", "300")),
    # n = m - 3: the smallest gap through sinr_cdf_exact's negative-order term (gammaincc at k <= 0),
    # whose shape 1 - k is at most 2 here, so below x = 1 - k + 1 it reads Q as 1 - P.
    ("fig6_n1", ("fig6", "--n", "1", "--seed", "2", "--trials", "300")),
    # m = 6, n = 2: expn's orders 1-6 and gammaincc's negative-order terms at
    # Beta shape a = 3; no other entry reaches an order above 4.
    ("fig6_m6", ("fig6", "--m", "6", "--n", "2", "--seed", "2", "--trials", "300")),
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
    # Adaptive at k=16 is out of the closed form's regime at 20 dB: exits 2 before any trial.
    (
        "sweep_adaptive_out_of_regime",
        ("sweep", *_COOP_CONV, "--mode", "adaptive", "--k", "16", "--rho-db", "0..20..5", "--trials", "200"),
    ),
    # A range grid of about 1e316 points: refused before its list is built, exits 2.
    ("sweep_rho_grid_overflow", ("sweep", "--rho-db", "0..1e308..1e-308", "--trials", "1")),
    # Blocks of 42 trials at k = 12 and 128 words, the last of 16, whose codeword picks
    # run in chunks of 10 trials: each block ends in a partial chunk (of 2, then 6).
    (
        "sweep_coop_conv_k12_bcl7",
        ("sweep", *_COOP_CONV, "--k", "12", "--bcl", "7", "--rho-db", "0..20..10", "--trials", "100"),
    ),
    ("sweep_conv_dft_k10", ("sweep", "--mode", "conventional", "--codebook", "dft", "--k", "10", "--trials", "200")),
    # The benchmark's command lines (perfbench/workloads.py) at seed 7.
    ("rate_fig8_seed7", ("fig8", "--seed", "7", "--trials", "200")),
    ("sweep_small_k_seed7", ("sweep", *_COOP_CONV, "--rho-db", "0..20..5", "--seed", "7", "--trials", "200")),
    ("pairs_fig6_seed7", ("fig6", "--seed", "7", "--trials", "500")),
    ("analyze_defaults", ("analyze",)),
    ("analyze_k50,100_rho0-10", ("analyze", "--k-grid", "50,100", "--rho-db", "0..10..5")),
    ("analyze_n3_bcl4", ("analyze", "--n", "3", "--bcl", "4")),
    # perfbench's per_user_link workload at seed 7: (seed, trials) of run_per_user.
    ("per_user_link_seed7", ("per_user", "7", "40")),
    # Values refused by their one check, each exiting 2 with an error line.
    ("fig8_m4.5", ("fig8", "--m", "4.5", "--trials", "1")),
    ("sweep_codebook_foo", ("sweep", "--codebook", "foo", "--trials", "1")),
    ("fig3_workers_x", ("fig3", "--workers", "x", "--trials", "1")),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _normalised(name: str, data: bytes) -> bytes:
    """A manifest without the keys that change from run to run."""
    if name.endswith("_manifest.json"):
        manifest = json.loads(data)
        for key in ("timestamp", "output_paths"):
            manifest.pop(key, None)
        data = json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8")
    return data


def write_per_user(perfbench: str, seed: str, trials: str, out_dir: str) -> None:
    """``per_user.csv`` of ``run_per_user(seed, trials)`` from ``perfbench``'s
    ``workloads.py``: per trial, each user's report (beam, CQI, combiner),
    the beam assignment (-1 for no user) and each served beam's recombined
    and simulated scalars, every float to 17 significant digits."""
    sys.path.insert(0, perfbench)
    from workloads import run_per_user

    def digits(*values):
        return [f"{part:.17g}" for v in values for part in (v.real, v.imag)]

    rows = [("trial", "what", "index", "values")]
    for t, trial in enumerate(run_per_user(int(seed), int(trials))):
        rows += [(t, "report", r.user, r.beam, f"{r.cqi:.17g}", *digits(*r.combiner)) for r in trial.reports]
        rows += [(t, "assignment", beam, -1 if u is None else u) for beam, u in enumerate(trial.assignment)]
        rows += [(t, "decomposition", beam, *digits(rec, sim)) for beam, rec, sim in trial.decompositions]
    Path(out_dir).mkdir()
    with open(Path(out_dir) / "per_user.csv", "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def versions() -> str:
    """The ``#`` line that heads a hash list."""
    return f"# python {platform.python_version()}, numpy {metadata.version('numpy')}"


def _outputs(code: int, stdout: bytes, stderr: bytes, out_dir: Path) -> dict[str, bytes]:
    """Every output of one run by name: ``exit``, ``stdout``, ``stderr`` and
    each file it wrote, manifests normalised."""
    outputs = {"exit": str(code).encode(), "stdout": stdout.replace(str(out_dir).encode(), b"<out>"), "stderr": stderr}
    if out_dir.is_dir():
        outputs.update((path.name, _normalised(path.name, path.read_bytes())) for path in sorted(out_dir.iterdir()))
    return outputs


def run_entry(argv: tuple, workers: int, out_dir: str, perfbench: str) -> int:
    """Run one entry of the list in this process and return its exit code:
    ``coopfb.cli.run`` on the command line, the writing runs given
    ``--workers`` and ``--out-dir`` ahead of the entry's own flags, or
    :func:`write_per_user` on the ``workloads.py`` in ``perfbench``."""
    if argv[0] == "per_user":
        write_per_user(perfbench, *argv[1:], out_dir)
        return 0
    from coopfb import cli

    try:
        run_options = () if argv[0] == "analyze" else ("--workers", str(workers), "--out-dir", out_dir)
        return cli.run([argv[0], *run_options, *argv[1:]])
    except SystemExit as exc:  # argparse's refusals
        return exc.code


def execute(src: Path, argv: tuple, workers: int, out_dir: Path) -> dict[str, bytes]:
    """The outputs of one run, :func:`run_entry` in a fresh interpreter
    with ``src`` on the path."""
    env = {key: value for key, value in os.environ.items() if key != "COOPFB_OUT_DIR"}
    env["PYTHONPATH"] = os.pathsep.join([str(src), str(Path(__file__).resolve().parent)])
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # leaves the checkout's perfbench/ as it is
    script = "import json, sys, run_list; sys.exit(run_list.run_entry(*json.loads(sys.argv[1])))"
    entry = json.dumps([argv, workers, str(out_dir), str(src.parent / "perfbench")])
    done = subprocess.run([sys.executable, "-c", script, entry], capture_output=True, env=env, cwd=out_dir.parent)
    return _outputs(done.returncode, done.stdout, done.stderr, out_dir)


def execute_in_process(argv: tuple, out_dir: Path, perfbench: str) -> dict[str, bytes]:
    """The outputs of one run at one worker, from the ``coopfb`` this
    process imports: :func:`run_entry` with its stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_entry(argv, 1, str(out_dir), perfbench)
    return _outputs(code, out.getvalue().encode(), err.getvalue().encode(), out_dir)


def hash_lines(outputs: dict[str, bytes]) -> list[tuple[str, str]]:
    """``(what, value)`` lines for one run: exit code, then the sha256 of
    stdout, stderr and each file."""
    return [("exit", outputs["exit"].decode())] + [(name, _sha(data)) for name, data in outputs.items() if name != "exit"]


_INTEGER = re.compile(r"[+-]?\d+")


def _cells(name: str, data: bytes):
    """``(where, value)`` for every cell of one output, in order: JSON
    leaves by key path, CSV cells by row and column, else whitespace words.
    Numbers come back as int or float, everything else as text."""
    text = data.decode("utf-8", errors="replace")
    if name.endswith(".json"):
        def walk(node, where):
            if isinstance(node, dict):
                for key in sorted(node):
                    yield from walk(node[key], f"{where}.{key}" if where else str(key))
            elif isinstance(node, list):
                for i, item in enumerate(node):
                    yield from walk(item, f"{where}[{i}]")
            else:
                yield where, node

        yield from walk(json.loads(text), "")
        return
    if name.endswith(".csv"):
        for i, row in enumerate(csv.reader(io.StringIO(text))):
            for j, cell in enumerate(row):
                yield f"row {i} col {j}", _number(cell)
        return
    for i, word in enumerate(text.split()):
        yield f"word {i}", _number(word)


def _number(cell: str):
    if _INTEGER.fullmatch(cell):
        return int(cell)
    try:
        return float(cell)
    except ValueError:
        return cell


def compare(name: str, old: bytes, new: bytes) -> list[str]:
    """``identical``, or the largest relative change over the non-integer
    numbers plus one ``differs`` line per other cell that differs."""
    if old == new:
        return ["identical"]
    old_cells, new_cells = dict(_cells(name, old)), dict(_cells(name, new))
    worst, worst_at, lines = 0.0, None, []
    for where in list(old_cells) + [w for w in new_cells if w not in old_cells]:
        a, b = old_cells.get(where, "<missing>"), new_cells.get(where, "<missing>")
        if type(a) is float and type(b) is float and math.isfinite(a) and math.isfinite(b):
            rel = abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0
            if rel > worst:
                worst, worst_at = rel, where
        elif a != b and not (a != a and b != b):  # two NaNs read equal
            lines.append(f"differs {where}: {a!r} -> {b!r}")
    return [f"max_rel {worst:.2g} at {worst_at}" if worst_at else "max_rel 0"] + lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path, help="repository checkout whose src/ is run")
    parser.add_argument("--workers", type=int, default=1, help="--workers of every writing run")
    parser.add_argument("--against", type=Path, help="baseline checkout to compare every output with")
    args = parser.parse_args(argv)
    srcs = [(path / "src").resolve() for path in (args.checkout, args.against) if path is not None]
    for src in srcs:
        if not (src / "coopfb").is_dir():
            parser.error(f"no src/coopfb under {src.parent}")
    if args.against is None:
        print(versions(), flush=True)
    with tempfile.TemporaryDirectory(prefix="run_list-") as tmp:
        for label, command in RUNS:
            dirs = [Path(tmp) / label / side for side in ("change", "baseline")[: len(srcs)]]
            for run_dir in dirs:
                run_dir.mkdir(parents=True)
            if args.against is None:
                for what, value in hash_lines(execute(srcs[0], command, args.workers, dirs[0] / "out")):
                    print(f"{label} {what} {value}", flush=True)
                continue
            new, old = (execute(src, command, args.workers, run_dir / "out") for src, run_dir in zip(srcs, dirs))
            for name in [*old, *(name for name in new if name not in old)]:
                if name in old and name in new:
                    lines = compare(name, old[name], new[name])
                else:
                    lines = [f"only in {'baseline' if name in old else 'change'}"]
                for line in lines:
                    print(f"{label} {name} {line}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
