"""Byte stability as a check: the run list's outputs at one worker against
the committed hash list ``tests/run_list_hashes.txt``.

The runs are ``tools/run_list.py``'s ``RUNS``, each through ``coopfb.cli.run``
in this process rather than a fresh interpreter. A change that moves any
output's bits fails here, naming each output that moved; if the move is
meant, the list is made again with ``python tools/run_list.py . >
tests/run_list_hashes.txt``, so the diff shows what moved. Another Python,
numpy or BLAS build may round differently: the failure then names the
versions the list was made with and the present ones.
"""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HASHES = ROOT / "tests" / "run_list_hashes.txt"


def load_run_list():
    spec = importlib.util.spec_from_file_location("run_list", ROOT / "tools" / "run_list.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_list_outputs_match_the_committed_hashes(tmp_path, monkeypatch):
    run_list = load_run_list()
    header, *lines = HASHES.read_text().splitlines()
    recorded = dict(line.rsplit(" ", 1) for line in lines)  # "label what" -> value
    monkeypatch.delenv("COOPFB_OUT_DIR", raising=False)
    monkeypatch.setattr(sys, "path", list(sys.path))  # the per-user run imports perfbench's workloads
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # and leaves perfbench/ as it is
    now = {}
    try:
        for label, argv in run_list.RUNS:
            (tmp_path / label).mkdir()
            outputs = run_list.execute_in_process(argv, tmp_path / label / "out", str(ROOT / "perfbench"))
            now.update((f"{label} {what}", value) for what, value in run_list.hash_lines(outputs))
    finally:
        sys.modules.pop("workloads", None)
    moved = [
        f"  {key}: recorded {recorded.get(key, 'nothing')}, now {now.get(key, 'nothing')}"
        for key in [*recorded, *(key for key in now if key not in recorded)]
        if recorded.get(key) != now.get(key)
    ]
    assert not moved, (
        f"{len(moved)} run-list outputs moved (list made with {header.lstrip('# ')}; "
        f"this is {run_list.versions().lstrip('# ')}):\n" + "\n".join(moved)
    )
