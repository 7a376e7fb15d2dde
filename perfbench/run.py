"""coopfb benchmark: trials/s, set-up time and peak memory of four workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload rate_fig8 --seed 1 --seconds 10 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object with
``trials_per_s``, ``setup_s`` and ``peak_rss_mb``; with ``--trace 1`` it
holds the per-layer metrics of a traced run instead. The workloads are
listed in ``workloads.py`` and described in ``README.md``.

This process imports neither numpy nor coopfb. It times
``SETUP_PROBES`` fresh processes from start to the end of their set-up call,
scales each time by the host speed that process measured (``calibration.py``)
and takes the median as ``setup_s``, then starts one measuring process
(``measure.py``) and passes its result on. Every process it starts runs
with one BLAS thread and is waited for.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RECORDS = ROOT / ".perfbench_runs" / "records"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 30
MEASURE_GRACE_S = 90  # checks and set-up on top of --seconds


def _env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    return env


def _measure_cmd(args, *extra) -> list[str]:
    return [
        sys.executable, str(HERE / "measure.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]


def _probe_setup(args) -> tuple[float, float]:
    """Seconds from starting a fresh process to the end of its set-up call,
    and the host's speed factor the process measured right after."""
    start = time.perf_counter()
    with subprocess.Popen(
        _measure_cmd(args, "--setup-only"), cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True
    ) as proc:
        try:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - start
            speed, _ = proc.communicate(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise
    if line != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited {proc.returncode} without finishing its set-up call")
    return elapsed, float(speed)


def _measure(args) -> str:
    """Standard output of the measuring process.

    It runs in its own process group, so a timeout also ends the worker
    processes it forked.
    """
    with subprocess.Popen(
        _measure_cmd(args), cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    ) as proc:
        try:
            stdout, _ = proc.communicate(timeout=args.seconds + MEASURE_GRACE_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0 or not stdout.strip():
        raise RuntimeError(f"measuring process exited {proc.returncode}")
    return stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="coopfb benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "coopfb" / "__init__.py").is_file():
        print(f"error: no coopfb sources under {ROOT / 'src'}", file=sys.stderr)
        return 1

    try:
        setup = [] if args.trace else [_probe_setup(args) for _ in range(SETUP_PROBES)]
        stdout = _measure(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    diagnostics = json.loads(lines[-2]) if len(lines) > 1 else {}
    if setup:
        # A slow host (speed below 1) stretches set-up; scale it to the reference host.
        corrected = [elapsed * speed for elapsed, speed in setup]
        result["metrics"]["setup_s"] = {"value": statistics.median(corrected), "unit": "s"}
    line = json.dumps(result)
    RECORDS.mkdir(parents=True, exist_ok=True)
    record = RECORDS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"argv": sys.argv[1:], "setup_probes_s": setup, "diagnostics": diagnostics, "result": result}, indent=1) + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
