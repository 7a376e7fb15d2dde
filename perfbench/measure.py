"""One measuring process of the benchmark; ``run.py`` starts it.

``--setup-only`` imports coopfb, makes the workload's set-up call and
prints ``ready``: the parent times that from process start. It then prints
the host's speed factor, which the parent applies to that time. Otherwise the
process makes one warm-up call, then repeats the workload's entry call for
``--seconds`` (untraced, or half untraced at one worker and half traced
with ``--trace 1``), runs the output checks on the last call's output and
prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench_runs"


def _import_coopfb() -> None:
    """Import coopfb from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(ROOT / "src"))
    import coopfb

    if Path(coopfb.__file__).resolve().parent != (ROOT / "src" / "coopfb").resolve():
        raise SystemExit(f"coopfb was imported from {coopfb.__file__}, outside this checkout")


def _peak_rss_mib() -> float:
    """Largest resident set of this process and of any child it has reaped."""
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kib, child_kib) / 1024.0


@dataclass
class Calls:
    """What a series of timed calls gave."""

    wall_rates: list = field(default_factory=list)  # trials / wall seconds, per call
    rates: list = field(default_factory=list)  # the same, divided by the host's speed
    speeds: list = field(default_factory=list)  # host speed factor around each call
    digests: list = field(default_factory=list)  # output bytes of each call
    output: object = None  # the last call's output


def _timed_calls(workload, seed: int, out_dir: Path, workers: int, seconds: float, call=None) -> Calls:
    """Repeat the entry call until ``seconds`` have passed (at least once).

    Each call is bracketed by the calibration kernel, run in as many
    processes as the call uses; the call's rate is divided by the mean of
    the host speeds measured right before and right after it.
    """
    call = call or workload.call
    calls = Calls()
    deadline = time.perf_counter() + seconds
    before = calibration.host_speed(workers)
    while True:
        start = time.perf_counter()
        calls.output = call(seed, workload.trials, out_dir, workers)
        wall_rate = workload.trials / (time.perf_counter() - start)
        after = calibration.host_speed(workers)
        speed = (before + after) / 2.0
        before = after
        calls.wall_rates.append(wall_rate)
        calls.speeds.append(speed)
        calls.rates.append(wall_rate / speed)
        calls.digests.append(_digest(calls.output))
        if time.perf_counter() >= deadline:
            return calls


def _digest(output) -> bytes:
    """Bytes that repeat exactly when a call repeats: the CSV, or the per-user results."""
    if isinstance(output, Path):
        return b"".join(p.read_bytes() for p in sorted(output.glob("*.csv")))
    return repr([(t.assignment, t.decompositions) for t in output]).encode()


def _check(workload, seed: int, output) -> list[str]:
    import checks
    from workloads import PER_USER

    if workload.name == "rate_fig8":
        return checks.check_rate_fig8(output, seed, workload.trials)
    if workload.name == "sweep_small_k":
        return checks.check_sweep_small_k(output, seed, workload.trials)
    if workload.name == "pairs_fig6":
        return checks.check_pairs_fig6(output)
    return checks.check_per_user(output, PER_USER["m"])


def _per_layer(tracer, trials_per_call: int, calls: int, summary: dict | None, speed_ratio: float) -> dict:
    """Per-layer metrics of the traced calls: self time per trial or per call, and counts."""
    own = tracer.self_times()
    trials = trials_per_call * calls
    counts = tracer.call_counts()

    def us(*buckets):
        return 1e6 * sum(own.get(b, 0.0) for b in buckets) / trials

    def ms_run(*buckets):
        return 1e3 * sum(own.get(b, 0.0) for b in buckets) / calls

    resamples = summary["resample_count"] if summary else 0
    values = {
        "model.streams_per_trial": (counts.get("model.streams", 0) / trials, "count"),
        "model.streams_us": (us("model.streams"), "us/trial"),
        "model.draws_us": (us("model.draws"), "us/trial"),
        "numerics.mgs_calls_per_trial": (counts.get("numerics.mgs", 0) / trials, "count"),
        "numerics.mgs_us": (us("numerics.mgs"), "us/trial"),
        "numerics.solve_us": (us("numerics.solve"), "us/trial"),
        "qbc.select_csi_us": (us("qbc.select_csi"), "us/trial"),
        "qbc.combine_us": (us("qbc.combine"), "us/trial"),
        "cooperation.local_us": (us("cooperation.local"), "us/trial"),
        "cooperation.global_us": (us("cooperation.global"), "us/trial"),
        "scheduler.schedule_us": (us("scheduler.schedule"), "us/trial"),
        "link.symbol_path_us": (us("link.symbol_path"), "us/trial"),
        "analysis.closed_form_ms": (ms_run("analysis.closed_form"), "ms/run"),
        "montecarlo.build_workspace_us": (us("montecarlo.build_workspace"), "us/trial"),
        "montecarlo.evaluate_mode_us": (us("montecarlo.evaluate_mode"), "us/trial"),
        "montecarlo.stats_ms": (ms_run("montecarlo.stats"), "ms/run"),
        "montecarlo.other_us": (us("montecarlo.other"), "us/trial"),
        "montecarlo.draws_per_trial": (1.0 + resamples / trials_per_call, "count"),
        "montecarlo.unassigned_beams_per_trial": (tracer.counts["unassigned_beams"] / trials, "count"),
        "cli.emit_ms": (ms_run("cli.emit"), "ms/run"),
        "trace.speed_ratio": (speed_ratio, "ratio"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    _import_coopfb()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS, CallFailed

    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    out_dir = RUNS / "out" / tag
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    attempted, failures, metrics, diagnostics = 0, [], {}, {}
    try:
        if args.setup_only:
            workload.call(args.seed, workload.warmup_trials, out_dir, workload.workers)
            print("ready", flush=True)
            calibration.kernel_seconds()  # the first run in a fresh process pays one-off costs
            print(calibration.host_speed(1), flush=True)
            return 0
        try:
            workload.call(args.seed, workload.warmup_trials, out_dir, workload.workers)
            if args.trace:
                from tracing import Tracer

                # Untraced and traced halves at one worker: spans recorded in
                # forked workers would be lost.
                plain = _timed_calls(workload, args.seed, out_dir, 1, args.seconds / 2)
                tracer = Tracer()
                with tracer.installed():
                    traced = _timed_calls(
                        workload, args.seed, out_dir, 1, args.seconds / 2, tracer.root(workload.call)
                    )
                attempted = len(plain.rates) + len(traced.rates)
                digests, output = plain.digests + traced.digests, traced.output
                summary = None
                if workload.argv:
                    summary = json.loads((output / f"{workload.argv[0]}.json").read_text())
                ratio = statistics.median(traced.rates) / statistics.median(plain.rates)
                metrics = _per_layer(tracer, workload.trials, len(traced.rates), summary, ratio)
                tracer.write(RUNS / "traces" / f"{tag}.tsv.gz")
                diagnostics = {"wall_trials_per_s": statistics.median(plain.wall_rates)}
            else:
                calls = _timed_calls(workload, args.seed, out_dir, workload.workers, args.seconds)
                attempted = len(calls.rates)
                digests, output = calls.digests, calls.output
                metrics = {
                    "trials_per_s": {"value": statistics.median(calls.rates), "unit": "trials/s"},
                    "peak_rss_mb": {"value": _peak_rss_mib(), "unit": "MiB"},
                }
                diagnostics = {
                    "wall_trials_per_s": statistics.median(calls.wall_rates),
                    "host_speed": statistics.median(calls.speeds),
                }
            if any(d != digests[0] for d in digests):
                failures.append("repeated calls with one seed gave different outputs")
            failures += _check(workload, args.seed, output)
        except CallFailed as exc:
            attempted = max(attempted, 1)
            failures.append(str(exc))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    for line in failures[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": attempted if failures else 0,
        "metrics": metrics,
    }
    # run.py keeps the line before the result in the run record.
    print(json.dumps(diagnostics))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
