"""Spans around calls into coopfb's modules, recorded from outside the package.

A span is ``[name, start, end, parent]``: ``name`` is the layer bucket the
wrapped function belongs to, ``start``/``end`` come from
``time.perf_counter`` and ``parent`` is the index of the enclosing span (-1
for a root). Spans stay in memory while the run lasts and are written out
once, at its end.

Wrappers are installed where the caller looks a name up: ``montecarlo``
imports ``complex_gaussian`` and the codebook generators from ``model`` by
name, so those names are wrapped in ``montecarlo``'s namespace as well as in
``model``'s. Wrapping one module attribute also covers calls made from
inside that module, because a bare name resolves through the module's
globals, which are its attributes.
"""

from __future__ import annotations

import gzip
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps
from pathlib import Path


def span_table():
    """``(owner, attribute, bucket)`` for every call the traced run wraps.

    ``owner`` is a module or a class. Imports happen here, not at module
    load, so the harness can check where coopfb was imported from first.
    """
    from coopfb import analysis, cli, cooperation, link, model, montecarlo, numerics, qbc, scheduler

    table = [(model.RandomStream, "generator", "model.streams")]
    for owner in (model, montecarlo, link):
        table.append((owner, "complex_gaussian", "model.draws"))
    for owner in (model, montecarlo):
        table += [(owner, "gen_global_codebook", "model.draws"), (owner, "gen_local_codebook", "model.draws")]
    table.append((model, "gen_all_channels", "model.draws"))
    table.append((numerics, "mgs_columns", "numerics.mgs"))
    table += [(numerics, name, "numerics.solve") for name in ("orthonormal_basis", "gram_solve", "gram_matrix")]
    table += [(qbc, "select_csi", "qbc.select_csi"), (qbc, "combine_for_codeword", "qbc.combine")]
    table.append((cooperation, "acquire_local_csi", "cooperation.local"))
    table += [
        (cooperation, name, "cooperation.global")
        for name in ("build_global_matrix", "acquire_global_csi", "assign_roles")
    ]
    table.append((scheduler, "schedule_users", "scheduler.schedule"))
    table += [(link, name, "link.symbol_path") for name in ("simulate_symbol_path", "decompose_received")]
    # Every public function of the closed-form chain counts toward one bucket.
    table += [
        (analysis, name, "analysis.closed_form")
        for name, fn in vars(analysis).items()
        if inspect.isfunction(fn) and fn.__module__ == analysis.__name__ and not name.startswith("_")
    ]
    table += [
        (montecarlo, "build_workspace", "montecarlo.build_workspace"),
        (montecarlo, "evaluate_mode", "montecarlo.evaluate_mode"),
        (montecarlo, "ks_distance", "montecarlo.stats"),
        (montecarlo, "empirical_cdf", "montecarlo.stats"),
        # The samplers and chunk loops are private; their self time lands in
        # these two entry points, which call them.
        (montecarlo, "run_experiment", "montecarlo.other"),
        (montecarlo, "run_sweep", "montecarlo.other"),
    ]
    table += [(cli, name, "cli.emit") for name in ("write_csv", "write_summary", "write_manifest")]
    return table


class Tracer:
    """In-memory span recorder plus counters read off wrapped results."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def wrap(self, bucket: str, fn, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            record = [bucket, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def root(self, fn):
        """Wrap the workload's entry call as a root span named ``call``."""
        return self.wrap("call", fn)

    @contextmanager
    def installed(self):
        """Swap every wrapper of :func:`span_table` in; restore the originals on exit."""
        saved = []
        try:
            for owner, attr, bucket in span_table():
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(bucket, original, _RESULT_HOOKS.get(bucket)))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self) -> dict[str, float]:
        """Seconds per bucket, each span's duration minus its children's."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        totals: dict[str, float] = defaultdict(float)
        for (bucket, *_), seconds in zip(self.spans, own):
            totals[bucket] += seconds
        return dict(totals)

    def call_counts(self) -> dict[str, int]:
        counts: dict[str, int] = defaultdict(int)
        for bucket, *_ in self.spans:
            counts[bucket] += 1
        return dict(counts)

    def root_seconds(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def write(self, path: Path) -> None:
        """All spans as gzipped TSV: name, start, end, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name}\t{start!r}\t{end!r}\t{parent}\n")


def _count_unassigned(tracer: Tracer, result) -> None:
    tracer.counts["unassigned_beams"] += int(result.unassigned.sum())


# Counters read off a wrapped call's result, by bucket.
_RESULT_HOOKS = {"montecarlo.evaluate_mode": _count_unassigned}
