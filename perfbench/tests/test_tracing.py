"""The traced run's bookkeeping."""

from coopfb import model, montecarlo
from tracing import Tracer, span_table
from workloads import WORKLOADS


def test_self_times_add_up_to_span_totals(tmp_path):
    tracer = Tracer()
    call = tracer.root(WORKLOADS["pairs_fig6"].call)
    with tracer.installed():
        call(1, 60, tmp_path, 1)
        call(1, 60, tmp_path, 1)
    own = tracer.self_times()
    assert abs(sum(own.values()) - tracer.root_seconds()) <= 1e-9 * tracer.root_seconds()
    assert all(seconds >= 0.0 for seconds in own.values())
    counts = tracer.call_counts()
    assert counts["call"] == 2
    for bucket in ("model.streams", "model.draws", "numerics.mgs", "qbc.combine",
                   "cooperation.local", "analysis.closed_form", "montecarlo.stats", "cli.emit"):
        assert counts[bucket] > 0, bucket


def test_every_wrapper_is_installed_and_then_removed():
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in span_table()]
    tracer = Tracer()
    with tracer.installed():
        assert all(vars(owner)[attr].__wrapped__ is fn for owner, attr, fn in originals)
        assert model.complex_gaussian is not montecarlo.complex_gaussian
    assert all(vars(owner)[attr] is fn for owner, attr, fn in originals)


def test_unassigned_beams_are_counted_from_evaluate_mode(tmp_path):
    tracer = Tracer()
    with tracer.installed():
        WORKLOADS["sweep_small_k"].call(1, 20, tmp_path, 1)
    assert tracer.call_counts()["montecarlo.evaluate_mode"] == 40  # 20 trials x 2 modes
    assert tracer.counts["unassigned_beams"] > 0
