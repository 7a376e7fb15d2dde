"""Each output check passes on the program's output and rejects a perturbed one."""

import csv
import json

import numpy as np
import pytest

import checks
from coopfb import cli, montecarlo
from coopfb.model import SystemConfig
from workloads import PER_USER, run_per_user


def _cli(tmp_path, *argv):
    assert cli.run(list(argv) + ["--out-dir", str(tmp_path)]) == 0
    return tmp_path


def _edit_csv(path, column, row, edit):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    i = rows[0].index(column)
    rows[row + 1][i] = edit(rows[row + 1][i])
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


@pytest.mark.parametrize("n, bcl", [(3, 6), (2, 8)])
def test_engine_check_rejects_scaled_interference(n, bcl):
    cfg = SystemConfig(m=4, n=n, k=16, bcl=bcl, trials=1, seed=5)
    rho_lin = 10.0 ** (np.arange(-5.0, 26.0, 5.0) / 10.0)
    ws = montecarlo.build_workspace(cfg, 0, coop=True, conv=True)
    assert checks.compare_trial(ws, rho_lin)[1] == []
    ws.coop.intf_dl *= 1.001
    bad = checks.compare_trial(ws, rho_lin)[1]
    assert bad and all("cooperative" in line for line in bad)
    ws.coop.intf_dl /= 1.001
    ws.conv.intf = ws.conv.intf * 1.001
    bad = checks.compare_trial(ws, rho_lin)[1]
    assert bad and all("conventional" in line for line in bad)


def test_fig8_checks_reject_wrong_mean_and_adaptive(tmp_path):
    out = _cli(tmp_path, "fig8", "--trials", "4", "--seed", "2")
    assert checks.check_rate_fig8(out, 2, 4) == []
    _edit_csv(out / "fig8.csv", "rate_coop", 12, lambda v: repr(float(v) * (1 + 1e-9)))
    assert any("rate_coop" in line for line in checks.check_rate_fig8(out, 2, 4))

    out = _cli(tmp_path / "b", "fig8", "--trials", "4", "--seed", "2")
    decisions = json.loads((out / "fig8.json").read_text())["aggregates"]["decisions"]
    flip = next(db for db, mode in decisions.items() if mode == "cooperative")
    decisions[flip] = "conventional"
    with open(out / "fig8.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    col = {name: [r[i] for r in rows[1:]] for i, name in enumerate(rows[0])}
    assert checks.check_adaptive(col, decisions) != []


def test_sweep_check_rejects_wrong_mean(tmp_path):
    argv = ["sweep", "--mode", "cooperative", "--mode", "conventional", "--rho-db", "0..20..5"]
    out = _cli(tmp_path, *argv, "--trials", "6", "--seed", "4")
    assert checks.check_sweep_small_k(out, 4, 6) == []
    _edit_csv(out / "sweep.csv", "sum_rate", 7, lambda v: repr(float(v) * (1 + 1e-9)))
    assert checks.check_sweep_small_k(out, 4, 6) != []


def test_fig6_check_rejects_shifted_model_value(tmp_path):
    out = _cli(tmp_path, "fig6", "--trials", "300", "--seed", "3")
    assert checks.check_pairs_fig6(out) == []
    _edit_csv(out / "fig6.csv", "cdf_model", 250, lambda v: repr(float(v) + 1e-6))
    bad = checks.check_pairs_fig6(out)
    assert len(bad) == 1 and "cdf_model" in bad[0]


def test_fig6_check_rejects_decreasing_empirical_cdf(tmp_path):
    out = _cli(tmp_path, "fig6", "--trials", "300", "--seed", "3")
    _edit_csv(out / "fig6.csv", "cdf_approx", 100, lambda v: "0.0")
    assert any("cdf_approx" in line for line in checks.check_pairs_fig6(out))


def test_exact_law_quadrature_reduces_to_gamma_when_n_is_m_minus_one():
    from scipy import special

    assert checks.exact_law_cdf(2.0, 4, 3, 10.0, 1.5, 0.7) == pytest.approx(
        special.gammainc(1, 2.0 / (10.0 / 6.0 * 0.7)), rel=1e-14
    )


def test_per_user_check_rejects_swapped_schedule_and_bad_recombination():
    trials = run_per_user(seed=6, trials=3)
    assert checks.check_per_user(trials, PER_USER["m"]) == []

    tr = trials[0]
    served = [b for b, u in enumerate(tr.assignment) if u is not None]
    swapped = list(tr.assignment)
    swapped[served[0]], swapped[served[1]] = swapped[served[1]], swapped[served[0]]
    bad_schedule = [tr.__class__(**{**vars(tr), "assignment": tuple(swapped)})]
    assert any("scheduled" in line for line in checks.check_per_user(bad_schedule, PER_USER["m"]))

    beam, recombined, simulated = tr.decompositions[0]
    decs = [(beam, recombined * (1 + 1e-8), simulated)] + tr.decompositions[1:]
    bad_terms = [tr.__class__(**{**vars(tr), "decompositions": decs})]
    assert any("recombined" in line for line in checks.check_per_user(bad_terms, PER_USER["m"]))
