"""The stacked selection rules against the list-based oracle in ``reference``.

``qbc.best_beam``, ``scheduler.main_users`` and ``scheduler.per_beam`` run
on random stacks of several rows; the oracle walks each row as a plain
list. CQIs come from a small integer set, so ties are common: equal CQIs
on one beam, beams nobody reports, ties inside a pair and equal CQIs
across one user's beams. Each test counts the cases it met, so that a
draw without ties cannot pass it.
"""

import numpy as np

import reference
from coopfb import qbc, scheduler
from coopfb.qbc import CsiReport


def levels(rng, shape):
    """CQI-like values from {0, 1, 2, 3}."""
    return rng.integers(0, 4, shape).astype(float)


def test_best_beam_matches_first_max():
    rng = np.random.default_rng(101)
    tied_beams = 0
    for _ in range(200):
        r, k, m = (int(x) for x in rng.integers([2, 1, 1], [5, 9, 6]))
        sig, intf = levels(rng, (r, k, m)), levels(rng, (r, k, m))
        noise = rng.integers(1, 3, (r, 1, 1)).astype(float)
        beam, cqi = qbc.best_beam(sig, intf, noise)
        assert beam.shape == cqi.shape == (r, k)
        for i in range(r):
            for u in range(k):
                values = [sig[i, u, b] / (noise[i, 0, 0] + intf[i, u, b]) for b in range(m)]
                want = reference.first_max(values)
                assert beam[i, u] == want
                assert cqi[i, u] == values[want]
                tied_beams += values.count(values[want]) > 1
    assert tied_beams > 200


def test_best_beam_nan_row():
    # A NaN CQI is the row's argmax and its CQI, as the first maximum.
    sig = np.array([[1.0, np.nan, 3.0, np.nan], [2.0, 1.0, 2.0, 0.0]])
    beam, cqi = qbc.best_beam(sig, np.zeros_like(sig), 1.0)
    assert beam.tolist() == [1, 0]
    assert np.isnan(cqi[0]) and cqi[1] == 2.0


def test_main_users_match_pair_rule():
    rng = np.random.default_rng(102)
    tied_pairs = 0
    for _ in range(200):
        r, pairs = (int(x) for x in rng.integers([2, 1], [5, 8]))
        cqi = levels(rng, (r, 2 * pairs))
        got = scheduler.main_users(cqi)
        want = [[2 * p + reference.main_user(cqi[i, 2 * p], cqi[i, 2 * p + 1]) for p in range(pairs)] for i in range(r)]
        assert got.tolist() == want
        tied_pairs += int(np.sum(cqi[:, 0::2] == cqi[:, 1::2]))
    assert tied_pairs > 300


def test_per_beam_matches_list_schedule():
    rng = np.random.default_rng(103)
    tied_beams = unreported = 0
    for _ in range(300):
        r, n, m = (int(x) for x in rng.integers([2, 0, 1], [5, 10, 6]))
        beam = rng.integers(0, m, (r, n))
        cqi = levels(rng, (r, n))
        got = scheduler.per_beam(beam, cqi, m)
        assert got.shape == (r, m)
        for i in range(r):
            want = reference.schedule([(j, int(beam[i, j]), float(cqi[i, j])) for j in range(n)], m)
            assert got[i].tolist() == [-1 if w is None else w for w in want]
            unreported += want.count(None)
            for b in range(m):
                on_beam = cqi[i, beam[i] == b]
                tied_beams += on_beam.size > 1 and np.sum(on_beam == on_beam.max()) > 1
    assert tied_beams > 100 and unreported > 100


def test_schedule_users_matches_list_schedule():
    # Shuffled, non-contiguous user indices: the winner's index maps back
    # to the user, and ties go to the lowest user, not the first report.
    # Some lists are empty, which leaves every beam unassigned.
    rng = np.random.default_rng(104)
    for _ in range(300):
        users = rng.permutation(20)[: int(rng.integers(0, 10))]
        entries = [(int(u), int(rng.integers(0, 4)), float(rng.integers(0, 3))) for u in users]
        reports = [CsiReport(user=u, beam=b, cqi=c, combiner=np.ones(2)) for u, b, c in entries]
        assert scheduler.schedule_users(reports, 4).assignment == reference.schedule(entries, 4)
