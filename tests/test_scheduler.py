import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopfb.qbc import CsiReport
from coopfb.scheduler import ScheduleResult, schedule_users

Z = np.ones(2, dtype=complex)


def report(user, beam, cqi):
    return CsiReport(user=user, beam=beam, cqi=cqi, combiner=Z)


class TestScheduleUsers:
    def test_single_report(self):
        result = schedule_users([report(3, 2, 1.5)], 4)
        assert result.assignment == (None, None, 3, None)

    def test_higher_cqi_wins(self):
        result = schedule_users([report(0, 1, 3.0), report(1, 1, 2.0)], 4)
        assert result.assignment[1] == 0

    def test_tie_goes_to_lowest_user(self):
        result = schedule_users([report(5, 0, 2.0), report(2, 0, 2.0)], 4)
        assert result.assignment[0] == 2

    def test_rejects_out_of_range_beam(self):
        with pytest.raises(ValueError):
            schedule_users([report(0, 4, 1.0)], 4)

    def test_rejects_user_reporting_twice(self):
        with pytest.raises(ValueError, match="more than once"):
            schedule_users([report(0, 0, 3.0), report(0, 1, 3.0), report(1, 1, 1.0)], 4)

    def test_rejects_nan_cqi(self):
        with pytest.raises(ValueError, match="not a finite number"):
            schedule_users([report(0, 0, float("nan")), report(1, 0, 1.0)], 4)

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            n_users = int(rng.integers(1, 12))
            reports = [
                report(u, int(rng.integers(0, 4)), float(rng.exponential()))
                for u in range(n_users)
            ]
            result = schedule_users(reports, 4)
            for beam in range(4):
                candidates = [r for r in reports if r.beam == beam]
                if not candidates:
                    assert result.assignment[beam] is None
                    continue
                best = max(candidates, key=lambda r: (r.cqi, -r.user))
                assert result.assignment[beam] == best.user

    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(1, 2**40)),
            min_size=1,
            max_size=16,
        ),
        st.sampled_from([2.0**e for e in range(-8, 9)]),
    )
    @settings(max_examples=100, deadline=None)
    def test_invariant_under_uniform_rescaling(self, entries, scale):
        # Power-of-two scales keep float ordering exact, so the argmax
        # invariance can be asserted without rounding caveats.
        reports = [report(u, beam, float(cqi)) for u, (beam, cqi) in enumerate(entries)]
        rescaled = [report(u, beam, float(cqi) * scale) for u, (beam, cqi) in enumerate(entries)]
        assert schedule_users(reports, 4).assignment == schedule_users(rescaled, 4).assignment

    def test_each_user_appears_at_most_once(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            reports = [
                report(u, int(rng.integers(0, 4)), float(rng.exponential()))
                for u in range(10)
            ]
            assignment = schedule_users(reports, 4).assignment
            assigned = [u for u in assignment if u is not None]
            assert len(assigned) == len(set(assigned))

    def test_large_user_pool_rarely_leaves_beams_empty(self):
        # With 8*m reporters spread over m beams, empty beams are rare.
        rng = np.random.default_rng(29)
        empty = total = 0
        for _ in range(500):
            reports = [
                report(u, int(rng.integers(0, 4)), float(rng.exponential()))
                for u in range(32)
            ]
            assignment = schedule_users(reports, 4).assignment
            empty += sum(1 for u in assignment if u is None)
            total += 4
        assert empty / total < 0.01
