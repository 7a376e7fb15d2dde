"""The selection rules after each user's beam pick (:func:`qbc.best_beam`),
for stacks: each pair's main user and one reporter per beam by CQI. The
per-user functions run them on a stack of one."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .qbc import CsiReport


@dataclass(frozen=True)
class ScheduleResult:
    """Beam-to-user assignment; ``assignment[beam]`` is None when nobody
    reported that beam."""

    assignment: tuple[Optional[int], ...]
    mode: str = "conventional"


def main_users(cqi: np.ndarray) -> np.ndarray:
    """Main user of each pair (even, even+1) over the last axis of ``cqi``;
    the even user wins on ``>=``."""
    evens = np.arange(0, cqi.shape[-1], 2)
    return np.where(cqi[..., 0::2] >= cqi[..., 1::2], evens, evens + 1)


def per_beam(beam: np.ndarray, cqi: np.ndarray, num_beams: int) -> np.ndarray:
    """Each beam's reporter ``(r, num_beams)`` with the largest CQI among
    stacked reports ``(r, reporters)``: the lowest index on a tie, -1 on a
    beam nobody reports."""
    if not beam.shape[-1]:  # argmax needs a reporter
        return np.full(beam.shape[:-1] + (num_beams,), -1, dtype=np.int64)
    mask = beam[..., None, :] == np.arange(num_beams)[:, None]  # (r, num_beams, reporters)
    pick = np.argmax(np.where(mask, cqi[..., None, :], -np.inf), axis=-1)  # first max
    return np.where(mask.any(axis=-1), pick, -1)


def schedule_users(reports: Iterable[CsiReport], num_beams: int, mode: str = "conventional") -> ScheduleResult:
    """:func:`per_beam` on the reports sorted by user: ties go to the lowest user. Each
    user may report once, on one beam, so no user can win two beams."""
    reports = sorted(reports, key=lambda r: r.user)
    for i, report in enumerate(reports):
        if not 0 <= report.beam < num_beams:
            raise ValueError(f"report for user {report.user} names beam {report.beam} outside 0..{num_beams - 1}")
        if i and report.user == reports[i - 1].user:
            raise ValueError(f"user {report.user} reports more than once")
        if not np.isfinite(report.cqi):
            raise ValueError(f"report for user {report.user} has CQI {report.cqi}, not a finite number")
    winners = per_beam(np.array([[r.beam for r in reports]]), np.array([[r.cqi for r in reports]]), num_beams)[0]
    return ScheduleResult(tuple(reports[i].user if i >= 0 else None for i in winners), mode)
