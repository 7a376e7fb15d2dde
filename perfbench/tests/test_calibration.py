"""The host-speed kernel."""

import math
import os

import calibration


def test_host_speed_is_finite_and_reaps_its_children():
    for processes in (1, 2):
        speed = calibration.host_speed(processes)
        assert math.isfinite(speed) and speed > 0.0
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        pass  # no child left to reap
    else:
        raise AssertionError("host_speed left a child process behind")
