"""A fixed kernel that times the host, not coopfb.

The shared 2-vCPU host this benchmark was tuned on runs the same code up to
twice as fast in one minute as in the next, because of other tenants' load.
Ten runs of raw wall-clock trials/s spread by up to 0.32 of their median
(`per_user_link`), more than any bound allows, and longer runs did not narrow
it. So every timed call is bracketed by this kernel, and the call's rate is
divided by the host's relative speed measured around it (see
``measure.py``). The kernel depends on nothing in coopfb and never on the
seed, so a change to coopfb cannot move it.
"""

from __future__ import annotations

import os
import time

import numpy as np

REPS = 150
# Kernel time on this host when it is quiet; it only fixes the scale, so
# that a speed factor of 1 means "as fast as the reference host".
REFERENCE_S = 0.0090

_GEN = np.random.default_rng(2018)
_A = _GEN.standard_normal((16, 3, 4)) + 1j * _GEN.standard_normal((16, 3, 4))


def kernel_seconds() -> float:
    """Wall time of a fixed mix of small complex linear algebra and Python calls."""
    start = time.perf_counter()
    for _ in range(REPS):
        gram = _A @ _A.conj().transpose(0, 2, 1)
        np.linalg.solve(gram, _A[:, :, :1])
        np.linalg.qr(_A.transpose(0, 2, 1))
        sorted(range(64), key=lambda i: -i)
    return time.perf_counter() - start


def host_speed(processes: int = 1) -> float:
    """Mean relative speed of ``processes`` kernels run side by side.

    A call that spreads over several worker processes is as fast as the
    cores it uses together, so the kernel runs once in this process and once
    in each of ``processes - 1`` forked children at the same time.
    """
    children = []
    for _ in range(processes - 1):
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: time the kernel, report, leave without cleanup
            try:
                os.close(read_end)
                os.write(write_end, repr(kernel_seconds()).encode())
            finally:
                os._exit(0)
        os.close(write_end)
        children.append((pid, read_end))
    times = [kernel_seconds()]
    for pid, read_end in children:
        with os.fdopen(read_end, "rb") as fh:
            times.append(float(fh.read()))
        os.waitpid(pid, 0)
    return sum(REFERENCE_S / t for t in times) / len(times)
