"""Host-speed probe: fixed work, independent of paulidyn, timed around each analysis.

The benchmark was built on two vCPUs shared with other tenants. There, the
speed of the host drifts by tens of percent over minutes. Ten runs of one
workload made in a slow stretch and then a quiet one read up to 30 % apart,
with no change to the program. So the run times this probe before and after
every analysis. It reports each analysis time in seconds at the reference host
speed (set-up has its own reference, see ``run.measure_setup``):

    normalized = wall time / (mean probe time around it / REFERENCE_S)

The probe mixes what an analysis does: small stacked LAPACK calls, small
contractions and an interpreted recursive walk. It calls no paulidyn code, so a
change to the program cannot move it. Raw wall times are reported next to the
normalized ones.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

#: median probe time on a 2-vCPU virtual machine shared with other tenants, quiet period
REFERENCE_S = 0.0085


def _tree(depth: int):
    return ("+", _tree(depth - 1), ("*", 1.5, _tree(depth - 1))) if depth else 0.25


def _walk(node, t: float) -> float:
    if isinstance(node, tuple):
        a, b = _walk(node[1], t), _walk(node[2], t)
        return a + b if node[0] == "+" else a * b * 0.5
    return node * t


class HostSpeed:
    """Times a fixed piece of work; ``factor()`` > 1 means the host is slow now."""

    def __init__(self):
        rng = np.random.default_rng(0)
        g = rng.standard_normal((16, 4, 4)) + 1j * rng.standard_normal((16, 4, 4))
        self._mats = g + np.conj(np.swapaxes(g, -1, -2))
        self._tree = _tree(7)

    def _work(self) -> float:
        acc = 0.0
        for _ in range(80):
            acc += float(np.linalg.eigvalsh(self._mats)[0, 0])
            acc += float(np.einsum("aij,ajk->ik", self._mats, self._mats).real[0, 0])
            acc += _walk(self._tree, 0.5)
        return acc

    def factor(self) -> float:
        """Median of three probe timings over ``REFERENCE_S``."""
        times = []
        for _ in range(3):
            t0 = perf_counter()
            self._work()
            times.append(perf_counter() - t0)
        return statistics.median(times) / REFERENCE_S
