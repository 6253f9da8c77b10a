"""How fast the machine runs while a round runs, from a fixed kernel of
the benchmark's own code.

On a shared machine the same work can take a third more or less time
from one minute to the next, as other tenants load the cores, while
the rounds within one run agree.  `Probe` samples the machine's speed
during a round: a timer signal interrupts the round every `INTERVAL_S`
seconds and times one call of a fixed kernel (GF(5) generated
subalgebras with bench/oracle.py: small numpy arrays driven from
Python, like the library's own code, but none of the library's code,
so a change to liesublat cannot change it).  run.py scales the round's
time by `REFERENCE_S` over the mean kernel time, so that `wall_s` reads
the round's time at the reference speed.
"""

from __future__ import annotations

import signal
import time

import numpy as np

import oracle

#: mean time of one `kernel()` call on the machine of the reference
#: figures (2-core Xeon at 2.0 GHz, Python 3.11.7, numpy 2.4.6)
REFERENCE_S = 3.0e-3
#: time between two kernel calls during a round
INTERVAL_S = 0.2

_P = 5
_N = 6


def _inputs():
    rng = np.random.default_rng(20080410)
    t = rng.integers(0, _P, size=(_N, _N, _N))
    t = (t - t.transpose(1, 0, 2)) % _P             # antisymmetric: [x, x] = 0
    return t, [rng.integers(0, _P, size=(2, _N)) for _ in range(3)]


_TENSOR, _SEEDS = _inputs()


def kernel() -> None:
    for rows in _SEEDS:
        oracle.generated(_TENSOR, _P, rows)


class Probe:
    """Within a `with` block, time one kernel call every `INTERVAL_S`
    seconds of wall time; `samples` holds the kernel times."""

    def __init__(self):
        self.samples: list[float] = []
        self._saved = None

    def _tick(self, signum, frame) -> None:
        t = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t)

    def __enter__(self) -> "Probe":
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._saved)

    def scale(self, seconds: float) -> float:
        """`seconds` of this round, kernel calls taken out, at the reference speed."""
        if not self.samples:
            return seconds
        spent = sum(self.samples)
        return (seconds - spent) * REFERENCE_S * len(self.samples) / spent
