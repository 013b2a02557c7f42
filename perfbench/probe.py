"""Reference kernels that measure how fast the machine runs at the moment.

On a shared machine the same computation can take twice as long from one
second to the next, because other tenants contend for the physical cores
and caches; this shows in CPU time as much as in wall time.  The benchmark
therefore samples the speed of the machine while it times a sample of
work: a timer signal runs two small fixed kernels, written in plain numpy
and independent of mechmorph, every ``INTERVAL_S`` seconds, and once more
right after the sample.  The sample's time, less the time spent in the
kernels, is divided by their mean slowdown over that span.  Reported times
thus read as seconds at the reference speed: a change to mechmorph moves
them, contention from outside mostly does not.

Two kernels cover the two kinds of work the library does: ``loop`` is a
Python loop of small-array FFTs and exponentials, like flow steps;
``dense`` is a symmetric eigensolve and a Galerkin-sized matrix product,
like a spectrum.  The two slow down by different amounts under the same
contention, so each stage names the mix that dominates it.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager
from time import perf_counter

import numpy as np

INTERVAL_S = 0.25
# fastest times of the two kernels seen on a 2-vCPU Xeon VM at 2.0 GHz with
# one BLAS thread; they fix the unit, not the comparison
LOOP_REF_S = 0.0024
DENSE_REF_S = 0.0078


class Probe:
    """Samples the slowdown of both kernels during and after timed work."""

    KINDS = ("loop", "dense")

    def __init__(self):
        # bound now, so that the kernels never run through trace wrappers
        self._rfft, self._irfft, self._eigh = np.fft.rfft, np.fft.irfft, np.linalg.eigh
        rng = np.random.Generator(np.random.PCG64(12345))
        self.vec = rng.standard_normal(256)
        sym = rng.standard_normal((200, 200))
        self.sym = sym + sym.T
        self.wide = rng.standard_normal((300, 1024))
        self.samples = {kind: [] for kind in self.KINDS}
        self.spent = 0.0

    def _loop(self) -> float:
        start = perf_counter()
        v = self.vec
        for _ in range(100):
            v = self._irfft(0.999 * self._rfft(v), 256)
            e = np.exp(v - v.max())
            v = 0.5 * v + 0.1 * e / e.mean()
        return (perf_counter() - start) / LOOP_REF_S

    def _dense(self) -> float:
        start = perf_counter()
        self._eigh(self.sym)
        (self.wide * self.wide[0]) @ self.wide.T
        return (perf_counter() - start) / DENSE_REF_S

    def sample(self, *_signal_args) -> None:
        """Time both kernels once; also the timer signal's handler."""
        start = perf_counter()
        self.samples["loop"].append(self._loop())
        self.samples["dense"].append(self._dense())
        self.spent += perf_counter() - start

    @contextmanager
    def sampling(self):
        """Sample every INTERVAL_S seconds inside the block (main thread only).

        The handler stays installed afterwards, so a signal that arrives
        as the timer stops only adds one more sample.
        """
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)

    def take(self) -> tuple[dict[str, list[float]], float]:
        """Return and clear the samples and the seconds spent taking them."""
        samples, spent = self.samples, self.spent
        self.samples = {kind: [] for kind in self.KINDS}
        self.spent = 0.0
        return samples, spent


def slowdown(samples: dict[str, list[float]], kinds: tuple[str, ...]) -> float:
    """Mean slowdown of the named kernels over one timed sample."""
    return sum(sum(samples[k]) / len(samples[k]) for k in kinds) / len(kinds)
