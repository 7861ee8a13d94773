"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared host, load from other tenants slows every kernel by 20-55% for
stretches of seconds to minutes. Timing this kernel between short segments of
work (``Segments``) gives each segment's slowdown factor against a fixed
reference speed, and the end-to-end times are divided by it. The kernel mixes the kinds of work the
program does: a float32 GEMM, float64 elementwise passes over a 16 MB array,
a broadcast (N, K, p) distance like the quantizer's, an FFT, and a pure-Python
loop. Neither the program nor the seed changes it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# reference_seconds() as measured on the 2-vCPU host the benchmark was sized
# on (16-17 ms in a quiet minute); normalized times read as times on that host
# running at that speed.
NOMINAL_S = 0.0175

_DATA: dict[str, np.ndarray] = {}


def _data() -> dict[str, np.ndarray]:
    if not _DATA:
        rng = np.random.default_rng(0x0CA1)
        _DATA.update(
            gemm=rng.standard_normal((384, 384)).astype(np.float32),
            flat=rng.standard_normal(2_000_000),
            rows=rng.standard_normal((64, 1, 256)),
            codes=rng.standard_normal((1, 512, 256)),
            frames=rng.standard_normal((400, 400)),
        )
    return _DATA


def _kernel_seconds() -> float:
    d = _data()
    t0 = time.perf_counter()
    for _ in range(4):
        d["gemm"] @ d["gemm"]
    np.exp(d["flat"]).sum()
    ((d["flat"] - 0.5) ** 2).sum()
    ((d["rows"][:24] - d["codes"]) ** 2).sum(axis=2).argmin(axis=1)
    np.fft.rfft(d["frames"][:150], n=1024, axis=1)
    total = 0
    for i in range(20_000):
        total += i & 7
    return time.perf_counter() - t0


def reference_seconds(repeats: int) -> float:
    """Median time of ``repeats`` runs of the kernel (each about 18 ms), so
    that one short burst of load does not set a segment's factor. The first
    call also runs it three times untimed: its first runs fault in memory."""
    if not _DATA:
        for _ in range(3):
            _kernel_seconds()
    return statistics.median(_kernel_seconds() for _ in range(repeats))


class Segments:
    """Times of consecutive units of work, normalized per segment of ``every``
    units: the reference kernel runs before the first unit, after every
    ``every`` units and at ``close``, and each unit time is divided by the mean
    slowdown of the two runs around its segment. ``slowdowns`` keeps every
    factor measured, ``spent`` the seconds the reference runs took. With
    ``measure=False`` nothing runs and the times stay as given."""

    def __init__(self, every: int, measure: bool = True):
        self.every, self.measure = every, measure
        self.times: list[float] = []
        self.slowdowns: list[float] = []
        self.spent = 0.0
        self._open: list[float] = []
        self._sample()

    def _sample(self) -> None:
        if self.measure:
            t0 = time.perf_counter()
            self.slowdowns.append(reference_seconds(repeats=3) / NOMINAL_S)
            self.spent += time.perf_counter() - t0

    def add(self, seconds: float) -> None:
        self._open.append(seconds)
        if len(self._open) >= self.every:
            self.close()

    def close(self) -> None:
        if self._open:
            self._sample()
            factor = (self.slowdowns[-2] + self.slowdowns[-1]) / 2.0 if self.measure else 1.0
            self.times += [t / factor for t in self._open]
            self._open = []

    def mean_slowdown(self) -> float:
        return sum(self.slowdowns) / len(self.slowdowns) if self.slowdowns else 1.0
