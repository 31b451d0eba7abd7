"""Host timing that stays comparable on a shared, noisy machine.

On a host shared with other tenants the same work runs slower in bursts:
on a 2-CPU host, 20-ms samples of one fixed loop had per-20-second
medians that moved by +-12% while the per-20-second minima moved by
+-3%.  Interference only ever adds time, so the fastest of several
repeats of the same small piece of work is the steadiest estimate of
its cost, and the smaller the piece, the likelier one repeat ran
undisturbed.

So a batch is timed as many consecutive small *pieces* (about ten
milliseconds each where the work can be cut that finely), every batch of
a run repeats the same pieces, and a run takes, piece by piece, the
fastest of its batches.  A piece is tagged ``setup`` (network or engine
construction), ``work`` (the timed window) or ``other`` (warm-up, drain,
bookkeeping).

The host also changes speed for minutes at a time, which no estimate
within one run can see: within an hour the same batch took 3.5 s and
6.5 s.  So between batches a run also times a fixed pure-Python loop
(:func:`reference`) a few hundred times and scales its host times by
``REFERENCE_S`` over that loop's 1st-percentile time: the reported
seconds are those of a host on which the loop takes ``REFERENCE_S``.
Over 4.5 minutes of back-to-back batches in one process, the spread
(interquartile range over median) of 36-second estimates fell from 0.18
to 0.11 on ``rules_mesh`` and from 0.33 to 0.25 on ``rule_compile``: the
loop tracks the slow stretches only in part, because the program is
more sensitive to them than a loop that fits in cache.  The loop
belongs to the benchmark, so no change to the program can move it.
"""

from __future__ import annotations

import inspect
import time

clock = time.perf_counter

KINDS = ("setup", "work", "other")

#: nominal seconds of one :func:`reference` call (about its fastest
#: time on a quiet 2-vCPU x86-64 host under CPython 3.11)
REFERENCE_S = 0.0007


def reference() -> int:
    """Fixed pure-Python work: dictionary updates, integer arithmetic
    and string formatting."""
    table: dict[int, int] = {}
    total = 0
    for i in range(4000):
        key = i & 255
        table[key] = table.get(key, 0) + i
        total += len(str(i))
    return total


def time_reference(seconds: float = 0.3) -> list[float]:
    """Seconds of each :func:`reference` call over about ``seconds``."""
    times = []
    end = clock() + seconds
    while clock() < end:
        t0 = clock()
        reference()
        times.append(clock() - t0)
    return times


def host_scale(reference_times: list[float]) -> float:
    """Factor from this host's seconds to nominal seconds."""
    ordered = sorted(reference_times)
    return REFERENCE_S / ordered[len(ordered) // 100]


class Stopwatch:
    """Times the consecutive pieces of one batch.  Work the benchmark
    does not drive step by step (a compile, a network construction, a
    campaign) is cut into pieces by :meth:`split_every`."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self.kind: dict[str, str] = {}
        self._start = clock()
        self._phase = ("start", "other")
        self._splits = 0

    def phase(self, name: str, kind: str) -> None:
        """Name the pieces that :meth:`split_every` cuts from now on."""
        self._phase = (name, kind)
        self._splits = 0

    def lap(self, name: str, kind: str, seconds: float | None = None
            ) -> None:
        """Close the piece that began at the previous lap.  ``seconds``
        overrides its measured time (for a piece timed as the best of
        several repeats inside the batch)."""
        now = clock()
        self.seconds[name] = now - self._start if seconds is None \
            else seconds
        self.kind[name] = kind
        self._start = now

    def split(self) -> None:
        name, kind = self._phase
        self._splits += 1
        self.lap(f"{name}.{self._splits}", kind)

    def split_every(self, hooks, owner, attr: str, every: int) -> None:
        """Through ``hooks`` (a :class:`tracing.SpanRecorder`), close a
        piece after every ``every``-th call of ``owner.attr``, or every
        ``every``-th item it yields if it is a generator function."""
        count = [0]
        watch = self

        def tick():
            count[0] += 1
            if count[0] % every == 0:
                watch.split()

        def make(orig):
            if inspect.isgeneratorfunction(orig):
                def wrapper(*args, **kwargs):
                    for item in orig(*args, **kwargs):
                        yield item
                        tick()
            else:
                def wrapper(*args, **kwargs):
                    out = orig(*args, **kwargs)
                    tick()
                    return out
            return wrapper

        hooks.patch(owner, attr, make)

    def total(self) -> float:
        return sum(self.seconds.values())


def fastest(watches: list) -> dict:
    """Per kind (and ``"all"``), the sum over pieces of each piece's
    fastest time across repeated batches of the same work."""
    first = watches[0]
    best = {name: min(w.seconds[name] for w in watches)
            for name in first.kind}
    out = {kind: sum(v for n, v in best.items() if first.kind[n] == kind)
           for kind in KINDS}
    out["all"] = sum(best.values())
    return out
