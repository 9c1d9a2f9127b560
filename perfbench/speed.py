"""Host-speed probe: scales wall times to a fixed reference speed.

The benchmark runs on a few CPUs of a shared host whose speed drifts by
up to a factor of two over tens of seconds (other tenants contend for
cores, caches and memory).  A fixed computation timed between jobs does
not follow that drift, because it changes within one job.  So one small
sampler process runs on each CPU the job uses, for the whole run, and
every 20 ms times a fixed burst of work.  The burst is made of the
kinds of work the workload's jobs do (``PARTS``): an interpreter loop,
a random walk over a 12 MB list of Python ints, a read of 1 MB streamed
from a 64 MB array.  A burst takes 0.2 to 0.4 ms, so a sampler takes 1
to 2% of a CPU.

A timed window (a job, a set-up probe) is then scaled by the host speed
measured during that window::

    scaled_s = wall_s / slowdown
    slowdown = burst_s / reference_s

where ``burst_s`` is the trimmed mean burst time of the samples taken in
the window and ``reference_s`` the burst's time on a quiet reference
host (the sum of its parts' ``PARTS`` times).  ``scaled_s`` is the
window's time at the reference speed.  Program changes do not touch the
burst, so they move ``scaled_s`` as they move the wall time.

Run as a script, this file is one sampler::

    python3 perfbench/speed.py --cpu 0 --parts loop,walk
"""

from __future__ import annotations

import bisect
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

#: Burst parts and their times, rounded, on the reference host (2 vCPUs
#: of an Intel Xeon) while it ran fastest.  They only set the scale of
#: scaled times; changing them shifts every scaled figure.
PARTS = {"loop": 100e-6, "walk": 120e-6, "stream": 160e-6}
#: Pause between bursts.
PERIOD_S = 0.02
#: Share of the slowest and of the fastest bursts a window ignores.
TRIM = 0.05
#: A window needs this many bursts (a tenth of a second of samples).
MIN_SAMPLES = 5

_WALK_SIZE = 300_000
_WALK_STEPS = 400
_LOOP_STEPS = 300
_STREAM_SIZE = 8 << 20
_STREAM_STEP = 128 << 10


def _walk_order(size: int, steps: int) -> list[int]:
    """A fixed pseudo-random visiting order (a 32-bit LCG, no RNG state)."""
    order, state = [], 12345
    for _ in range(steps * 250):
        state = (1103515245 * state + 12345) & 0x7FFFFFFF
        order.append(state % size)
    return order


def _loop() -> None:
    acc, table = 0, {}
    for i in range(_LOOP_STEPS):
        key = (i * 7919) % 211
        table[key] = table.get(key, 0) + i
        acc += key * i if key & 1 else -key


def _walker():
    cells = [10**6 + i for i in range(_WALK_SIZE)]
    order = _walk_order(_WALK_SIZE, _WALK_STEPS)
    offset = 0

    def walk() -> None:
        nonlocal offset
        acc = 0
        for index in order[offset:offset + _WALK_STEPS]:
            acc += cells[index]
        offset = (offset + _WALK_STEPS) % (len(order) - _WALK_STEPS)

    return walk


def _streamer():
    import numpy

    data = numpy.arange(_STREAM_SIZE, dtype=numpy.float64)
    offset = 0

    def stream() -> None:
        nonlocal offset
        data[offset:offset + _STREAM_STEP].sum()
        offset = (offset + _STREAM_STEP) % _STREAM_SIZE

    return stream


def sample(cpu: int, parts: list[str]) -> int:
    """Time bursts on ``cpu`` until SIGTERM, then print the samples."""
    os.sched_setaffinity(0, {cpu})
    makers = {"loop": lambda: _loop, "walk": _walker, "stream": _streamer}
    burst = [makers[part]() for part in parts]
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    clock, samples, parent = time.perf_counter, [], os.getppid()
    print("ready", flush=True)
    # A sampler whose benchmark died without stopping it stops itself.
    while not stop.wait(PERIOD_S) and os.getppid() == parent:
        began = clock()
        for part in burst:
            part()
        samples.append((began, clock() - began))
    sys.stdout.write("".join(f"{t!r} {d!r}\n" for t, d in samples))
    return 0


class HostSpeed:
    """Samplers on ``cpus`` for the life of the context."""

    def __init__(self, cpus, parts) -> None:
        self.cpus = sorted(cpus)
        self.parts = list(parts)
        self.reference_s = sum(PARTS[part] for part in self.parts)
        self._children: list[subprocess.Popen] = []
        self._times: list[float] = []
        self._bursts: list[float] = []

    def __enter__(self) -> "HostSpeed":
        try:
            for cpu in self.cpus:
                child = subprocess.Popen(
                    [sys.executable, str(Path(__file__).resolve()),
                     "--cpu", str(cpu), "--parts", ",".join(self.parts)],
                    stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
                )
                self._children.append(child)
                if child.stdout.readline().strip() != "ready":
                    raise RuntimeError(f"speed sampler on CPU {cpu} did not start")
        except BaseException:
            self._stop()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._stop()

    def _stop(self) -> None:
        samples = []
        # A signal, not EOF on a pipe: forked pool workers hold copies
        # of the parent's pipe ends.
        for child in self._children:
            child.terminate()
        for child in self._children:
            try:
                out, _ = child.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
                continue
            for line in out.splitlines():
                began, seconds = line.split()
                samples.append((float(began), float(seconds)))
        self._children = []
        samples.sort()
        self._times = [t for t, _ in samples]
        self._bursts = [d for _, d in samples]

    def burst_s(self, began: float, ended: float) -> float:
        """Trimmed mean burst time of the samples taken in a window."""
        lo = bisect.bisect_left(self._times, began)
        hi = bisect.bisect_right(self._times, ended)
        window = sorted(self._bursts[lo:hi])
        if len(window) < MIN_SAMPLES:
            raise RuntimeError(f"{len(window)} speed samples in a {ended - began:.3f} s window")
        cut = int(len(window) * TRIM)
        return statistics.fmean(window[cut:len(window) - cut])

    def slowdown(self, began: float, ended: float) -> float:
        """How much slower than the reference the host ran in a window."""
        return self.burst_s(began, ended) / self.reference_s


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description="One host-speed sampler.")
    parser.add_argument("--cpu", type=int, required=True)
    parser.add_argument("--parts", required=True)
    args = parser.parse_args(argv)
    parts = args.parts.split(",")
    unknown = set(parts) - set(PARTS)
    if unknown:
        parser.error(f"unknown burst parts {sorted(unknown)}")
    return sample(args.cpu, parts)


if __name__ == "__main__":
    sys.exit(main())
