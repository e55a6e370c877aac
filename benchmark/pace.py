"""Processor speed probe, so timings on a shared host can be compared.

On a host shared with other tenants the speed one core gives a process
wanders by up to 2x, in stretches of seconds to minutes, and a plain wall
time measures that as much as the program. ``probe_once`` times a fixed piece
of interpreter work that does not involve latentreg. ``Pace`` runs it from a
timer signal every ``INTERVAL_S`` inside the timed process, so it runs on the
core the workload runs on, and ``Pace.result`` rescales each stretch of the
workload between two probes by ``REFERENCE_S / probe time``: the stretch's
duration at the reference speed. A change to latentreg leaves the probe as it
is, so it shows in full in the rescaled time.

``setup_probe`` runs in the fresh interpreters that time ``import latentreg``:
probes just before and just after the import give the speed of that
interpreter's core. This module imports only modules an interpreter has
loaded at start or builds in, so it adds next to nothing to that time.
"""

import math
import signal
import time

ROUNDS = 6000
INTERVAL_S = 0.05
# probe_once() at the reference speed: its median on a 2-core x86-64 VM
# (CPython 3.11) in a fast stretch; the rescaled times are seconds at that speed
REFERENCE_S = 0.0012


def _probe_work() -> float:
    x, acc = 0.3, 0.0
    for i in range(ROUNDS):
        x = 3.9 * x * (1.0 - x)
        acc += math.log1p(x) * math.exp(-x) + (i & 7)
    return acc


def probe_once() -> float:
    """Seconds the fixed probe work takes now."""
    t0 = time.perf_counter()
    _probe_work()
    return time.perf_counter() - t0


def median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def _smooth(values: list[float], width: int = 5) -> list[float]:
    """Running median, so a probe hit by one interruption does not decide
    the speed of its stretch."""
    half = width // 2
    return [median(values[max(0, i - half):i + half + 1]) for i in range(len(values))]


class Pace:
    """Probes the processor's speed while a workload runs in this process.

    ``start`` takes a probe and arms a SIGALRM timer that takes one every
    ``INTERVAL_S``; ``stop`` disarms it and takes a last one. The probes'
    own wall and CPU time are left out of the workload's.
    """

    def __init__(self) -> None:
        self.probes: list[tuple[float, float, float]] = []  # start, end, cpu
        self._busy = False

    def _probe(self, *_args) -> None:
        if self._busy:
            return
        self._busy = True
        cpu0, t0 = time.process_time(), time.perf_counter()
        _probe_work()
        t1 = time.perf_counter()
        self.probes.append((t0, t1, time.process_time() - cpu0))
        self._busy = False

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._probe()

    def result(self, wall: float, cpu: float) -> dict:
        """The workload's times without the probes, raw and rescaled to the
        reference speed; ``wall`` and ``cpu`` were measured after ``start``
        and before ``stop``, so they hold every probe but the first and last."""
        durations = _smooth([end - start for start, end, _ in self.probes])
        scaled = 0.0
        for i in range(1, len(self.probes)):
            stretch = self.probes[i][0] - self.probes[i - 1][1]
            probe_s = 0.5 * (durations[i - 1] + durations[i])
            scaled += stretch * REFERENCE_S / probe_s
        inner = self.probes[1:-1]
        raw_wall = wall - sum(end - start for start, end, _ in inner)
        raw_cpu = cpu - sum(c for _, _, c in inner)
        factor = scaled / raw_wall if raw_wall > 0 else math.nan
        return {"wall_s": scaled, "cpu_s": raw_cpu * factor, "raw_wall_s": raw_wall,
                "raw_cpu_s": raw_cpu, "probes": len(self.probes),
                "probe_median_s": median(durations)}


def setup_probe(rounds: int = 3) -> None:
    """Import latentreg between two sets of probes and print the median
    probe time before and after it and the seconds all probes took."""
    before = [probe_once() for _ in range(rounds)]
    import latentreg  # noqa: F401  (the import being timed)
    after = [probe_once() for _ in range(rounds)]
    print(median(before), median(after), sum(before) + sum(after))
