"""Host-speed probe: a fixed pure-Python loop, timed around pieces of work.

On a shared host the same code can run 1.6x faster or slower from one
second to the next (CPU time tracks wall time, so it is not time spent
descheduled).  The benchmark times a probe around each piece of work and
scales the piece's wall time by ``REF_S`` over the mean of the probes
before and after it.  The reported times are then wall times at the
probe's reference speed: a program that does its work in half the time
still reads half as long, but a host that runs everything slower for a
while does not.

The probe multiplies two small sparse polynomials held as dicts with tuple
keys, the shape of the program's own term arithmetic, so a slow period
slows it about as much as the program.  It runs no schubmc code, so no
change to the program can move it.  It runs with the garbage collector
off and frees all it allocates, so it starts no collection on the
program's heap.
"""

import gc
import signal
from time import perf_counter

# The probe's time at reference speed: its median time on the 2-core machine
# the benchmark was tuned on (Python 3.11), so reported times read close to
# the median wall times seen there.
REF_S = 0.00165
SPINS = 3
PRODUCTS = 10
_A = {((i, j, k), 0): 7 * i + 3 * j + k + 1 for i in range(3) for j in range(3) for k in range(2)}
_B = {((i, j, k), 0): i - j + 2 * k + 5 for i in range(2) for j in range(3) for k in range(3)}


def _spin():
    for _ in range(PRODUCTS):
        out = {}
        for (ea, ya), ca in _A.items():
            for (eb, yb), cb in _B.items():
                key = ((ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2]), ya + yb)
                out[key] = out.get(key, 0) + ca * cb
    return len(out)


def probe():
    """The probe's time now: the fastest of a few spins, so a spin that was
    interrupted does not count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = None
        for _ in range(SPINS):
            t0 = perf_counter()
            _spin()
            t = perf_counter() - t0
            best = t if best is None or t < best else best
    finally:
        if enabled:
            gc.enable()
    return best


class Clock:
    """Wall time, and wall time at reference speed, of the work between probes.

    ``mark()`` ends the current segment, probes, and starts the next one, so
    the probe's own time is in no segment; it is summed in ``probe_s``.  With
    ``period`` (seconds) a timer signal also marks every ``period`` while
    work runs in this process, so a long piece of work is scaled by the
    speed of each part of it.
    """

    def __init__(self, period=None):
        t0 = perf_counter()
        self.period = period
        self.wall = 0.0
        self.scaled = 0.0
        self._last_p = self._first_p = probe()
        self._last_t = perf_counter()
        self.probe_s = self._last_t - t0
        if period:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, period, period)

    def _tick(self, signum=None, frame=None):
        t = perf_counter()
        p = probe()
        seg = t - self._last_t
        self.wall += seg
        self.scaled += seg * 2 * REF_S / (self._last_p + p)
        self._last_p = p
        self._last_t = perf_counter()
        self.probe_s += self._last_t - t

    def mark(self):
        """Close the segment now; returns the totals (scaled, wall) so far."""
        if self.period:
            # restart the period, so no tick lands inside this mark
            signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        self._tick()
        return self.scaled, self.wall

    def snapshot(self):
        """Mark, and return the totals and the first and last probe times."""
        self.mark()
        return {"scaled": self.scaled, "wall": self.wall, "probe_s": self.probe_s,
                "first_p": self._first_p, "last_p": self._last_p}

    def stop(self):
        if self.period:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)


def child_time(wall, snap):
    """A child process's (scaled, wall) time from the wall time its parent
    measured and a snapshot of the child's clock, without the child's probes.
    The part the child's clock did not see (process start and exit) is
    scaled by the mean of the child's first and last probes."""
    outside = wall - snap["wall"] - snap["probe_s"]
    speed = 2 * REF_S / (snap["first_p"] + snap["last_p"])
    return outside * speed + snap["scaled"], wall - snap["probe_s"]
