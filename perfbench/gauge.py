"""Machine-speed gauge for the timed passes of the pairs workloads.

On a shared machine the same Python code runs at changing speed: a fixed
pure-Python loop on 2 vCPUs of an Intel Xeon took from 7.4 to 13 ms per
call, and its median over 2-second windows moved by 30% within a minute.
Such swings move every timing of a run together.

The gauge runs a fixed reference loop, which calls no ellog code, right
after each operation it gauges, for a fixed share (DUTY) of that
operation's CPU time.  The reference work is thus spread over the run in
proportion to the program's work.  The reference units run just before
and just after an operation say how fast the machine was while it ran;
dividing its CPU time by that ``slowness`` gives its time at reference
speed, where one reference unit costs REF_UNIT_S.

Code does not all slow down alike: a loop of small-int arithmetic alone
over-corrected the (5, 9) pairs, which mostly build small objects.  So
the reference unit does both.  Over eight passes of the same pairs,
minutes apart, an object-heavy reference cut the quartile spread of the
pass CPU time from 0.22 to 0.02 at (5, 9) and from 0.16 to 0.03 at
(11, 13).

The garbage collector is off while the reference loop runs, and the loop
frees what it allocates, so the program's heap does not change its cost.
It shares the process with the program, so anything the program does to
the whole interpreter (a trace hook, a busy thread) slows both and
cancels out; the wall-clock medians and the run's mean slowness are in
the details for that reason.
"""

from __future__ import annotations

import gc
import time

cpu = time.process_time

# CPU time of one reference unit at reference speed; on 2 vCPUs of an
# Intel Xeon with Python 3.11 the unit took 0.12 to 0.25 ms
REF_UNIT_S = 0.20e-3
# share of each gauged operation's CPU time spent on the reference loop
DUTY = 0.1


class _Term:
    __slots__ = ("deg", "coef")

    def __init__(self, deg: int, coef: int):
        self.deg = deg
        self.coef = coef

    def times(self, other: "_Term", p: int) -> "_Term":
        return _Term(self.deg + other.deg, self.coef * other.coef % p)


def _reference_work() -> int:
    # object-heavy part: a product of two small polynomials held as term
    # objects, collected in a dict and frozen to a sorted tuple
    p = 5
    a = [_Term(i, (3 * i + 1) % p) for i in range(12)]
    b = [_Term(i, (2 * i + 3) % p) for i in range(12)]
    acc: dict[int, int] = {}
    for x in a:
        for y in b:
            t = x.times(y, p)
            acc[t.deg] = (acc.get(t.deg, 0) + t.coef) % p
    frozen = tuple(sorted(acc.items()))
    # arithmetic part: small-int arithmetic and list indexing
    h = 0
    buf = list(range(256))
    for i in range(600):
        j = i & 255
        h = (h * 31 + buf[j]) % 1000003
        buf[j] = h
    return hash(frozen) ^ h


def reference_unit() -> int:
    """The fixed reference work, an object-heavy and an arithmetic part.

    Its objects are freed before it returns, and the garbage collector is
    off while it runs, so it neither triggers nor pays for a collection
    of the program's heap."""
    was_on = gc.isenabled()
    gc.disable()
    try:
        return _reference_work()
    finally:
        if was_on:
            gc.enable()


class Gauge:
    """Reference units run, and the CPU time they took."""

    def __init__(self):
        self.units = 0
        self.seconds = 0.0
        self._last: tuple[int, float] | None = None

    def after(self, cost: float) -> float:
        """Run reference units for DUTY * `cost` seconds, at least one.

        Returns the slowness around the operation just gauged: over these
        units and the ones run just before it."""
        spent, units = 0.0, 0
        while True:
            c0 = cpu()
            reference_unit()
            spent += cpu() - c0
            units += 1
            if spent >= DUTY * cost:
                break
        self.units += units
        self.seconds += spent
        before = self._last or (0, 0.0)
        self._last = (units, spent)
        return slowness(before[0] + units, before[1] + spent)


def slowness(units: int, seconds: float) -> float:
    """How much slower than reference speed the reference units ran."""
    return seconds / units / REF_UNIT_S
