"""Machine-speed gauge: turns wall time into seconds at reference speed.

The benchmark runs on shared 2-core machines whose single-core speed swings
by up to 2x for seconds at a time, because of load the benchmark does not
control. A fixed pure-Python routine, timed just before every request (off
the clock), tracks that speed. Each request's wall time is multiplied by
REFERENCE_S / (median routine time over the requests around it), giving the
time the request would have taken with the routine running at exactly
REFERENCE_S. On a boundary-workload pass this cut the pass-to-pass
coefficient of variation from 14% to about 3.5%. Raw wall times are kept in
every record next to the scaled ones.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

# Nominal duration of one reference routine; about what it takes on an idle
# core of the 2-core machine this benchmark was written on.
REFERENCE_S = 0.004
# Readings on each side of a request that enter its median.
WINDOW = 3


@dataclass(frozen=True)
class _Cell:
    t: int
    p: int
    text: str

    @property
    def even(self) -> bool:
        return self.p % 2 == 0


_CELLS = tuple(_Cell(i % 7, i, f"cell {i}") for i in range(8))


def reference_work() -> int:
    """Fixed work mixing what the program does: frozen dataclasses and
    f-strings, dict and tuple churn, a keyed sort, recursive calls with
    property access, and a few MB of short-lived objects. Each kind slows by
    a different amount under contention, so the mix tracks the program
    better than any one of them (measured against `solve` and `encode`)."""
    cells = [_Cell(i % 7, i, f"cell {i} at {i % 7}") for i in range(220)]
    index = {(c.t, c.p): c for c in cells}
    ordered = sorted(cells, key=lambda c: (c.t, -c.p))
    table = {}
    for i in range(750):
        row = (i, i * 3 % 17, str(i))
        table[row[1], i & 7] = row

    def walk(depth: int, row: tuple) -> int:
        if depth == 0:
            return sum(1 for c in row if c.even)
        return sum(walk(depth - 1, row + (c,)) for c in _CELLS[:4])

    items = [(i, str(i), (i, i + 1)) for i in range(5000)]
    names = {item[1]: item for item in items}
    return len(index) + len(ordered) + len(table) + walk(4, ()) + len(names)


class Gauge:
    def __init__(self) -> None:
        self.readings: list[float] = []

    def read(self) -> None:
        """Times the reference routine once and keeps the reading."""
        start = time.perf_counter()
        reference_work()
        self.readings.append(time.perf_counter() - start)

    def factors(self) -> list[float]:
        """Scale factor for the interval after each reading."""
        r = self.readings
        return [
            REFERENCE_S / statistics.median(r[max(0, i - WINDOW): i + WINDOW + 1])
            for i in range(len(r))
        ]
