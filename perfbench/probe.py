"""Machine-speed probe for normalising timings.

The machine this benchmark was built on runs the same code at speeds that
drift by up to 2x over tens of seconds, as neighbouring load comes and
goes. A fixed piece of pure-Python work that touches nothing of the
program is timed right before and right after each operation. Every operation's wall time is scaled by
`REFERENCE_S / probe`. The result is the time the operation would take on a
machine where the probe takes `REFERENCE_S`. The probe runs outside the
operation's timed interval and is the same on every commit, so it cancels
machine drift and hides no change in the program.
"""

import time

ROWS = 500
# Probe time on the reference machine (2 cores, Python 3.11.7) in its
# fast phase; normalised timings read as wall time on that machine.
REFERENCE_S = 0.25e-3


def _work() -> int:
    # Small tuples and a dict, like the program's message handling: this
    # tracks the program's speed better than arithmetic alone.
    rows = [tuple(range(n % 7, n % 7 + 28)) for n in range(ROWS)]
    return len({n: row for n, row in enumerate(rows)})


def speed_probe() -> float:
    """Seconds for the fixed probe work, best of three."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _work()
        best = min(best, time.perf_counter() - start)
    return best


def scale(seconds: float, probe_s: float) -> float:
    """Wall time `seconds`, measured when the probe read `probe_s`, at
    reference speed."""
    return seconds * REFERENCE_S / probe_s
