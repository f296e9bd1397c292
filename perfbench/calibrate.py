"""Machine-speed calibration: timed end-to-end metrics are normalized.

This sandbox does not run at one speed.  It is two hyperthreads of a
shared host core, and for seconds to minutes at a time the same
single-threaded loop takes 15–40 % longer — nothing the guest can see
or prevent.  Ten runs of one commit then spread 15–35 % on every timed
metric, wider than any bound worth gating on, and a longer window only
averages *within* an episode.

So the benchmark measures the machine while it measures the program.
A window is cut into short slices; in the quiet gap between two slices
the **measured process itself** runs a fixed kernel (pure-Python
arithmetic, allocation, sqlite scans — the program's own ingredients)
and reports the thread CPU time it took.  ``speed = REFERENCE /
kernel time``; a duration measured in a slice is multiplied by the
speed of that slice (the median over the kernels of the gaps within
:data:`REACH` of it), which gives the time the work would have taken on
a machine that runs the kernel in exactly :data:`REFERENCE_SECONDS`.
In a slow hour ten-run spreads drop from 18 % to 3 %; in a calm one
they stay where they were.  Untouched values stay in the record's
``notes.unnormalized``.

A kernel running *beside* the work (its own process or thread) does
not do: on two hyperthreads it slows down with the very load it is
meant to judge, and adds noise instead of removing it.
"""

from __future__ import annotations

import sqlite3
import statistics
import time

#: Thread CPU seconds of one kernel on the reference machine (this
#: sandbox on a calm day).  A constant, not a measurement: it only
#: fixes the unit; ratios between two commits do not depend on it.
REFERENCE_SECONDS = 0.0075

#: Kernels per quiet gap.
BURSTS = 3

#: Gaps on either side of a stretch of work whose kernels judge it.  A
#: 20 ms probe says little about the second next to it: the machine
#: also flickers by 10 % for fractions of a second, which averages out
#: of a window by itself, and with ``reach = 0`` the probe's own noise
#: doubled the spread of a calm hour's runs.  What spreads runs is the
#: slow episodes, and ten gaps (about ten seconds) of kernels track
#: those at no cost in a calm hour.
REACH = 4


def make_table() -> sqlite3.Connection:
    connection = sqlite3.connect(":memory:", check_same_thread=False)
    connection.execute(
        "CREATE TABLE t (a INTEGER PRIMARY KEY, b INTEGER, c TEXT)"
    )
    connection.executemany(
        "INSERT INTO t VALUES (?, ?, ?)",
        [(i, i % 97, f"x{i}") for i in range(12000)],
    )
    return connection


def kernel(connection: sqlite3.Connection) -> float:
    """Run the fixed unit of work once; thread CPU seconds it took
    (CPU, not wall: another thread holding the GIL must not count)."""
    started = time.thread_time()
    total = 0
    for i in range(30000):
        total += i * i % 7
    rows = [(i, str(i), (i, total)) for i in range(6000)]
    index = {row[1]: row for row in rows}
    del rows, index
    for low in range(4):
        connection.execute(
            "SELECT COUNT(*), SUM(b) FROM t WHERE b > ? AND c LIKE 'x1%'",
            (low,),
        ).fetchall()
    return time.thread_time() - started


def kernels(connection: sqlite3.Connection, count: int = BURSTS) -> list[float]:
    return [kernel(connection) for _ in range(count)]


def speed(kernel_seconds) -> float:
    """Machine speed relative to the reference (below 1 = slower) from
    a set of kernel times; 1.0 when there are none."""
    if not kernel_seconds:
        return 1.0
    return REFERENCE_SECONDS / statistics.median(kernel_seconds)


def speeds(gaps: list[list[float]], reach: int = REACH) -> list[float]:
    """Speed of each stretch of work between two consecutive gaps
    (``len(gaps) - 1`` of them): the median over the kernels of the
    two gaps around it and of *reach* more on either side."""
    return [
        speed([
            seconds
            for gap in gaps[max(0, index - reach):index + 2 + reach]
            for seconds in gap
        ])
        for index in range(len(gaps) - 1)
    ]
