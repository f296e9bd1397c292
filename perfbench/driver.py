"""perfbench's own load driver (not ``repro.bench.loadgen``).

One process, a bounded set of keep-alive connections (one thread
each, at most ``nproc``), two modes:

* **closed loop** — each connection sends its next request when the
  previous answer is complete; latency is send → last byte.
* **open loop** — request *i* is due at ``start + i / rate`` whatever
  the server does; latency is timed **from the due time**, so a stall
  charges every arrival queued behind it.  When every connection is
  still busy at a due time the request waits for one (that wait is in
  its latency, as it would be for a pool-holding client); when a
  connection was idle and merely woke late, the lateness is the
  generator's own *schedule slip* and is reported separately.

Streamed answers (chunked NDJSON) close their connection, as the
gateway does; the next request on that lane reconnects.

Either loop can run as *slices*: after each slice the lanes park with
their threads and connections intact, the caller's ``gap()`` runs (the
calibration kernels of :mod:`perfbench.calibrate`), and the loop carries
on where it stopped.  The open loop's clock stands still during a gap,
so arrivals queued behind a stall stay queued across it.

Lane threads pin themselves to one CPU (a floating client reads slower
and noisier on a two-CPU sandbox); the main thread never does, so the
processes it starts inherit every CPU.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from typing import Callable, NamedTuple

_REQUEST_HEAD = (
    b"POST /query HTTP/1.1\r\nHost: perfbench\r\n"
    b"Content-Type: application/json\r\nContent-Length: "
)


def pin_lane() -> None:
    """Keep the calling lane thread on the first CPU.  Only the thread:
    the main thread is never narrowed, so the processes it starts (the
    program under test) inherit every CPU."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) >= 2:
        os.sched_setaffinity(0, {cpus[0]})


class Response(NamedTuple):
    status: int
    body: bytes          # materialized body, or all NDJSON lines joined
    first_row: float | None  # perf_counter at the first ``rows`` event
    streamed: bool


class Sample(NamedTuple):
    due: float
    sent: float
    first_row: float | None
    done: float
    status: int          # 0 = transport error
    ok: bool             # 2xx *and* the right answer (set by judge())
    streamed: bool
    slept: bool          # the lane was idle and waited for the due time
    request: object
    body: bytes          # kept until judged, then dropped


class Connection:
    """One HTTP/1.1 connection on a plain socket."""

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self.address = (host, port)
        self.timeout = timeout
        self._sock: socket.socket | None = None
        self._reader = None

    def close(self) -> None:
        if self._reader is not None:
            self._reader.close()
            self._reader = None
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def _connect(self) -> None:
        self._sock = socket.create_connection(
            self.address, timeout=self.timeout
        )
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = self._sock.makefile("rb")

    def post(self, body: bytes) -> Response:
        """Send one ``POST /query`` and read the whole answer.  Raises
        ``OSError`` / ``ValueError`` on transport or framing trouble
        (the connection is closed first, so the next call reconnects)."""
        if self._sock is None:
            self._connect()
        try:
            self._sock.sendall(
                _REQUEST_HEAD + str(len(body)).encode("ascii")
                + b"\r\n\r\n" + body
            )
            return self._read_response()
        except (OSError, ValueError):
            self.close()
            raise

    def _read_response(self) -> Response:
        reader = self._reader
        status_line = reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split(b" ", 2)[1])
        length = None
        chunked = False
        close = False
        while True:
            line = reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            name = name.strip().lower()
            value = value.strip().lower()
            if name == b"content-length":
                length = int(value)
            elif name == b"transfer-encoding" and value == b"chunked":
                chunked = True
            elif name == b"connection" and value == b"close":
                close = True
        if not chunked:
            body = reader.read(length or 0)
            if len(body) != (length or 0):
                raise ConnectionError("short body")
            if close:
                self.close()
            return Response(status, body, None, False)
        first_row = None
        lines = []
        while True:
            size = int(reader.readline().strip() or b"0", 16)
            if size == 0:
                reader.readline()
                break
            chunk = reader.read(size)
            reader.readline()
            if first_row is None and b'"event":"rows"' in chunk:
                first_row = time.perf_counter()
            lines.append(chunk)
        self.close()  # streams are Connection: close
        return Response(status, b"".join(lines), first_row, True)


def stream_rows(body: bytes) -> tuple[list, dict | None]:
    """``(all rows, terminal event)`` of one NDJSON stream body."""
    rows: list = []
    end = None
    for line in body.splitlines():
        event = json.loads(line)
        kind = event.get("event")
        if kind == "rows":
            rows.extend(event["rows"])
        elif kind in ("end", "error"):
            end = event
    return rows, end


#: ``check(request, response) -> bool``: is this the right answer?
Check = Callable[[object, Response], bool]


def _perform(connection, request, body, due, sent, slept) -> Sample:
    try:
        response = connection.post(body)
    except (OSError, ValueError):
        return Sample(
            due, sent, None, time.perf_counter(), 0, False,
            request.stream, slept, request, b"",
        )
    return Sample(
        due, sent, response.first_row, time.perf_counter(),
        response.status, False, response.streamed, slept, request,
        response.body,
    )


def judge(samples: list[Sample], check: Check) -> list[Sample]:
    """Check every answer **after** the window: parsing and comparing
    a body holds the GIL for milliseconds, and doing that between
    requests would make the other lane wake late for its due time."""
    judged = []
    for sample in samples:
        ok = 200 <= sample.status < 300 and check(
            sample.request,
            Response(
                sample.status, sample.body, sample.first_row,
                sample.streamed,
            ),
        )
        judged.append(sample._replace(ok=ok, body=b""))
    return judged


class Slice(NamedTuple):
    """One stretch of a window between two pauses."""

    samples: list[Sample]
    started: float       # perf_counter when the slice began


def _no_gap() -> None:
    pass


def _start(run, count: int, name: str) -> list[threading.Thread]:
    threads = [
        threading.Thread(target=run, args=(index,), name=f"{name}-{index}")
        for index in range(count)
    ]
    for thread in threads:
        thread.start()
    return threads


def closed_slices(
    address, lanes, count: int, slice_seconds: float, encode, check: Check,
    gap: Callable[[], None] = _no_gap,
) -> list[Slice]:
    """One closed-loop connection per request iterator in *lanes*, for
    *count* slices of *slice_seconds*.  Between slices every lane parks
    (its thread and its connection stay) while *gap* runs; a lane whose
    iterator runs dry parks for good."""
    buckets = [[[] for _ in range(count)] for _ in lanes]
    turn = threading.Barrier(len(lanes) + 1)
    deadline = [0.0]

    def run(index: int) -> None:
        pin_lane()
        requests = iter(lanes[index])
        connection = Connection(*address)
        try:
            for bucket in buckets[index]:
                turn.wait()                      # the slice is open
                until = deadline[0]
                while time.perf_counter() < until:
                    request = next(requests, None)
                    if request is None:
                        break
                    body = encode(request)
                    sent = time.perf_counter()
                    bucket.append(
                        _perform(connection, request, body, sent, sent, False)
                    )
                turn.wait()                      # parked
        except BaseException:
            turn.abort()
            raise
        finally:
            connection.close()

    threads = _start(run, len(lanes), "perfbench-lane")
    slices = []
    try:
        for number in range(count):
            started = time.perf_counter()
            deadline[0] = started + slice_seconds
            turn.wait()
            turn.wait()
            samples = [s for lane in buckets for s in lane[number]]
            gap()
            slices.append(Slice(samples, started))
    except BaseException:
        turn.abort()
        raise
    finally:
        for thread in threads:
            thread.join()
    return [
        piece._replace(samples=judge(piece.samples, check))
        for piece in slices
    ]


def closed_loop(
    address, lanes, seconds: float, encode, check: Check
) -> list[Sample]:
    """An unsliced closed loop: every sample (judged), lane by lane."""
    return closed_slices(address, lanes, 1, seconds, encode, check)[0].samples


#: Seconds a lane spins before a due time.  A sleeping thread on an
#: idle vCPU wakes when the host gets round to it - 0.3 ms as a rule,
#: 20 ms now and then; one that is already running is simply there.
SPIN_SECONDS = 0.0015


def _sleep_until(due: float) -> None:
    """Sleep to just short of *due*, then spin the rest of the way,
    yielding the GIL each turn."""
    delay = due - SPIN_SECONDS - time.perf_counter()
    if delay > 0:
        time.sleep(delay)
    while time.perf_counter() < due:
        time.sleep(0)


def open_slices(
    address, requests, rate: float, connections: int, per_slice: int,
    encode, check: Check, gap: Callable[[], None] = _no_gap,
) -> list[Slice]:
    """Offer *requests* at *rate* per second over at most *connections*
    connections.  Arrival *i* is due at window time ``i / rate``; after
    every *per_slice* arrivals the lanes park, *gap* runs and the
    window clock stands still meanwhile, so a backlog is carried over
    the pause as it is."""
    samples: list[Sample | None] = [None] * len(requests)
    cursor = [0]
    boundary = [0]
    cursor_lock = threading.Lock()
    turn = threading.Barrier(connections + 1)
    origin = [0.0]       # perf_counter at window time 0
    finished = [False]

    def run(_index: int) -> None:
        pin_lane()
        connection = Connection(*address)
        try:
            turn.wait()
            while not finished[0]:
                with cursor_lock:
                    index = cursor[0]
                    if index < boundary[0]:
                        cursor[0] = index + 1
                if index >= boundary[0]:
                    turn.wait()                  # parked
                    turn.wait()                  # the next slice is open
                    continue
                request = requests[index]
                body = encode(request)
                due = origin[0] + index / rate
                delay = due - time.perf_counter()
                if delay > 0:
                    _sleep_until(due)
                sent = time.perf_counter()
                samples[index] = _perform(
                    connection, request, body, due, sent, delay > 0
                )
        except BaseException:
            turn.abort()
            raise
        finally:
            connection.close()

    threads = _start(run, connections, "perfbench-open")
    slices = []
    try:
        origin[0] = time.perf_counter() + 0.01
        for first in range(0, len(requests), per_slice):
            boundary[0] = min(first + per_slice, len(requests))
            started = time.perf_counter()
            turn.wait()
            turn.wait()
            parked = time.perf_counter()
            gap()
            origin[0] += time.perf_counter() - parked
            slices.append(Slice(samples[first:boundary[0]], started))
        finished[0] = True
        turn.wait()
    except BaseException:
        turn.abort()
        raise
    finally:
        for thread in threads:
            thread.join()
    return [
        piece._replace(samples=judge(piece.samples, check))
        for piece in slices
    ]


def schedule_slip_ms(samples) -> list[float]:
    """Generator lateness: send minus due, over the arrivals whose lane
    was idle before the due time (a busy lane is backlog, not slip)."""
    return [
        (sample.sent - sample.due) * 1e3 for sample in samples if sample.slept
    ]
