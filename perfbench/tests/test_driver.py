"""Due-time accounting against a fake server that stalls; pauses that
keep lanes, connections and backlog; who is pinned and who is not."""

import json
import os
import socket
import threading
import time

import pytest

from perfbench import driver
from perfbench.corpus import Request


class FakeServer:
    """Speaks just enough HTTP; the *stall_on*-th request sleeps."""

    def __init__(self, stall_on: int, stall: float) -> None:
        self.stall_on, self.stall = stall_on, stall
        self.seen = 0
        self.connections = 0
        self.listener = socket.socket()
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(8)
        self.address = self.listener.getsockname()
        self.thread = threading.Thread(target=self._accept, daemon=True)
        self.thread.start()

    def _accept(self) -> None:
        while True:
            try:
                connection, _ = self.listener.accept()
            except OSError:
                return
            self.connections += 1
            threading.Thread(
                target=self._serve, args=(connection,), daemon=True
            ).start()

    def _serve(self, connection) -> None:
        reader = connection.makefile("rb")
        with connection:
            while True:
                line = reader.readline()
                if not line:
                    return
                length = 0
                while True:
                    header = reader.readline()
                    if header in (b"\r\n", b""):
                        break
                    if header.lower().startswith(b"content-length:"):
                        length = int(header.split(b":")[1])
                request = json.loads(reader.read(length))
                self.seen += 1
                if self.seen == self.stall_on:
                    time.sleep(self.stall)
                if request.get("stream"):
                    chunks = [
                        b'{"event":"start","shards":1}\n',
                        b'{"event":"rows","shard":0,"rows":[[1,2]]}\n',
                        b'{"event":"end","outcome":"ok","rows":1}\n',
                    ]
                    out = (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked"
                           b"\r\nConnection: close\r\n\r\n")
                    for chunk in chunks:
                        out += b"%x\r\n%s\r\n" % (len(chunk), chunk)
                    connection.sendall(out + b"0\r\n\r\n")
                    return
                body = b'{"rows":[[1,2]]}\n'
                connection.sendall(
                    b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n"
                    b"Connection: keep-alive\r\n\r\n%s" % (len(body), body)
                )

    def close(self) -> None:
        self.listener.close()


def _encode(request) -> bytes:
    return request.body([1])


def _right(request, response) -> bool:
    if response.streamed:
        rows, end = driver.stream_rows(response.body)
        return rows == [[1, 2]] and end["outcome"] == "ok"
    return json.loads(response.body)["rows"] == [[1, 2]]


def test_open_loop_charges_a_stall_to_the_arrivals_behind_it():
    server = FakeServer(stall_on=3, stall=0.3)
    try:
        requests = [Request("path", "/a", 0) for _ in range(30)]
        samples = driver.open_slices(
            server.address, requests, rate=50.0, connections=1,
            per_slice=len(requests), encode=_encode, check=_right,
        )[0].samples
    finally:
        server.close()
    assert len(samples) == 30 and all(s.ok for s in samples)
    # arrivals are due every 20 ms whatever the server does
    gaps = [b.due - a.due for a, b in zip(samples, samples[1:])]
    assert all(gap == pytest.approx(0.02, abs=1e-6) for gap in gaps)
    stalled = samples[2]
    assert stalled.done - stalled.due >= 0.3
    behind = samples[3]
    # timed from when it was due, it waited for most of the stall ...
    assert behind.done - behind.due >= 0.25
    # ... though once sent it was answered at once
    assert behind.done - behind.sent < 0.1
    # that wait is backlog, not the generator's own lateness
    assert not behind.slept
    slips = driver.schedule_slip_ms(samples)
    assert len(slips) < len(samples)
    assert max(slips) < 50.0
    # by the end the queue has drained and arrivals are on time again
    assert samples[-1].slept
    assert samples[-1].done - samples[-1].due < 0.1


def test_closed_loop_only_sends_after_the_answer():
    server = FakeServer(stall_on=2, stall=0.2)
    try:
        samples = driver.closed_loop(
            server.address, [iter(Request("path", "/a", 0)
                                  for _ in range(5))],
            seconds=5.0, encode=_encode, check=_right,
        )
    finally:
        server.close()
    assert len(samples) == 5 and all(s.ok for s in samples)
    for earlier, later in zip(samples, samples[1:]):
        assert later.sent >= earlier.done
    assert samples[1].done - samples[1].sent >= 0.2
    assert samples[2].done - samples[2].sent < 0.1


def test_streams_reconnect_and_report_the_first_rows_event():
    server = FakeServer(stall_on=0, stall=0.0)
    try:
        requests = [Request("path", "/a", stream=True) for _ in range(3)]
        samples = driver.closed_loop(
            server.address, [iter(requests)], seconds=5.0,
            encode=_encode, check=_right,
        )
    finally:
        server.close()
    assert len(samples) == 3 and all(s.ok and s.streamed for s in samples)
    assert all(s.sent <= s.first_row <= s.done for s in samples)


def test_wrong_answers_and_dead_servers_are_failures():
    server = FakeServer(stall_on=0, stall=0.0)
    try:
        samples = driver.closed_loop(
            server.address, [iter([Request("path", "/a", 0)])], 5.0,
            _encode, lambda request, response: False,
        )
        assert [s.ok for s in samples] == [False]
        assert samples[0].status == 200
    finally:
        server.close()
    unused = socket.socket()
    unused.bind(("127.0.0.1", 0))
    dead = unused.getsockname()
    unused.close()  # nothing listens here: connection refused
    samples = driver.closed_loop(
        dead, [iter([Request("path", "/a", 0)])], 5.0, _encode, _right,
    )
    assert [(s.ok, s.status) for s in samples] == [(False, 0)]


def test_a_sliced_closed_loop_keeps_its_lanes_and_connections():
    server = FakeServer(stall_on=0, stall=0.0)
    gaps = []
    try:
        lanes = [
            (Request("path", "/a", 0) for _ in range(10**6)) for _ in range(2)
        ]
        slices = driver.closed_slices(
            server.address, lanes, 3, 0.05, _encode, _right,
            gap=lambda: gaps.append(time.perf_counter()),
        )
    finally:
        server.close()
    assert len(slices) == len(gaps) == 3
    assert all(piece.samples for piece in slices)
    assert all(s.ok for piece in slices for s in piece.samples)
    # one connection per lane for the whole window, not one per slice
    assert server.connections == 2
    # nothing is in flight while a gap runs
    for piece, gap_at, following in zip(slices, gaps, slices[1:]):
        assert max(s.done for s in piece.samples) <= gap_at
        assert min(s.sent for s in following.samples) >= gap_at


def test_an_open_loop_pause_stops_the_clock_and_keeps_the_backlog():
    # 50/s, five arrivals to a slice; the third request stalls 0.3 s on
    # the only connection, so the sixth (first of the second slice) is
    # ~0.24 s overdue when the lanes park.  A 0.2 s gap must neither
    # add to that (the clock stood still) nor forgive it (no reset).
    server = FakeServer(stall_on=3, stall=0.3)
    try:
        requests = [Request("path", "/a", 0) for _ in range(15)]
        slices = driver.open_slices(
            server.address, requests, 50.0, 1, 5, _encode, _right,
            gap=lambda: time.sleep(0.2),
        )
    finally:
        server.close()
    assert [len(piece.samples) for piece in slices] == [5, 5, 5]
    sixth = slices[1].samples[0]
    assert not sixth.slept
    assert 0.15 < sixth.sent - sixth.due < 0.35
    # due times stay 20 ms apart on the window clock, pauses excluded
    every = [s for piece in slices for s in piece.samples]
    assert every[5].due - every[4].due == pytest.approx(0.02 + 0.2, abs=0.02)
    assert every[6].due - every[5].due == pytest.approx(0.02, abs=1e-6)


@pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs to tell"
)
def test_lanes_are_pinned_and_the_program_under_test_is_not():
    from perfbench import workloads

    everything = os.sched_getaffinity(0)
    seen_in_lane = []

    def encode(request):
        seen_in_lane.append(os.sched_getaffinity(0))
        return _encode(request)

    server = FakeServer(stall_on=0, stall=0.0)
    try:
        driver.closed_loop(
            server.address, [iter([Request("path", "/a", 0)])], 5.0,
            encode, _right,
        )
    finally:
        server.close()
    assert [len(cpus) for cpus in seen_in_lane] == [1]
    # the main thread was never narrowed, so a child started now - the
    # store and gateway, the loader threads - may use every CPU
    assert os.sched_getaffinity(0) == everything
    child = workloads.ChildProcess()
    assert child.exit()["cpus"] == sorted(everything)


def _offered(slip_ms):
    """One slice whose every arrival woke *slip_ms* late."""
    sample = driver.Sample(
        due=1.0, sent=1.0 + slip_ms / 1e3, first_row=None, done=1.1,
        status=200, ok=True, streamed=False, slept=True, request=None,
        body=b"",
    )
    return [driver.Slice([sample] * 20, 0.0)]


def test_a_late_generator_is_offered_again_then_the_run_is_invalid():
    from perfbench import workloads

    offers = iter([_offered(5.0), _offered(0.2)])
    result = workloads.Result("scatter_read", 1, 1.0)
    kept = workloads.punctual_open_loop(result, lambda: next(offers))
    assert result.invalid is None
    assert result.notes["open_loop_attempts"] == 2
    assert result.notes["sched_slip_p99_ms"] == pytest.approx(0.2)
    assert kept[0].samples[0].sent == pytest.approx(1.0002)

    result = workloads.Result("scatter_read", 1, 1.0)
    workloads.punctual_open_loop(result, lambda: _offered(5.0))
    assert "slip p99 5.00 ms" in result.invalid
    assert result.notes["open_loop_attempts"] == workloads.OPEN_ATTEMPTS
