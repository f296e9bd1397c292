"""The five workloads: set-up, timed window, answer check.

Each workload is a small class with ``setup`` (everything before the
timed window — its wall time is ``setup_s``), ``before_window`` (wake
the machine), ``measure`` (the window and the checks after it) and
``teardown`` (child exit).  :func:`run_workload`
sets up twice, keeps the median set-up time, measures once and
returns one :class:`Result` holding every end-to-end and primary
metric of the workload, with the repo ``Tracer`` off throughout.

A serving window is one continuous loop that pauses every second for a
calibration gap; every duration is multiplied by the machine speed of
its slice (:mod:`perfbench.calibrate`) and the untouched values go to
``Result.notes["unnormalized"]``.

The program under test always has every CPU: only the load driver's
lane threads are pinned (:func:`perfbench.driver.pin_lane`).
"""

from __future__ import annotations

import bisect
import contextlib
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field

from perfbench import ROOT, calibrate, corpus as corpus_module, spec, stats
from perfbench.driver import (
    Response,
    closed_loop,
    closed_slices,
    open_slices,
    schedule_slip_ms,
    stream_rows,
)
from perfbench.launcher import digest_fragments, digest_pres

WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
LAUNCHER = os.path.join(ROOT, "perfbench", "launcher.py")

#: Connections the single driver process may hold (ISSUE: ≤ nproc).
CONNECTIONS = 2
OPEN_LOOP_RATE = 40.0
#: Update operations per second: the ISSUE's 10/s over its 24-28 s
#: window is the same 200+ updates (what a p95 needs) as 12/s over
#: this one.  One update takes ~35 ms, so the writer is 40 % busy.
WRITE_RATE = 12.0
SHARDS = 4
SLICE_SECONDS = 1.0
#: An open-loop run whose generator woke later than this (p99) did not
#: offer the load it claims: invalid, not reported by ``perfbench run``.
SLIP_LIMIT_MS = 2.0
#: Offers of an open loop before the run is invalid.  The PR driver's
#: entry point makes one (``Sizes.open_attempts``): it must answer every
#: run, within a time budget a ten-second second offer does not fit.
OPEN_ATTEMPTS = 3


class ChildError(Exception):
    """The measured process failed or died."""


class ChildProcess:
    """The program under test, in its own process (``launcher.py``)."""

    def __init__(self) -> None:
        self.process = subprocess.Popen(
            [sys.executable, LAUNCHER],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            cwd=ROOT, text=True,
        )

    def call(self, op: str, **arguments) -> dict:
        try:
            self.process.stdin.write(
                json.dumps({"op": op, **arguments}) + "\n"
            )
            self.process.stdin.flush()
            line = self.process.stdout.readline()
        except (BrokenPipeError, OSError) as error:
            raise ChildError(f"child pipe failed during {op}: {error}")
        if not line:
            raise ChildError(
                f"child exited during {op} "
                f"(code {self.process.poll()})"
            )
        reply = json.loads(line)
        if not reply.get("ok"):
            raise ChildError(f"child failed {op}: {reply.get('error')}")
        return reply

    def exit(self) -> dict:
        """Ask the child to close its store and leave; returns its
        resource usage.  The process has ended when this returns."""
        try:
            usage = self.call("exit")
        finally:
            self.stop()
        if usage["cpus"] != sorted(os.sched_getaffinity(0)):
            raise ChildError(
                f"the program under test ran on CPUs {usage['cpus']}, "
                f"not on every CPU this process may use"
            )
        return usage

    def stop(self) -> None:
        """Make sure the process is gone (idempotent)."""
        process = self.process
        for stream in (process.stdin, process.stdout):
            if stream is not None and not stream.closed:
                try:
                    stream.close()
                except OSError:
                    pass
        try:
            process.wait(timeout=20.0)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()


@contextlib.contextmanager
def awake():
    """Keep the other CPUs busy while this process works alone.  The
    sandbox parks an idle vCPU after about a second, and a threaded
    phase that starts on one CPU runs in a different regime from one
    that starts on two (``store_corpus`` loads 2x *faster* on one: no
    GIL hand-offs between CPUs).  Single-threaded set-up work runs
    under this, so what follows it always starts with every CPU up."""
    # bounded, so a spinner cannot outlive a driver that was killed
    burn = (
        "import time\n"
        "end = time.monotonic() + 60\n"
        "while time.monotonic() < end: pass\n"
    )
    spinners = [
        subprocess.Popen([sys.executable, "-c", burn])
        for _ in range(len(os.sched_getaffinity(0)) - 1)
    ]
    try:
        yield
    finally:
        for spinner in spinners:
            spinner.kill()
        for spinner in spinners:
            spinner.wait()


class WorkDir:
    """Scratch space inside the checkout, removed on exit."""

    def __init__(self) -> None:
        self.path = os.path.join(WORK_ROOT, f"run-{os.getpid()}")
        self._counter = 0

    def __enter__(self) -> "WorkDir":
        shutil.rmtree(self.path, ignore_errors=True)
        os.makedirs(self.path)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run is using it

    def fresh(self, label: str) -> str:
        self._counter += 1
        path = os.path.join(self.path, f"{label}-{self._counter}")
        os.makedirs(path)
        return path


@dataclass
class Result:
    workload: str
    seed: int
    seconds: float
    #: metric name → (value, sample count)
    metrics: dict[str, tuple[float, int]] = field(default_factory=dict)
    #: tail metric name -> the percentile level actually computed
    levels: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Why the run's numbers may not be reported, when they may not.
    invalid: str | None = None
    notes: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0

    def put(self, name: str, value: float, count: int = 1) -> None:
        self.metrics[name] = (float(value), int(count))

    def put_tail(self, name: str, values, cap: float = 95.0) -> None:
        """The tail of *values* at the highest level <= *cap* the sample
        supports; the level goes into the record beside the value."""
        level, value = stats.tail(values, cap)
        self.put(name, value, len(values))
        self.levels[name] = level


@dataclass
class Sizes:
    """Corpus sizes; ``quick`` shrinks them (same metric names)."""

    serve_documents: int = 16
    serve_scale: float = 0.2
    bulk_files: int = 3
    bulk_tiles: int = 2
    bulk_tile_scale: float = 0.5
    bulk_dblp_records: int = 1800
    embedded_scale: float = 0.5
    setups: int = 2
    #: Seconds of the workload's own traffic right before the window.
    warm_seconds: float = 1.5
    #: How often a late open loop is offered (:func:`punctual_open_loop`).
    open_attempts: int = OPEN_ATTEMPTS
    full: bool = True

    @classmethod
    def quick(cls) -> "Sizes":
        return cls(
            serve_documents=8, serve_scale=0.05, bulk_files=1,
            bulk_tiles=2, bulk_tile_scale=0.2, bulk_dblp_records=500,
            embedded_scale=0.1, setups=1, warm_seconds=0.4, full=False,
        )


def _ms(durations) -> list[float]:
    return [seconds * 1e3 for seconds in durations]


def _grouped(pairs) -> dict:
    groups: dict = {}
    for key, value in pairs:
        groups.setdefault(key, []).append(value)
    return groups


def _read_latency(result: Result, normalized, unnormalized) -> None:
    """``latency_p50_ms`` from ``(kind of request, seconds)`` pairs:
    the median per kind, averaged over the kinds (:func:`stats.typical`);
    the same of the *unnormalized* pairs goes to the notes."""
    result.put(
        "latency_p50_ms", stats.typical(_grouped(normalized)) * 1e3,
        len(normalized),
    )
    result.notes.setdefault("unnormalized", {})["latency_p50_ms"] = (
        stats.typical(_grouped(unnormalized)) * 1e3
    )


def _kind(request) -> tuple:
    """What a serving request's cost depends on: its query class, and
    whether its plan can be in the cache (a drawn literal's cannot)."""
    return request.klass, request.literal is not None


class Gaps:
    """The calibration gaps of one sliced window: kernels run in the
    child before the first slice and after every slice (``close_slice``
    is the loops' ``gap``).  Speeds are worked out once the window is
    over, each slice judged by the gaps near it on both sides."""

    def __init__(self, child: "ChildProcess") -> None:
        self.child = child
        self.kernels = [child.call("calibrate")["kernels"]]

    def close_slice(self) -> None:
        self.kernels.append(self.child.call("calibrate")["kernels"])

    def timed(self, slices) -> list[tuple]:
        """``(samples, speed, started)`` for each of *slices*: all the
        slices this object has closed, in order."""
        return [
            (piece.samples, speed, piece.started)
            for piece, speed in zip(
                slices, calibrate.speeds(self.kernels), strict=True
            )
        ]


# -- serving workloads ------------------------------------------------------------


class ServeWorkload:
    """Shared set-up of the three gateway workloads: 16 auction
    documents on 4 interval shards (round-robin, durable), store +
    gateway in a child, load driven from this process."""

    name = ""
    with_writes = False

    def __init__(self, seed, sizes, workdir, corrupt=False) -> None:
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.corrupt = corrupt
        self.child: ChildProcess | None = None
        self.corpus = None
        self.doc_ids: list[int] = []
        self.address = ("127.0.0.1", 0)
        self.load_seconds = 0.0
        self._bodies: dict = {}
        self._rows: dict = {}

    # -- set-up -------------------------------------------------------------------

    def setup(self) -> None:
        sizes = self.sizes
        with awake():
            self.corpus = corpus_module.build_serve_corpus(
                self.seed, sizes.serve_documents, sizes.serve_scale,
                with_writes=self.with_writes,
            )
            if sizes.full:
                corpus_module.check_pins("serve", self.corpus)
            paths = corpus_module.write_files(
                self.workdir.fresh("corpus"), self.corpus.names,
                self.corpus.texts,
            )
            self.child = ChildProcess()
            self.child.call(
                "open", directory=self.workdir.fresh("store"), shards=SHARDS
            )
        loaded = self.child.call(
            "load", paths=paths, names=self.corpus.names
        )
        self.load_kernels = sum(loaded["kernels"], [])
        self.load_seconds = loaded["seconds"] * calibrate.speed(
            self.load_kernels
        )
        self.doc_ids = loaded["doc_ids"]
        self.address = ("127.0.0.1", self.child.call("serve")["port"])
        self._bind_expected()
        self.warm_up()

    def _bind_expected(self) -> None:
        """Expected ``[[doc_id, pre], ...]`` rows per (doc, xpath) and
        state, now that the store has assigned doc ids."""
        self._rows = {}
        for state_name in ("before", "after"):
            for index, state in enumerate(getattr(self.corpus, state_name)):
                doc_id = self.doc_ids[index]
                for xpath, pres in state.answers.items():
                    self._rows[state_name, index, xpath] = [
                        [doc_id, pre] for pre in pres
                    ]
        if self.corrupt:
            # Acceptance probe: one wrong expected answer must surface
            # as failed requests and a non-zero exit.
            xpath = corpus_module.MIX["path"]
            for index in range(len(self.doc_ids)):
                self._rows["before", index, xpath] = (
                    self._rows["before", index, xpath] + [[0, 0]]
                )

    def expected(self, request) -> list[list]:
        """Every acceptable row list for *request* (one per legal
        state of the documents it touches)."""
        if request.doc is None:
            rows: list = []
            for index in range(len(self.doc_ids)):
                rows.extend(self._rows["before", index, request.xpath])
            return [rows]
        if request.literal is not None:
            doc_id = self.doc_ids[request.doc]
            return [
                [[doc_id, pre] for pre in state[request.doc].value_answer(
                    request.literal)]
                for state in (self.corpus.before, self.corpus.after)
            ]
        accepted = [self._rows["before", request.doc, request.xpath]]
        if self.with_writes:
            accepted.append(self._rows["after", request.doc, request.xpath])
        return accepted

    def check(self, request, response: Response) -> bool:
        if response.streamed:
            rows, end = stream_rows(response.body)
            if not end or end.get("event") != "end" \
                    or end.get("outcome") != "ok":
                return False
            rows.sort()
        else:
            rows = json.loads(response.body)["rows"]
        return any(rows == accepted for accepted in self.expected(request))

    def encode(self, request) -> bytes:
        body = self._bodies.get(request)
        if body is None:
            body = request.body(self.doc_ids)
            if request.literal is None:
                self._bodies[request] = body
        return body

    def lanes(self, count: int, offset: int = 0):
        return [
            corpus_module.request_stream(
                self.name, self.seed, len(self.doc_ids), offset + lane
            )
            for lane in range(count)
        ]

    def warm_list(self) -> list:
        return [
            corpus_module.Request(klass, xpath, doc)
            for doc in range(len(self.doc_ids))
            for klass, xpath in corpus_module.MIX.items()
        ]

    def warm_up(self) -> None:
        """The warm list once on every connection the window will use
        (plan caches, pools), failing set-up early on a wrong answer."""
        samples = closed_loop(
            self.address,
            [iter(self.warm_list()) for _ in range(CONNECTIONS)],
            60.0, self.encode, self.check,
        )
        wrong = sum(1 for sample in samples if not sample.ok)
        if wrong and not self.corrupt:
            raise ChildError(
                f"{self.name}: {wrong}/{len(samples)} warm-up answers wrong"
            )

    def before_window(self) -> None:
        """``sizes.warm_seconds`` of the workload's own traffic right
        up to the window.  This sandbox parks its second vCPU after about
        a second of idleness and takes about as long to wake it; a
        window that starts on one core reads differently from one that
        does not.  Not part of ``setup_s``: it exists for the clock."""
        closed_loop(
            self.address, self.lanes(CONNECTIONS, offset=1000),
            self.sizes.warm_seconds, self.encode, self.check,
        )

    # -- window and after ---------------------------------------------------------

    def measure(self, seconds: float, result: Result) -> None:
        raise NotImplementedError

    def _count(self, result: Result, samples) -> None:
        result.attempted += len(samples)
        result.failed += sum(1 for sample in samples if not sample.ok)
        statuses: dict[str, int] = result.notes.setdefault("statuses", {})
        for sample in samples:
            key = str(sample.status)
            statuses[key] = statuses.get(key, 0) + 1

    def closed_slices(self, lanes, seconds: float, gaps: Gaps) -> list:
        """*seconds* of closed loop, pausing every second for one of
        *gaps*."""
        return closed_slices(
            self.address, lanes, max(1, round(seconds / SLICE_SECONDS)),
            SLICE_SECONDS, self.encode, self.check, gaps.close_slice,
        )

    def _read_metrics(self, result, sliced, moment) -> None:
        """Latency of the OK samples; *moment* says when a sample's
        clock started (its send, or its due time)."""
        normalized, unnormalized = [], []
        for samples, speed, _started in sliced:
            for sample in samples:
                if sample.ok:
                    duration = sample.done - moment(sample)
                    kind = _kind(sample.request)
                    unnormalized.append((kind, duration))
                    normalized.append((kind, duration * speed))
        _read_latency(result, normalized, unnormalized)
        result.put_tail(
            "latency_p95_ms", _ms(seconds for _key, seconds in normalized)
        )

    def _throughput(self, result, sliced) -> None:
        """OK answers per normalized second: the median over the closed
        slices, so a second the host took away costs one slice its
        value, not the window a share of its own."""
        good = [
            sum(1 for sample in samples if sample.ok)
            for samples, _speed, _started in sliced
        ]
        result.put(
            "throughput_rps",
            stats.median([
                count / (SLICE_SECONDS * speed)
                for count, (_s, speed, _t) in zip(good, sliced)
            ]),
            sum(good),
        )
        result.notes.setdefault("unnormalized", {})["throughput_rps"] = (
            sum(good) / (SLICE_SECONDS * len(sliced))
        )

    def _count_slices(self, result, sliced) -> None:
        for samples, _speed, _started in sliced:
            self._count(result, samples)
        speeds = result.notes.setdefault("slice_speeds", [])
        speeds.extend(round(speed, 4) for _s, speed, _t in sliced)

    def teardown(self) -> dict:
        """Stop the child; returns ``{stored_bytes, peak_rss_kb}``."""
        child, self.child = self.child, None
        if child is None:
            return {}
        try:
            closed = child.call("close")
            usage = child.exit()
        finally:
            child.stop()
        return {
            "stored_bytes": closed["stored_bytes"],
            "peak_rss_kb": usage["peak_rss_kb"],
        }


class PointRead(ServeWorkload):
    name = "point_read"

    def measure(self, seconds, result) -> None:
        gaps = Gaps(self.child)
        sliced = gaps.timed(
            self.closed_slices(self.lanes(CONNECTIONS), seconds, gaps)
        )
        self._count_slices(result, sliced)
        self._read_metrics(result, sliced, lambda s: s.sent)
        self._throughput(result, sliced)


class ScatterRead(ServeWorkload):
    name = "scatter_read"
    #: Share of the window offered open-loop (10 s of 18: 400 arrivals,
    #: twice what a p95 needs); the rest, the ISSUE's 8 s, is capacity.
    OPEN_SHARE = 0.56

    def warm_list(self) -> list:
        return [
            corpus_module.Request(klass, xpath, stream=stream)
            for stream in (False, True)
            for klass, xpath in corpus_module.MIX.items()
        ]

    def measure(self, seconds, result) -> None:
        slice_count = max(1, int(seconds * self.OPEN_SHARE / SLICE_SECONDS))
        per_slice = int(OPEN_LOOP_RATE * SLICE_SECONDS)
        arrivals = corpus_module.open_loop_requests(
            self.seed, slice_count * per_slice
        )
        gaps = None

        def offer():
            nonlocal gaps
            gaps = Gaps(self.child)  # a late attempt's kernels go with it
            return open_slices(
                self.address, arrivals, OPEN_LOOP_RATE, CONNECTIONS,
                per_slice, self.encode, self.check, gaps.close_slice,
            )

        opened = punctual_open_loop(result, offer, self.sizes.open_attempts)
        closed = self.closed_slices(
            self.lanes(CONNECTIONS), seconds - slice_count * SLICE_SECONDS,
            gaps,
        )
        timed = gaps.timed(opened + closed)
        opened, closed = timed[:len(opened)], timed[len(opened):]
        self._count_slices(result, opened)
        self._count_slices(result, closed)
        self._read_metrics(result, opened, lambda s: s.due)
        first_rows = [
            (_kind(s.request), (s.first_row - s.due) * speed * 1e3)
            for samples, speed, _started in opened for s in samples
            if s.ok and s.streamed and s.first_row is not None
        ]
        result.put(
            "first_row_p50_ms", stats.typical(_grouped(first_rows)),
            len(first_rows),
        )
        self._throughput(result, closed)
        every = [s for samples, _speed, _t in opened for s in samples]
        result.notes["open_loop"] = {
            "rate": OPEN_LOOP_RATE, "arrivals": len(every),
            "arrived_to_busy_lanes": sum(1 for s in every if not s.slept),
        }


class MixedRw(ServeWorkload):
    name = "mixed_rw"
    with_writes = True

    def measure(self, seconds, result) -> None:
        pairs_needed = int(seconds * WRITE_RATE / 2) + 16
        schedule = corpus_module.write_schedule(
            self.seed, len(self.doc_ids), pairs_needed
        )
        pairs = [
            [self.doc_ids[doc], self.corpus.people_pre[doc]]
            for doc in schedule
        ]
        self.child.call(
            "writer_start", rate=WRITE_RATE, pairs=pairs,
            fragment=corpus_module.FRAGMENT_XML,
        )
        gaps = Gaps(self.child)
        try:
            sliced = self.closed_slices(self.lanes(1), seconds, gaps)
        finally:
            written = self.child.call("writer_stop")
        sliced = gaps.timed(sliced)
        self._count_slices(result, sliced)
        self._read_metrics(result, sliced, lambda s: s.sent)
        self._throughput(result, sliced)
        # An update is normalized by the slice it was due in (the one
        # before it, when it fell into a gap).
        starts = [started for _s, _speed, started in sliced]
        speeds = [speed for _s, speed, _started in sliced]
        updates, unnormalized = [], []
        for due, elapsed in written["inserts"] + written["deletes"]:
            index = max(0, bisect.bisect_right(starts, due) - 1)
            updates.append(elapsed * speeds[index] * 1e3)
            unnormalized.append(elapsed * 1e3)
        result.attempted += len(updates) + len(written["errors"])
        result.failed += len(written["errors"])
        if not written["finished"]:
            result.failed += 1
        result.put("update_p50_ms", stats.median(updates), len(updates))
        result.put_tail("update_p95_ms", updates)
        result.notes["unnormalized"]["update_p50_ms"] = stats.median(
            unnormalized
        )
        result.notes["updates"] = {
            "count": len(updates), "rows_touched": written["rows_touched"],
            "errors": written["errors"][:3],
            # inside the served process, so GIL waits, not generator
            # lateness: part of the latency from the due time
            "writer_wake_p99_ms": stats.percentile(written["slip_ms"], 99)
            if written["slip_ms"] else 0.0,
        }
        # After the final delete every document is back in its first
        # state: exact equality now, no second state accepted.
        self.with_writes = False
        final = closed_loop(
            self.address, [iter(ServeWorkload.warm_list(self))], 60.0,
            self.encode, self.check,
        )
        self._count(result, final)
        result.attempted += 1
        if not self.child.call("verify")["ok"]:
            result.failed += 1
            result.notes["verify_ok"] = False


def _rounds_until(seconds: float, run_round) -> list:
    """Call *run_round* until the window is used: at least twice, and
    stopping when one more round would overshoot by more than half a
    round."""
    rounds = []
    started = time.perf_counter()
    while True:
        rounds.append(run_round())
        elapsed = time.perf_counter() - started
        if len(rounds) >= 2 and \
                elapsed + elapsed / len(rounds) / 2 > seconds:
            return rounds


# -- bulk ingest ------------------------------------------------------------------


class BulkIngest:
    """Rounds of: fresh child, empty 4-shard store, ``store_corpus`` of
    the file corpus through commit + index rebuild + ANALYZE, close,
    stat, reopen, first reads.  Rounds repeat until the window is
    used; a load and a read phase each carry the kernels around them."""

    name = "bulk_ingest"
    READ_PASSES = 3

    def __init__(self, seed, sizes, workdir, corrupt=False) -> None:
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.corrupt = corrupt
        self.corpus = None
        self.paths: list[str] = []
        self.child: ChildProcess | None = None

    def setup(self) -> None:
        sizes = self.sizes
        with awake():  # single-process here; the loader threads are not
            self.corpus = corpus_module.build_bulk_corpus(
                self.seed, sizes.bulk_files, sizes.bulk_tiles,
                sizes.bulk_tile_scale, sizes.bulk_dblp_records,
            )
            if sizes.full:
                corpus_module.check_pins("bulk", self.corpus)
            self.paths = corpus_module.write_files(
                self.workdir.fresh("files"), self.corpus.names,
                self.corpus.texts,
            )

    def before_window(self) -> None:
        """Nothing to wake: set-up ran under :func:`awake`."""

    def _round(self, result: Result) -> dict:
        self.child = child = ChildProcess()
        try:
            child.call(
                "open", directory=self.workdir.fresh("store"), shards=SHARDS
            )
            loaded = child.call(
                "load", paths=self.paths, names=self.corpus.names
            )
            closed = child.call("close")
            child.call("reopen")
            requests, expected = [], []
            for index, doc_id in enumerate(loaded["doc_ids"]):
                for xpath, pres in self.corpus.answers[index].items():
                    requests.append([doc_id, xpath])
                    expected.append(digest_pres(pres))
            if self.corrupt:
                expected[0] = digest_pres([0])
            reads = child.call(
                "reads", requests=requests, passes=self.READ_PASSES
            )
            usage = child.exit()
        finally:
            child.stop()
            self.child = None
        wrong = sum(
            1 for position, digest in enumerate(reads["digests"])
            if digest != expected[position % len(expected)]
        )
        result.attempted += len(self.paths) + len(reads["digests"])
        result.failed += wrong
        if len(loaded["doc_ids"]) != len(self.paths):
            result.failed += len(self.paths)
        return {
            "load_seconds": loaded["seconds"],
            "stored_bytes": closed["stored_bytes"],
            "peak_rss_kb": usage["peak_rss_kb"],
            "reads": reads["calls"],
            # four gaps, in time order: around the load, around the reads
            "kernels": loaded["kernels"] + reads["kernels"],
        }

    def measure(self, seconds, result) -> None:
        rounds = _rounds_until(seconds, lambda: self._round(result))
        speeds = calibrate.speeds([g for r in rounds for g in r["kernels"]])
        for number, entry in enumerate(rounds):
            entry["load_speed"] = speeds[4 * number]
            entry["read_speed"] = speeds[4 * number + 2]
        xml_bytes = self.corpus.xml_bytes
        result.put(
            "ingest_mb_s",
            xml_bytes / 1e6 / stats.median(
                [r["load_seconds"] * r["load_speed"] for r in rounds]
            ),
            len(rounds),
        )
        result.put(
            "stored_bytes_per_xml_byte",
            stats.median([r["stored_bytes"] for r in rounds]) / xml_bytes,
            len(rounds),
        )
        result.put(
            "peak_rss_mb",
            stats.median([r["peak_rss_kb"] for r in rounds]) / 1024.0,
            len(rounds),
        )
        # one kind of read per (document, query); each pass repeats them
        kinds = len(rounds[0]["reads"]) // self.READ_PASSES
        _read_latency(
            result,
            [(position % kinds, seconds * r["read_speed"])
             for r in rounds for position, seconds in enumerate(r["reads"])],
            [(position % kinds, seconds)
             for r in rounds for position, seconds in enumerate(r["reads"])],
        )
        reads = [s * r["read_speed"] for r in rounds for s in r["reads"]]
        result.put("throughput_rps", len(reads) / sum(reads), len(reads))
        result.notes["unnormalized"]["ingest_mb_s"] = (
            xml_bytes / 1e6
            / stats.median([r["load_seconds"] for r in rounds])
        )
        result.notes["slice_speeds"] = [
            round(r["load_speed"], 4) for r in rounds
        ]
        result.notes["rounds"] = len(rounds)
        result.notes["xml_mb"] = xml_bytes / 1e6

    def teardown(self) -> dict:
        if self.child is not None:
            self.child.stop()
            self.child = None
        return {}


# -- embedded schemes -------------------------------------------------------------


class EmbeddedSchemes:
    """The paper's own table: seven mappings, one document, DOM load,
    Q1–Q16, three reconstructions — on an in-memory ``XmlRelStore`` in
    a child (so peak RSS is the program's, not the driver's).  One
    round is one load and one pass per scheme, each scheme between two
    sets of kernels; per scheme, the median over rounds is reported."""

    name = "embedded_schemes"

    def __init__(self, seed, sizes, workdir, corrupt=False) -> None:
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.corrupt = corrupt
        self.corpus = None
        self.expected: dict[str, str] = {}
        self.child: ChildProcess | None = None

    def setup(self) -> None:
        self.corpus = corpus_module.build_embedded_corpus(
            self.seed, self.sizes.embedded_scale
        )
        if self.sizes.full:
            corpus_module.check_pins("embedded", self.corpus)
        self.expected = {
            key: digest_pres(pres) for key, pres in self.corpus.pres.items()
        }
        self.expected.update(
            {
                key: digest_fragments(fragments)
                for key, fragments in self.corpus.fragments.items()
            }
        )
        if self.corrupt:
            self.expected["Q1"] = digest_pres([0])
        self.child = ChildProcess()
        # One round on a small document: imports done, code paths run.
        warm = corpus_module.build_embedded_corpus(self.seed, scale=0.05)
        self.child.call("embedded_round", text=warm.text, passes=1)

    def before_window(self) -> None:
        """Nothing to wake: one single-threaded child does the work."""

    def _round(self, result: Result) -> dict:
        reply = self.child.call(
            "embedded_round", text=self.corpus.text, passes=1
        )
        schemes = reply["schemes"]
        # gaps in time order: one before each scheme, one after the last
        self.kernels += [
            schemes[scheme]["kernels_before"] for scheme in spec.SCHEMES
        ] + [reply["kernels_after"]]
        for scheme in spec.SCHEMES:
            entry = schemes[scheme]
            pinned = spec.UNSUPPORTED.get(scheme, frozenset())
            result.attempted += 1
            if set(entry["unsupported"]) != set(pinned):
                result.failed += 1
                result.notes.setdefault("unsupported_drift", {})[scheme] = (
                    sorted(entry["unsupported"])
                )
            for key, digest in self.expected.items():
                if key in pinned:
                    continue
                result.attempted += 1
                if entry["digests"].get(key) != [digest]:
                    result.failed += 1
        return schemes

    def measure(self, seconds, result) -> None:
        self.kernels: list[list[float]] = []
        rounds = _rounds_until(seconds, lambda: self._round(result))
        speeds = calibrate.speeds(self.kernels)
        per_round = len(spec.SCHEMES) + 1
        for number, schemes in enumerate(rounds):
            for position, scheme in enumerate(spec.SCHEMES):
                schemes[scheme]["speed"] = speeds[number * per_round + position]
        xml_bytes = self.corpus.xml_bytes

        def summed(pick) -> tuple[float, dict]:
            """Per scheme the median over rounds of the normalized
            ``pick(entry)``; their sum, and the parts."""
            per_scheme = {
                scheme: stats.median(
                    [pick(r[scheme]) * r[scheme]["speed"] for r in rounds]
                )
                for scheme in spec.SCHEMES
            }
            return sum(per_scheme.values()), per_scheme

        load_total, _ = summed(lambda entry: entry["load"])
        result.put(
            "ingest_mb_s",
            len(spec.SCHEMES) * xml_bytes / 1e6 / load_total, len(rounds),
        )
        for metric, field_name in (
            ("query_suite_ms", "query_passes"),
            ("reconstruct_ms", "reconstruct_passes"),
        ):
            total, per_scheme = summed(lambda entry: entry[field_name][0])
            result.put(metric, total * 1e3, len(rounds))
            result.notes[metric] = {
                scheme: value * 1e3 for scheme, value in per_scheme.items()
            }
        # The driver's two generic names carry this workload's own two
        # quantities, per unit of work: ms per answered query of the
        # suite, fragments rebuilt per second of reconstruction.
        first = rounds[0]
        answered = sum(first[s]["answered"] for s in spec.SCHEMES)
        fragments = sum(first[s]["fragments"] for s in spec.SCHEMES)
        suite_ms, _n = result.metrics["query_suite_ms"]
        rebuild_ms, _n = result.metrics["reconstruct_ms"]
        result.put("latency_p50_ms", suite_ms / answered, len(rounds))
        result.put(
            "throughput_rps", fragments / (rebuild_ms / 1e3), len(rounds)
        )
        result.notes["answered_queries"] = answered
        result.notes["fragments"] = fragments
        result.notes.setdefault("unnormalized", {})["query_suite_ms"] = (
            1e3 * sum(
                stats.median([r[scheme]["query_passes"][0] for r in rounds])
                for scheme in spec.SCHEMES
            )
        )
        result.notes["slice_speeds"] = [
            round(entry["speed"], 4) for r in rounds for entry in r.values()
        ]
        stored = sum(entry["storage_bytes"] for entry in rounds[0].values())
        result.put(
            "stored_bytes_per_xml_byte",
            stored / (len(spec.SCHEMES) * xml_bytes),
        )
        result.notes["rounds"] = len(rounds)

    def teardown(self) -> dict:
        child, self.child = self.child, None
        if child is None:
            return {}
        try:
            usage = child.exit()
        finally:
            child.stop()
        return {"peak_rss_kb": usage["peak_rss_kb"]}


def punctual_open_loop(
    result: Result, offer, attempts: int = OPEN_ATTEMPTS
) -> list:
    """The one place an open loop is judged by its generator's
    lateness.  ``offer()`` runs the loop and returns its slices; if the
    generator's schedule slip (p99 over the arrivals whose lane slept)
    exceeds :data:`SLIP_LIMIT_MS` the load offered was not the stated
    one and nothing measured under it is kept: the loop is offered
    again, and after *attempts* late ones the whole run is invalid (the
    last offer's slices are returned all the same; who reports them
    says so)."""
    for attempt in range(attempts):
        slices = offer()
        slips = schedule_slip_ms(
            [sample for piece in slices for sample in piece.samples]
        )
        slip_p99 = stats.percentile(slips, 99) if slips else 0.0
        if slip_p99 <= SLIP_LIMIT_MS:
            break
    else:
        result.invalid = (
            f"generator schedule slip p99 {slip_p99:.2f} ms > "
            f"{SLIP_LIMIT_MS:g} ms on {attempts} attempts: the "
            f"offered load was not the stated one"
        )
    result.notes["sched_slip_p99_ms"] = slip_p99
    result.notes["sched_slip_n"] = len(slips)
    result.notes["open_loop_attempts"] = attempt + 1
    return slices


WORKLOAD_CLASSES = {
    cls.name: cls
    for cls in (PointRead, ScatterRead, MixedRw, BulkIngest, EmbeddedSchemes)
}


def run_workload(
    name: str, seed: int, seconds: float,
    sizes: Sizes | None = None, corrupt: bool = False,
) -> Result:
    """Set up ``sizes.setups`` times (median → ``setup_s``), measure
    once for *seconds*, check every answer."""
    sizes = sizes or Sizes()
    result = Result(name, seed, seconds)
    workload_class = WORKLOAD_CLASSES[name]
    setup_seconds, setup_raw, load_seconds, stored = [], [], [], []
    table = calibrate.make_table()
    calibrate.kernel(table)
    with WorkDir() as workdir:
        workload = None
        try:
            for attempt in range(sizes.setups):
                workload = workload_class(seed, sizes, workdir, corrupt)
                kernels = calibrate.kernels(table)
                started = time.perf_counter()
                workload.setup()
                elapsed = time.perf_counter() - started
                # Set-up runs here and in the child by turns: kernels
                # from both sides of it, plus the child's own.
                kernels += calibrate.kernels(table)
                kernels += getattr(workload, "load_kernels", [])
                setup_seconds.append(elapsed * calibrate.speed(kernels))
                setup_raw.append(elapsed)
                load = getattr(workload, "load_seconds", None)
                if load:
                    load_seconds.append(load)
                if attempt < sizes.setups - 1:
                    torn = workload.teardown()
                    if "stored_bytes" in torn:
                        stored.append(torn["stored_bytes"])
            workload.before_window()
            cpu_before = time.process_time()
            wall_before = time.perf_counter()
            workload.measure(seconds, result)
            wall = time.perf_counter() - wall_before
            result.notes["client_cpu_share"] = (
                (time.process_time() - cpu_before) / wall
            )
            result.notes["window_seconds"] = wall
            result.notes.setdefault("unnormalized", {})["setup_s"] = (
                stats.median(setup_raw)
            )
            torn = workload.teardown()
        finally:
            if workload is not None:
                workload.teardown()
    result.put("setup_s", stats.median(setup_seconds), len(setup_seconds))
    if load_seconds:
        # A serving workload ingests in set-up only, and the driver wants
        # a number under this name from every run: the corpus over the
        # whole set-up.  The load alone (two store_corpus calls of 2.5 s
        # on four loader threads) spread up to 28 % over ten runs, wider
        # than any bound on offer; it stays in the notes, and what gates
        # store_corpus is bulk_ingest.
        megabytes = workload.corpus.xml_bytes / 1e6
        result.put(
            "ingest_mb_s", megabytes / stats.median(setup_seconds),
            len(setup_seconds),
        )
        result.notes["setup_load_mb_s"] = (
            megabytes / stats.median(load_seconds)
        )
    if "stored_bytes" in torn:
        # Throw-away set-ups closed before any write; prefer those so
        # mixed_rw's ratio is the loaded corpus, not the churned one.
        stored = stored or [torn["stored_bytes"]]
        result.put(
            "stored_bytes_per_xml_byte",
            stats.median(stored) / workload.corpus.xml_bytes, len(stored),
        )
    if "peak_rss_kb" in torn:
        result.put("peak_rss_mb", torn["peak_rss_kb"] / 1024.0)
    result.put(
        "failed_share",
        result.failed / result.attempted if result.attempted else 1.0,
        result.attempted,
    )
    return result
