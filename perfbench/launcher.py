"""The process perfbench measures: store + gateway in a child.

Serving workloads must not share a GIL with the load generator, bulk
ingest must start from a fresh process for its peak RSS to mean
anything, so every workload runs the program in a child started from
this file.  The parent speaks one JSON object per line on the child's
stdin and reads one JSON reply per command from its stdout; only the
program's public surface is called here (``ShardedStore``,
``XmlRelStore``, ``serve_gateway``, ``store.metrics.snapshot()`` ...).
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import threading
import time
from pathlib import Path

if __name__ == "__main__":  # started by path: make ``perfbench`` importable
    sys.path.insert(
        0, os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )

from perfbench import ensure_repro_importable

ensure_repro_importable()

from repro import (  # noqa: E402
    ShardedStore,
    UnsupportedQueryError,
    XmlRelStore,
    parse_fragment,
)
from repro.workloads import AUCTION_QUERIES, auction_dtd  # noqa: E402

from perfbench import calibrate, spec  # noqa: E402


def directory_bytes(directory: str) -> int:
    return sum(
        entry.stat().st_size for entry in os.scandir(directory)
        if entry.is_file()
    )


def digest_pres(pres) -> str:
    return hashlib.sha256(
        ",".join(map(str, pres)).encode("ascii")
    ).hexdigest()


def digest_fragments(fragments) -> str:
    digest = hashlib.sha256()
    for fragment in fragments:
        digest.update(fragment.encode("utf-8"))
        digest.update(b"\0")
    return digest.hexdigest()


def seen(entry: dict, key: str, digest: str) -> None:
    """Record *digest* among the distinct answers given for *key* (the
    parent requires exactly one, equal to the expected one)."""
    digests = entry["digests"].setdefault(key, [])
    if digest not in digests:
        digests.append(digest)


class Writer(threading.Thread):
    """``mixed_rw``'s write stream: insert/delete pairs of one fragment
    on a due-time schedule (operation *k* is due at ``start + k/rate``;
    its latency is timed from then, so a stalled update charges the
    ones queued behind it)."""

    def __init__(self, store, rate, pairs, fragment_xml) -> None:
        super().__init__(name="perfbench-writer", daemon=True)
        self.store = store
        self.rate = rate
        self.pairs = pairs  # [(doc_id, parent_pre), ...]
        self.fragment = parse_fragment(fragment_xml)
        self.stop_requested = threading.Event()
        #: ``[due (perf_counter), seconds from due to done]`` per update.
        self.inserts: list[list[float]] = []
        self.deletes: list[list[float]] = []
        self.slip_ms: list[float] = []
        self.rows_touched = 0
        self.errors: list[str] = []

    def run(self) -> None:
        start = time.perf_counter()
        operation = 0
        for doc_id, parent_pre in self.pairs:
            if self.stop_requested.is_set():
                break
            # A pair always completes: the run must end with every
            # document back in its original state.
            for insert in (True, False):
                due = start + operation / self.rate
                operation += 1
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                    self.slip_ms.append(
                        (time.perf_counter() - due) * 1e3
                    )
                try:
                    if insert:
                        stats = self.store.insert_subtree(
                            doc_id, parent_pre, self.fragment, 0
                        )
                    else:
                        stats = self.store.delete_subtree(
                            doc_id, parent_pre + 1
                        )
                except Exception as error:  # reported, counted as failed
                    self.errors.append(f"{type(error).__name__}: {error}")
                    continue
                elapsed = time.perf_counter() - due
                (self.inserts if insert else self.deletes).append(
                    [due, elapsed]
                )
                self.rows_touched += stats.rows_touched


class Child:
    def __init__(self) -> None:
        self.store: ShardedStore | None = None
        self.open_args: dict = {}
        self.writer: Writer | None = None
        self._kernel_table = None

    def kernels(self) -> list[float]:
        """Calibration kernels, here, in the measured process (see
        :mod:`perfbench.calibrate`)."""
        if self._kernel_table is None:
            self._kernel_table = calibrate.make_table()
            calibrate.kernel(self._kernel_table)  # first run pays setup
        return calibrate.kernels(self._kernel_table)

    def op_calibrate(self):
        return {"kernels": self.kernels()}

    # -- sharded store ------------------------------------------------------------

    def op_open(self, directory, shards=4):
        self.open_args = dict(
            directory=directory, scheme="interval", shards=shards,
            placement="round_robin", profile="durable",
        )
        started = time.perf_counter()
        self.store = ShardedStore.open(**self.open_args)
        return {"seconds": time.perf_counter() - started}

    def op_load(self, paths, names):
        kernels = self.kernels()
        started = time.perf_counter()
        doc_ids = self.store.store_corpus(
            [Path(path) for path in paths], names=names
        )
        seconds = time.perf_counter() - started
        return {
            "seconds": seconds, "kernels": [kernels, self.kernels()],
            "doc_ids": doc_ids,
        }

    def op_serve(self):
        return {"port": self.store.serve_gateway().port}

    def op_close(self):
        directory = self.store.directory
        self.store.close()
        self.store = None
        return {"stored_bytes": directory_bytes(directory)}

    def op_reopen(self):
        self.store = ShardedStore.open(**self.open_args)
        return {}

    def op_reads(self, requests, passes):
        """Doc-scoped ``query_pres`` calls, timed one by one, kernels
        before and after; answers go back as digests (the parent holds
        the expected ones)."""
        calls, digests = [], []
        kernels = self.kernels()
        for _ in range(passes):
            for doc_id, xpath in requests:
                started = time.perf_counter()
                pres = self.store.query_pres(doc_id, xpath)
                calls.append(time.perf_counter() - started)
                digests.append(digest_pres(pres))
        return {
            "calls": calls, "digests": digests,
            "kernels": [kernels, self.kernels()],
        }

    def op_writer_start(self, rate, pairs, fragment):
        self.writer = Writer(self.store, rate, pairs, fragment)
        self.writer.start()
        return {}

    def op_writer_stop(self):
        writer, self.writer = self.writer, None
        writer.stop_requested.set()
        writer.join(timeout=60.0)
        return {
            "finished": not writer.is_alive(),
            "inserts": writer.inserts,
            "deletes": writer.deletes,
            "slip_ms": writer.slip_ms,
            "rows_touched": writer.rows_touched,
            "errors": writer.errors,
        }

    def op_verify(self):
        return {"ok": self.store.verify_ok()}

    def op_stats(self):
        store = self.store
        gateway = store.serve_gateway()
        return {
            "gateway": gateway.snapshot(),
            "metrics": store.metrics.snapshot(),
            "pools": {
                str(shard): pool.stats()
                for shard, pool in store.pools.items()
            },
        }

    # -- embedded schemes ---------------------------------------------------------

    def op_embedded_round(self, text, passes):
        """One round of ``embedded_schemes``: per scheme a fresh
        in-memory store, ``store_text`` (DOM lane), *passes* of Q1–Q16
        ``query_pres`` and of the reconstruction set ``query_xml``.
        Kernels run before each scheme and after the last, so every
        scheme's timings can be normalized by the speed around them."""
        result = {}
        for scheme in spec.SCHEMES:
            kernels = self.kernels()
            kwargs = {"dtd": auction_dtd()} if scheme == "inlining" else {}
            started = time.perf_counter()
            store = XmlRelStore.open(
                scheme=scheme, profile="bulk_load", **kwargs
            )
            doc_id = store.store_text(text)
            entry = {
                "kernels_before": kernels,
                "load": time.perf_counter() - started,
                "storage_bytes": store.storage_bytes(),
                "query_passes": [], "reconstruct_passes": [],
                "answered": 0, "fragments": 0,
                "digests": {}, "unsupported": [],
            }
            with store:
                for _ in range(passes):
                    suite = 0.0
                    entry["answered"] = entry["fragments"] = 0
                    for query in AUCTION_QUERIES:
                        if query.key in entry["unsupported"]:
                            continue
                        started = time.perf_counter()
                        try:
                            pres = store.query_pres(doc_id, query.xpath)
                        except UnsupportedQueryError:
                            entry["unsupported"].append(query.key)
                            continue
                        elapsed = time.perf_counter() - started
                        suite += elapsed
                        entry["answered"] += 1
                        seen(entry, query.key, digest_pres(pres))
                    entry["query_passes"].append(suite)
                    rebuilt = 0.0
                    for key, xpath in spec.RECONSTRUCT_QUERIES.items():
                        if key in entry["unsupported"]:
                            continue
                        started = time.perf_counter()
                        try:
                            fragments = store.query_xml(doc_id, xpath)
                        except UnsupportedQueryError:
                            entry["unsupported"].append(key)
                            continue
                        elapsed = time.perf_counter() - started
                        rebuilt += elapsed
                        entry["fragments"] += len(fragments)
                        seen(entry, key, digest_fragments(fragments))
                    entry["reconstruct_passes"].append(rebuilt)
            result[scheme] = entry
        return {"schemes": result, "kernels_after": self.kernels()}

    # -- lifecycle ----------------------------------------------------------------

    def op_exit(self):
        if self.store is not None:
            self.store.close()
            self.store = None
        usage = resource.getrusage(resource.RUSAGE_SELF)
        return {
            "peak_rss_kb": usage.ru_maxrss,
            "cpus": sorted(os.sched_getaffinity(0)),
            "exit": True,
        }


def main() -> int:
    child = Child()
    # Replies own the real stdout; anything the program prints goes to
    # stderr so it cannot corrupt the protocol.
    replies = os.fdopen(os.dup(sys.stdout.fileno()), "w", encoding="utf-8")
    sys.stdout = sys.stderr
    for line in sys.stdin:
        command = json.loads(line)
        op = command.pop("op")
        try:
            reply = getattr(child, f"op_{op}")(**command)
            reply["ok"] = True
        except Exception as error:  # the parent decides what a failure means
            reply = {
                "ok": False, "error": f"{type(error).__name__}: {error}",
            }
        replies.write(json.dumps(reply) + "\n")
        replies.flush()
        if reply.get("exit"):
            break
    else:
        # stdin closed without an exit command: the parent died.
        child.op_exit()
    return 0


if __name__ == "__main__":
    sys.exit(main())
