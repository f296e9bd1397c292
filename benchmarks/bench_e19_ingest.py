"""E19 — streaming ingest: constant-memory shredding, per-shard bulk load.

Exercises the PR-8 ingest pipeline end to end on a tiled synthetic
auction corpus (one generated document's body repeated K times per
file, so a multi-hundred-MB corpus costs one small DOM to build):

* **memory-bounded load** — ``store_corpus`` over the whole corpus on
  a WAL (``durable``) store: file handles feed the chunked scanner,
  the SAX shredder numbers nodes at close time, and per-shard bulk
  sessions insert as events arrive.  Peak-RSS growth must stay under a
  fixed budget **smaller than a single corpus file's DOM** — the
  memory bound a tree-building loader cannot meet, demonstrated right
  after by DOM-parsing one file and watching RSS blow through the same
  budget.  (``ru_maxrss`` is monotonic, so the low-memory contender
  must run first; the ``bulk_load`` profile is excluded here because
  its in-RAM rollback journal and temp-store sorter — speed knobs, not
  pipeline state — would dominate the reading.)
* **ingest throughput** — the same corpus under the ``bulk_load``
  profile: a per-document loop (``parse_document`` + ``store()``)
  versus ``store_corpus`` at 4 shards.  Since PR 14 both shred through
  the one stream lane, so the ratio no longer compares two writers: it
  is what the corpus loader buys over the naive loop, which still pays
  a DOM per file, a commit and an ``ANALYZE`` per document, and
  incrementally maintained indexes.  Normalized MB/s must favor
  ``store_corpus`` by ``XMLREL_E19_MIN_SPEEDUP`` (default 1.5x): it
  skips tree construction entirely, produces every shard's rows on one
  thread (no interpreter-lock convoy), defers index builds to one
  rebuild per shard, and overlaps only the shards' session closes
  (index rebuild, COMMIT, ANALYZE — long C calls that drop the GIL).
* **telemetry** — the ``ingest.*`` instruments (documents, rows,
  per-shard load seconds) recorded during the streaming run land in
  the JSON report.

Writes ``benchmarks/results/BENCH_PR8.json`` for the CI ingest-smoke
job.  Scale knobs (``XMLREL_E19_*``) let CI run a reduced corpus.
"""

import json
import os
import shutil
from pathlib import Path

from repro.bench import ExperimentResult, write_report
from repro.serve import ShardedStore
from repro.workloads import generate_auction
from repro.xml import parse_document, serialize

from benchmarks.conftest import SEED, measure_throughput, peak_rss_kb

RESULTS_PATH = os.path.join(
    os.path.dirname(__file__), "results", "BENCH_PR8.json"
)

SCHEME = "interval"


def _env_int(name, default):
    return int(os.environ.get(name, default))


def _env_float(name, default):
    return float(os.environ.get(name, default))


#: Scale factor of the tile document each corpus file repeats.
TILE_SCALE = _env_float("XMLREL_E19_TILE_SCALE", 1.0)
#: Body repetitions per corpus file (file size ~= TILES x tile size).
TILES = _env_int("XMLREL_E19_TILES", 80)
#: Corpus files (streamed by every phase).
FILES = _env_int("XMLREL_E19_FILES", 6)
#: Files the per-document loop loads (it is ~2x slower per MB, so it
#: reads a prefix and rates are compared per MB).
DOM_FILES = _env_int("XMLREL_E19_DOM_FILES", 2)
SHARDS = _env_int("XMLREL_E19_SHARDS", 4)
#: The fixed memory budget (MiB of peak-RSS growth) the streaming load
#: must meet and a single-file DOM parse must not.
RSS_BUDGET_MB = _env_float("XMLREL_E19_RSS_BUDGET_MB", 150.0)
#: Required ``store_corpus``-vs-per-document-loop throughput ratio
#: (per MB).  Re-derived in PR 14, when the loop stopped having a
#: slower writer of its own: measured 2.18x at full scale and
#: 2.15-2.20x at the CI scale (2.55x at the parent commit, same
#: machine); the floor sits ~30 % under that because the loop is one
#: unrepeated timing and the two ``store_corpus`` phases of a single
#: run already differ by 7-8 %.
MIN_SPEEDUP = _env_float("XMLREL_E19_MIN_SPEEDUP", 1.5)


def _build_corpus(directory):
    """Tile one generated auction document into FILES large files.

    Repeating the ``<site>`` body K times keeps the markup density and
    element mix of the workload while the only DOM ever built is the
    small tile — the corpus on disk can dwarf this process's memory.
    """
    tile = serialize(generate_auction(TILE_SCALE, seed=SEED))
    open_end = tile.index(">", tile.index("<site")) + 1
    close_start = tile.rindex("</site>")
    head = tile[:open_end]
    inner = tile[open_end:close_start]
    tail = tile[close_start:]
    paths = []
    for index in range(FILES):
        path = os.path.join(directory, f"corpus-{index}.xml")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(head)
            for _ in range(TILES):
                handle.write(inner)
            handle.write(tail)
        paths.append(path)
    return paths


def _file_mb(paths):
    return sum(os.path.getsize(p) for p in paths) / 1e6


def _ingest_metrics(store):
    """The ``ingest.*`` instrument readings after a corpus load."""
    snapshot = store.metrics.snapshot()
    readings = {
        name: value
        for name, value in snapshot.get("counters", {}).items()
        if name.startswith("ingest.")
    }
    for name, stats in snapshot.get("histograms", {}).items():
        if name.startswith("ingest."):
            readings[name] = {
                "count": stats.get("count"),
                "p50": stats.get("p50"),
                "p99": stats.get("p99"),
            }
    return readings


def test_e19_ingest(tmp_path):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    paths = _build_corpus(str(corpus_dir))
    corpus_mb = _file_mb(paths)
    names = [f"corpus-{i}" for i in range(len(paths))]

    # Phase 1 — memory-bounded streaming load (must run before any
    # DOM phase: ru_maxrss never goes back down).
    wal_dir = tmp_path / "wal-store"
    with ShardedStore.open(
        str(wal_dir), scheme=SCHEME, shards=SHARDS,
        placement="round_robin", profile="durable",
    ) as wal_store:
        doc_ids, stream_wal_s, stream_rss_kb = measure_throughput(
            wal_store.store_corpus,
            [Path(p) for p in paths],
            names=names,
        )
        assert len(doc_ids) == len(paths)
        wal_metrics = _ingest_metrics(wal_store)
    stream_rss_mb = stream_rss_kb / 1024
    shutil.rmtree(wal_dir)

    # Phase 2 — the budget is real: DOM-parsing ONE corpus file busts
    # it (the whole point of shredding off the event stream).
    def _dom_parse_one():
        with open(paths[0], encoding="utf-8") as handle:
            return parse_document(handle.read())

    document, dom_parse_s, dom_parse_rss_kb = measure_throughput(
        _dom_parse_one
    )
    dom_parse_rss_mb = dom_parse_rss_kb / 1024
    del document

    # Phase 3 — ingest throughput, bulk_load profile on both sides
    # (the "dom_*" names and JSON keys predate PR 14: the loop still
    # builds a DOM per file, it just no longer has its own writer).
    dom_dir = tmp_path / "dom-store"
    dom_paths = paths[:DOM_FILES]
    with ShardedStore.open(
        str(dom_dir), scheme=SCHEME, shards=SHARDS,
        placement="round_robin", profile="bulk_load",
    ) as dom_store:
        def _dom_loop():
            for index, path in enumerate(dom_paths):
                with open(path, encoding="utf-8") as handle:
                    dom_store.store(
                        parse_document(handle.read()), names[index]
                    )

        _, dom_s, _ = measure_throughput(_dom_loop)
    dom_mb = _file_mb(dom_paths)
    shutil.rmtree(dom_dir)

    stream_dir = tmp_path / "stream-store"
    with ShardedStore.open(
        str(stream_dir), scheme=SCHEME, shards=SHARDS,
        placement="round_robin", profile="bulk_load",
    ) as stream_store:
        doc_ids, stream_s, _ = measure_throughput(
            stream_store.store_corpus,
            [Path(p) for p in paths],
            names=names,
        )
        assert len(doc_ids) == len(paths)
        stream_metrics = _ingest_metrics(stream_store)
        shard_counts = stream_store.shard_counts()
    shutil.rmtree(stream_dir)

    dom_rate = dom_mb / dom_s
    stream_rate = corpus_mb / stream_s
    speedup = stream_rate / dom_rate

    result = ExperimentResult(
        experiment="E19",
        title="Streaming ingest: constant-memory shred, per-shard bulk load",
        workload=(
            f"tiled auction corpus: {len(paths)} files x "
            f"{corpus_mb / len(paths):.0f} MB ({corpus_mb:.0f} MB); "
            f"{SHARDS}-shard {SCHEME} store"
        ),
        expectation=(
            f"streaming load stays under {RSS_BUDGET_MB:.0f} MB of "
            "RSS growth (one file's DOM does not) and beats the "
            f"parse_document + store() loop by >= {MIN_SPEEDUP:.1f}x "
            "per MB"
        ),
    )
    result.add_row(
        "stream (WAL, RSS-gated)",
        seconds=round(stream_wal_s, 2),
        mb_per_s=round(corpus_mb / stream_wal_s, 3),
        rss_growth_mb=round(stream_rss_mb, 1),
    )
    result.add_row(
        "DOM parse, 1 file",
        seconds=round(dom_parse_s, 2),
        mb_per_s=round((corpus_mb / len(paths)) / dom_parse_s, 3),
        rss_growth_mb=round(dom_parse_rss_mb, 1),
    )
    result.add_row(
        "parse_document + store() loop (bulk_load)",
        seconds=round(dom_s, 2),
        mb_per_s=round(dom_rate, 3),
    )
    result.add_row(
        "stream store_corpus (bulk_load)",
        seconds=round(stream_s, 2),
        mb_per_s=round(stream_rate, 3),
        speedup=round(speedup, 2),
    )
    write_report(result)

    payload = {
        "experiment": "E19",
        "cpu_count": os.cpu_count(),
        "scheme": SCHEME,
        "shards": SHARDS,
        "corpus": {
            "files": len(paths),
            "total_mb": round(corpus_mb, 1),
            "tile_scale": TILE_SCALE,
            "tiles_per_file": TILES,
        },
        "memory": {
            "budget_mb": RSS_BUDGET_MB,
            "stream_rss_growth_mb": round(stream_rss_mb, 1),
            "dom_parse_one_file_rss_growth_mb": round(
                dom_parse_rss_mb, 1
            ),
            "peak_rss_kb": peak_rss_kb(),
        },
        "throughput": {
            "dom_files": DOM_FILES,
            "dom_seconds": round(dom_s, 2),
            "dom_mb_per_s": round(dom_rate, 3),
            "stream_seconds": round(stream_s, 2),
            "stream_mb_per_s": round(stream_rate, 3),
            "stream_wal_seconds": round(stream_wal_s, 2),
            "speedup": round(speedup, 2),
            "min_speedup": MIN_SPEEDUP,
        },
        "ingest_metrics": {
            "wal": wal_metrics,
            "bulk_load": stream_metrics,
        },
        "shard_counts": {
            str(shard): count for shard, count in shard_counts.items()
        },
    }
    os.makedirs(os.path.dirname(RESULTS_PATH), exist_ok=True)
    with open(RESULTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")

    # Acceptance: the streaming load met the budget, the DOM parse of
    # a single file could not, every document landed, and store_corpus
    # out-ingested the per-document loop by the required factor.
    assert stream_rss_mb <= RSS_BUDGET_MB, (
        f"streaming load grew RSS by {stream_rss_mb:.0f} MB "
        f"(budget {RSS_BUDGET_MB:.0f} MB)"
    )
    assert dom_parse_rss_mb > RSS_BUDGET_MB, (
        f"DOM parse of one file only grew RSS by "
        f"{dom_parse_rss_mb:.0f} MB — raise the corpus scale so the "
        f"budget ({RSS_BUDGET_MB:.0f} MB) separates the two paths"
    )
    assert sum(shard_counts.values()) == len(paths)
    assert speedup >= MIN_SPEEDUP, (
        f"store_corpus at {stream_rate:.2f} MB/s is only "
        f"{speedup:.2f}x the per-document loop's {dom_rate:.2f} MB/s "
        f"(required {MIN_SPEEDUP:.1f}x)"
    )
