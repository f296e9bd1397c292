"""Seeded inputs and the answers they must produce.

Everything a workload feeds the program is generated here from
``--seed``: the documents, the request sequence, the update fragment.
Expected answers come from the in-memory evaluator
(``evaluate_nodes(...).order_key``) on the generated documents — the
program under test never sees anything but the generated inputs, and
perfbench never asks the program what the right answer is.

At the default seed the corpus digest and per-query row counts are
pinned in ``pins.json``; a change to ``repro.workloads`` or to the
evaluator then fails loudly as *workload drifted* instead of silently
shifting every number.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field

from repro import evaluate_nodes, serialize
from repro.workloads import (
    AUCTION_QUERIES,
    DBLP_QUERIES,
    generate_auction,
    generate_dblp,
)
from repro.xml.parser import parse_fragment

from perfbench import spec

PINS_PATH = os.path.join(os.path.dirname(__file__), "pins.json")

_BY_KEY = {query.key: query.xpath for query in AUCTION_QUERIES}
_DBLP_BY_KEY = {query.key: query.xpath for query in DBLP_QUERIES}

#: class → XPath of the serving mix.
MIX: dict[str, str] = {
    klass: _BY_KEY[key] for klass, key in spec.QUERY_CLASSES.items()
}

#: The ``value`` class with its literal left open (``mixed_rw`` draws
#: it from :data:`VALUE_LITERALS` so distinct plans exceed the cache).
VALUE_TEMPLATE = "/site/open_auctions/open_auction[initial > {literal}]/current"
VALUE_LITERALS = 2000

#: Queries read back from the DBLP file of the bulk corpus.
DBLP_MIX: dict[str, str] = {
    key: _DBLP_BY_KEY[key] for key in ("D1", "D2", "D5")
}

#: The subtree ``mixed_rw`` inserts under ``/site/people`` and deletes
#: again.  Fixed, so every document has exactly two legal states.
FRAGMENT_XML = (
    '<person id="perfbench0"><name>Perf Bench</name>'
    "<emailaddress>mailto:perf.bench@example.org</emailaddress>"
    "<address><street>1 Bench St</street><city>Berlin</city>"
    "<country>Germany</country></address></person>"
)


class WorkloadDrift(Exception):
    """The generated inputs no longer match their pins."""


def write_files(directory: str, names, texts) -> list[str]:
    """The corpus as the program receives it: one XML file each."""
    paths = []
    for name, text in zip(names, texts):
        path = os.path.join(directory, f"{name}.xml")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        paths.append(path)
    return paths


def doc_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def pres(document, xpath: str) -> list[int]:
    """Evaluator answer as SQL-visible node ids (the document node, id
    0, is never a SQL answer)."""
    return [
        node.order_key
        for node in evaluate_nodes(document, xpath)
        if node.order_key > 0
    ]


def value_xpath(literal: float) -> str:
    return VALUE_TEMPLATE.format(literal=f"{literal:g}")


def _value_pairs(document) -> list[tuple[float, int]]:
    """``(initial, pre of current)`` per open auction: the whole
    ``value`` class for any literal, from two evaluator answers (the
    DTD makes ``initial`` and ``current`` one-to-one per auction)."""
    initials = evaluate_nodes(
        document, "/site/open_auctions/open_auction/initial"
    )
    currents = evaluate_nodes(
        document, "/site/open_auctions/open_auction/current"
    )
    if len(initials) != len(currents):
        raise WorkloadDrift("initial/current are no longer one-to-one")
    return [
        (float(initial.string_value), current.order_key)
        for initial, current in zip(initials, currents)
    ]


@dataclass
class DocState:
    """Expected answers of one document in one state."""

    answers: dict[str, list[int]]
    value_pairs: list[tuple[float, int]] = field(default_factory=list)

    def value_answer(self, literal: float) -> list[int]:
        return [pre for initial, pre in self.value_pairs if initial > literal]


def _doc_state(document, queries, with_values: bool) -> DocState:
    return DocState(
        {xpath: pres(document, xpath) for xpath in queries},
        _value_pairs(document) if with_values else [],
    )


@dataclass
class ServeCorpus:
    """The served corpus: N auction documents and both legal states of
    each (``after`` = with :data:`FRAGMENT_XML` inserted as the first
    child of ``/site/people``)."""

    seed: int
    texts: list[str]
    names: list[str]
    before: list[DocState]
    after: list[DocState]
    #: pre of ``/site/people`` per document: the insert's parent, and
    #: (+1) the inserted subtree's root under the interval scheme.
    people_pre: list[int]

    @property
    def xml_bytes(self) -> int:
        return sum(len(text.encode("utf-8")) for text in self.texts)

    def digest(self) -> str:
        return _digest(self.texts)

    def row_counts(self) -> dict[str, int]:
        return {
            klass: sum(len(state.answers[xpath]) for state in self.before)
            for klass, xpath in MIX.items()
        }


def build_serve_corpus(
    seed: int, documents: int = 16, scale: float = 0.2,
    with_writes: bool = False,
) -> ServeCorpus:
    texts, names, before, after, people = [], [], [], [], []
    queries = list(MIX.values())
    for index in range(documents):
        document = generate_auction(scale, seed=doc_seed(seed, index))
        texts.append(serialize(document))
        names.append(f"auction-{index:02d}")
        before.append(_doc_state(document, queries, with_writes))
        people_node = evaluate_nodes(document, "/site/people")[0]
        people.append(people_node.order_key)
        if with_writes:
            people_node.insert_child(0, parse_fragment(FRAGMENT_XML))
            after.append(_doc_state(document, queries, True))
    return ServeCorpus(seed, texts, names, before, after, people)


# -- bulk corpus ------------------------------------------------------------------


@dataclass
class BulkCorpus:
    """Files on disk for ``bulk_ingest``: tiled auction files (one
    generated body repeated K times under one ``<site>``, as E19 does)
    plus one DBLP file.  ``answers[i]`` maps XPath → expected pres of
    file *i*; tiled answers are the tile's evaluator answers shifted by
    whole tiles, which ``tests/test_corpus.py`` holds equal to the
    evaluator on a parsed tiled file."""

    seed: int
    names: list[str]
    texts: list[str]
    answers: list[dict[str, list[int]]]

    @property
    def xml_bytes(self) -> int:
        return sum(len(text.encode("utf-8")) for text in self.texts)

    def digest(self) -> str:
        return _digest(self.texts)

    def row_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for per_file in self.answers:
            for xpath, rows in per_file.items():
                counts[xpath] = counts.get(xpath, 0) + len(rows)
        return counts


def tile(document, tiles: int, queries) -> tuple[str, dict[str, list[int]]]:
    """*document*'s ``<site>`` body repeated *tiles* times, and each
    query's expected pres on the tiled file."""
    text = serialize(document)
    open_end = text.index(">", text.index("<site")) + 1
    close_start = text.rindex("</site>")
    tiled = (
        text[:open_end] + text[open_end:close_start] * tiles
        + text[close_start:]
    )
    # Node ids: document 0, <site> 1, body 2..last; one tile's body
    # holds (last - 1) nodes, so tile k shifts every body id by k of
    # those.  Every mix query is tile-local (positions are counted
    # below a tile's own elements), so the union of shifts is exact.
    body_nodes = sum(1 for _ in document.iter_with_attributes()) - 2
    answers = {}
    for xpath in queries:
        base = pres(document, xpath)
        answers[xpath] = [
            pre + k * body_nodes for k in range(tiles) for pre in base
        ]
    return tiled, answers


def build_bulk_corpus(
    seed: int, auction_files: int = 3, tiles: int = 2,
    tile_scale: float = 0.5, dblp_records: int = 1800,
) -> BulkCorpus:
    names, texts, answers = [], [], []
    queries = list(MIX.values())
    for index in range(auction_files):
        document = generate_auction(
            tile_scale, seed=doc_seed(seed, 100 + index)
        )
        text, expected = tile(document, tiles, queries)
        names.append(f"auction-tiled-{index}")
        texts.append(text)
        answers.append(expected)
    dblp = generate_dblp(dblp_records, seed=doc_seed(seed, 200))
    names.append("dblp")
    texts.append(serialize(dblp))
    answers.append({xpath: pres(dblp, xpath) for xpath in DBLP_MIX.values()})
    return BulkCorpus(seed, names, texts, answers)


# -- embedded corpus --------------------------------------------------------------


@dataclass
class EmbeddedCorpus:
    """One auction document for the seven schemes, with Q1–Q16 pres and
    the serialized fragments of the reconstruction set."""

    seed: int
    text: str
    pres: dict[str, list[int]]          # query key → pres
    fragments: dict[str, list[str]]     # R-key → serialized nodes

    @property
    def xml_bytes(self) -> int:
        return len(self.text.encode("utf-8"))

    def digest(self) -> str:
        return _digest([self.text])

    def row_counts(self) -> dict[str, int]:
        counts = {key: len(rows) for key, rows in self.pres.items()}
        counts.update(
            {key: len(rows) for key, rows in self.fragments.items()}
        )
        return counts


def build_embedded_corpus(seed: int, scale: float = 0.5) -> EmbeddedCorpus:
    document = generate_auction(scale, seed=doc_seed(seed, 300))
    return EmbeddedCorpus(
        seed,
        serialize(document),
        {q.key: pres(document, q.xpath) for q in AUCTION_QUERIES},
        {
            key: [serialize(node) for node in evaluate_nodes(document, xpath)]
            for key, xpath in spec.RECONSTRUCT_QUERIES.items()
        },
    )


# -- request sequences ------------------------------------------------------------


@dataclass(frozen=True)
class Request:
    klass: str
    xpath: str
    doc: int | None = None        # index into the corpus; None = scatter
    stream: bool = False
    literal: float | None = None  # set on drawn ``value`` queries

    def body(self, doc_ids: list[int]) -> bytes:
        payload: dict = {"xpath": self.xpath}
        if self.doc is not None:
            payload["doc_id"] = doc_ids[self.doc]
        if self.stream:
            payload["stream"] = True
        return json.dumps(payload, separators=(",", ":")).encode("utf-8")


_CLASSES = tuple(MIX)


def _rng(seed: int, workload: str, lane: int) -> random.Random:
    return random.Random(f"perfbench:{seed}:{workload}:{lane}")


def _balanced(rng: random.Random, items):
    """Endless sequence of seeded shuffles of *items*: every block of
    ``len(items)`` draws holds each item once.  The class mix is then
    exactly uniform whatever the seed — an i.i.d. draw would make the
    share of expensive classes, and with it every percentile, vary by
    ±13 % between seeds over a few hundred requests."""
    block = list(items)
    while True:
        rng.shuffle(block)
        yield from block


def request_stream(workload: str, seed: int, documents: int, lane: int = 0):
    """The endless seeded request sequence of one connection (*lane*)
    of a closed-loop workload.  Same arguments, same sequence."""
    rng = _rng(seed, workload, lane)
    if workload == "scatter_read":
        for klass in _balanced(rng, _CLASSES):
            yield Request(klass, MIX[klass])
    elif workload == "mixed_rw":
        # The eight fixed classes plus a ninth draw: ``value`` with a
        # literal out of 2 000, so distinct plans (16 docs share them;
        # 2 008 XPaths) overflow the 256-entry plan cache.
        for klass in _balanced(rng, _CLASSES + (None,)):
            doc = rng.randrange(documents)
            if klass is None:
                literal = rng.randrange(VALUE_LITERALS) / 10.0
                yield Request(
                    "value", value_xpath(literal), doc, literal=literal
                )
            else:
                yield Request(klass, MIX[klass], doc)
    else:
        for klass in _balanced(rng, _CLASSES):
            yield Request(klass, MIX[klass], rng.randrange(documents))


def open_loop_requests(seed: int, count: int) -> list[Request]:
    """``scatter_read``'s open-loop arrivals: balanced class blocks,
    delivery alternating materialized / streamed."""
    rng = _rng(seed, "scatter_read.open", 0)
    # One balanced sequence per delivery, so each half sees every
    # class equally often.
    classes = (_balanced(rng, _CLASSES), _balanced(rng, _CLASSES))
    requests = []
    for index in range(count):
        klass = next(classes[index % 2])
        requests.append(Request(klass, MIX[klass], stream=bool(index % 2)))
    return requests


def write_schedule(seed: int, documents: int, count: int) -> list[int]:
    """Document index of each insert/delete pair of ``mixed_rw``."""
    rng = _rng(seed, "mixed_rw.writes", 0)
    return [rng.randrange(documents) for _ in range(count)]


# -- pins ---------------------------------------------------------------------------


def _digest(texts) -> str:
    digest = hashlib.sha256()
    for text in texts:
        digest.update(text.encode("utf-8"))
        digest.update(b"\0")
    return digest.hexdigest()


def pin_record(corpus) -> dict:
    return {"sha256": corpus.digest(), "rows": corpus.row_counts()}


def load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def check_pins(kind: str, corpus) -> None:
    """Raise :class:`WorkloadDrift` when the default-seed, full-size
    *corpus* differs from its pin.  Other seeds have no pin."""
    if corpus.seed != spec.DEFAULT_SEED:
        return
    pinned = load_pins().get(kind)
    actual = pin_record(corpus)
    if pinned != actual:
        raise WorkloadDrift(
            f"workload drifted: the {kind} corpus at seed "
            f"{spec.DEFAULT_SEED} no longer matches perfbench/pins.json "
            f"(pinned {pinned}, generated {actual}); a change to "
            f"repro.workloads or the evaluator moved the inputs — "
            f"re-pin with `python -m perfbench pins --write` only if "
            f"that was the intent, and re-measure the baseline"
        )
