"""E7 (Table 4) — update cost: insert a subtree early in the document.

A new person is inserted at the *front* of ``/site/people`` (front
insertion maximizes the following-sibling/following-node sets, which is
where the schemes diverge).  Reported per scheme: wall time, rows
inserted, rows updated.  Expected shape (the classic order-maintenance
trade-off):

* edge/binary — one ordinal bump per following sibling,
* dewey       — relabel following siblings' subtrees,
* interval    — renumber every node after the insertion point,
* xrel/universal/inlining — no update support (reported as such).
"""

import pytest

from repro.bench import ExperimentResult, write_report
from repro.core.registry import create_scheme
from repro.errors import UpdateError
from repro.relational.database import Database
from repro.updates import insert_subtree
from repro.workloads import generate_auction
from repro.xml import parse_fragment
from repro.xpath import evaluate_nodes

from benchmarks.conftest import SCHEMES, SEED, scheme_kwargs

UPDATABLE = ("edge", "binary", "interval", "dewey")

NEW_PERSON = (
    "<person id='personX'><name>New Person</name>"
    "<emailaddress>mailto:new@example.org</emailaddress></person>"
)


def _fresh_store(scheme_name, document):
    db = Database()
    scheme = create_scheme(scheme_name, db, **scheme_kwargs(scheme_name))
    doc_id = scheme.store(document, "auction").doc_id
    people_pre = evaluate_nodes(document, "/site/people")[0].order_key
    return db, scheme, doc_id, people_pre


def _front_insert(scheme_name, document):
    """(seconds, stats) of the insert alone, on a fresh store."""
    import time

    db, scheme, doc_id, people_pre = _fresh_store(scheme_name, document)
    try:
        fragment = parse_fragment(NEW_PERSON)
        started = time.perf_counter()
        stats = insert_subtree(
            scheme, doc_id, people_pre, fragment, index=0
        )
        return time.perf_counter() - started, stats
    finally:
        db.close()


@pytest.fixture(scope="module")
def update_document():
    return generate_auction(0.1, seed=SEED)


@pytest.mark.benchmark(group="e7-updates", max_time=1.0, min_rounds=3)
@pytest.mark.parametrize("scheme_name", UPDATABLE)
def test_e7_insert_time(benchmark, update_document, scheme_name):
    def setup():
        db, scheme, doc_id, people_pre = _fresh_store(
            scheme_name, update_document
        )
        fragment = parse_fragment(NEW_PERSON)
        return (scheme, doc_id, people_pre, fragment), {}

    def run(scheme, doc_id, people_pre, fragment):
        return insert_subtree(scheme, doc_id, people_pre, fragment, index=0)

    stats = benchmark.pedantic(run, setup=setup, rounds=5)
    assert stats.rows_inserted > 0


def test_e7_report(benchmark, update_document):
    result = ExperimentResult(
        experiment="E7",
        title="Insert-subtree cost (front of /site/people)",
        workload="auction sf=0.1, new person inserted at child index 0",
        expectation=(
            "rows updated: edge/binary ~ #siblings < dewey ~ sibling "
            "subtrees < interval ~ all following nodes"
        ),
    )
    rows_updated = {}
    for scheme_name in SCHEMES:
        row = result.add_row(scheme_name)
        if scheme_name not in UPDATABLE:
            row.set("supported", "no")
            continue
        seconds, stats = min(
            (_front_insert(scheme_name, update_document) for __ in range(3)),
            key=lambda pair: pair[0],
        )
        rows_updated[scheme_name] = stats.rows_updated
        row.set("supported", "yes")
        row.set("ms", seconds * 1000)
        row.set("rows inserted", stats.rows_inserted)
        row.set("rows updated", stats.rows_updated)
    write_report(result)
    benchmark(lambda: None)

    # The published ordering of update costs.
    assert (
        rows_updated["edge"]
        <= rows_updated["binary"]
        < rows_updated["dewey"]
        < rows_updated["interval"]
    )


def test_e7_unsupported_schemes(benchmark, update_document):
    def check():
        for scheme_name in ("xrel", "universal"):
            with Database() as db:
                scheme = create_scheme(scheme_name, db)
                doc_id = scheme.store(update_document, "auction").doc_id
                with pytest.raises(UpdateError):
                    insert_subtree(
                        scheme, doc_id, 1, parse_fragment(NEW_PERSON)
                    )

    benchmark.pedantic(check, rounds=1, iterations=1)
