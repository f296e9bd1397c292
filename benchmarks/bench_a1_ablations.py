"""A-series — ablations of the implementation's own design choices.

Each ablation switches one mechanism off and measures the same query:

* **A1 content cache** — value predicates on the cached text-only
  ``content`` column vs. going through the text-node rows
  (``[title = 'x']`` vs ``[title/text() = 'x']``) — the edge paper's
  "inlined values" choice.
* **A2 partition pruning** — the binary translator routed to the label
  partition vs. forced through the all-partitions view (what the scheme
  would be without its label catalog).
* **A3 semi-join rewrite** — point lookups with the uncorrelated
  IN-subquery rewrite vs. plain correlated EXISTS.
* **A4 dewey prefix range** — descendant steps as an index-usable string
  range vs. a LIKE pattern (which sqlite cannot range-seek here because
  the pattern is built from a column).
"""

import pytest

from repro.bench import ExperimentResult, time_call, write_report
from repro.core.registry import create_scheme
from repro.query.translate_binary import BinaryTranslator
from repro.query.translate_interval import IntervalTranslator
from repro.relational.database import Database
from repro.storage.binary import EDGES_VIEW
from repro.workloads import generate_dblp


def _stored_pair():
    """(interval store, binary store) over the same 4000-record dblp."""
    document = generate_dblp(4000, seed=7)
    interval_db, binary_db = Database(), Database()
    interval = create_scheme("interval", interval_db)
    binary = create_scheme("binary", binary_db)
    interval_id = interval.store(document, "dblp").doc_id
    binary_id = binary.store(document, "dblp").doc_id
    return (interval, interval_id), (binary, binary_id)


@pytest.fixture(scope="module")
def dblp_pair():
    pair = _stored_pair()
    yield pair
    for scheme, __ in pair:
        scheme.db.close()


@pytest.fixture(scope="module")
def ablated_pair():
    """A second pair for the ablated translators: a database of their
    own, so their plans never come out of the real side's plan cache
    (keyed by scheme, epoch and XPath, not by translator class)."""
    pair = _stored_pair()
    yield pair
    for scheme, __ in pair:
        scheme.db.close()


class _UnprunedBinaryTranslator(BinaryTranslator):
    """Binary translation with partition pruning disabled."""

    def step_table(self, step):
        return EDGES_VIEW

    def element_table(self, name):
        return EDGES_VIEW

    def attribute_table(self, name):
        return EDGES_VIEW

    def text_table(self):
        return EDGES_VIEW


class _NoSemiJoinIntervalTranslator(IntervalTranslator):
    """Interval translation with the IN-subquery rewrite disabled."""

    def _semi_join_rewrite(self, *args, **kwargs):
        return None


def _best_ms(translator, doc_id, query):
    return time_call(
        lambda: translator.query_pres(doc_id, query), repetitions=5
    ) * 1000


def test_a1_content_cache(benchmark, dblp_pair):
    (interval, doc_id), __ = dblp_pair
    translator = interval.translator()
    cached = "/dblp/inproceedings[booktitle = 'VLDB']/title"
    uncached = "/dblp/inproceedings[booktitle/text() = 'VLDB']/title"
    assert translator.query_pres(doc_id, cached) == translator.query_pres(
        doc_id, uncached
    )
    result = ExperimentResult(
        experiment="A1",
        title="Value predicate via content cache vs text-node rows (ms)",
        workload="dblp 4000 records, interval scheme",
        expectation="the cached column avoids one text-node join per probe",
    )
    with_cache = _best_ms(translator, doc_id, cached)
    without = _best_ms(translator, doc_id, uncached)
    result.add_row("content column", ms=with_cache)
    result.add_row("text() join", ms=without)
    write_report(result)
    benchmark(lambda: None)
    # Equal answers were asserted above; the cache must not be slower by
    # more than noise (it usually wins; both paths stay indexed).
    assert with_cache < without * 2


def _executed_sql(translator, doc_id, query):
    """The SQL text ``query_pres`` runs for *query* (single plan)."""
    (plan,), __ = translator.plans_for(doc_id, query)
    return plan.sql


def test_a2_partition_pruning(benchmark, dblp_pair, ablated_pair):
    __, (binary, doc_id) = dblp_pair
    __, (ablated, ablated_id) = ablated_pair
    pruned = binary.translator()
    unpruned = _UnprunedBinaryTranslator(ablated)
    query = "/dblp/book/publisher"  # books are ~10% of records
    assert ablated_id == doc_id
    assert pruned.query_pres(doc_id, query) == unpruned.query_pres(
        doc_id, query
    )
    # The ablation ablates: each side ran its own statement.
    assert _executed_sql(pruned, doc_id, query) != _executed_sql(
        unpruned, doc_id, query
    )
    result = ExperimentResult(
        experiment="A2",
        title="Binary mapping with vs without partition pruning (ms)",
        workload="dblp 4000 records, label-selective path",
        expectation=(
            "pruning scans two small partitions; without it every step "
            "unions all partitions"
        ),
    )
    with_pruning = _best_ms(pruned, doc_id, query)
    without = _best_ms(unpruned, doc_id, query)
    result.add_row("pruned (partitions)", ms=with_pruning)
    result.add_row("unpruned (view)", ms=without)
    write_report(result)
    benchmark(lambda: None)
    assert with_pruning < without


def test_a3_semi_join_rewrite(benchmark, dblp_pair, ablated_pair):
    (interval, doc_id), __ = dblp_pair
    (ablated, ablated_id), __ = ablated_pair
    with_rewrite = interval.translator()
    without_rewrite = _NoSemiJoinIntervalTranslator(ablated)
    query = "/dblp/article[@key = 'article/8']/title"
    assert ablated_id == doc_id
    assert with_rewrite.query_pres(doc_id, query) == (
        without_rewrite.query_pres(doc_id, query)
    )
    assert _executed_sql(with_rewrite, doc_id, query) != _executed_sql(
        without_rewrite, doc_id, query
    )
    result = ExperimentResult(
        experiment="A3",
        title="Point lookup with vs without the semi-join rewrite (ms)",
        workload="dblp 4000 records, interval scheme",
        expectation=(
            "the uncorrelated IN materializes one value-index probe; "
            "plain EXISTS probes per candidate row"
        ),
    )
    rewritten = _best_ms(with_rewrite, doc_id, query)
    plain = _best_ms(without_rewrite, doc_id, query)
    result.add_row("semi-join IN", ms=rewritten)
    result.add_row("correlated EXISTS", ms=plain)
    write_report(result)
    benchmark(lambda: None)
    assert rewritten <= plain * 1.5  # never meaningfully worse


def test_a4_dewey_prefix_range(benchmark):
    document = generate_dblp(4000, seed=7)
    with Database() as db:
        dewey = create_scheme("dewey", db)
        doc_id = dewey.store(document, "dblp").doc_id
        root_label = db.scalar(
            "SELECT label FROM dewey WHERE doc_id = ? AND parent_label "
            "IS NULL",
            (doc_id,),
        )
        range_sql = (
            "SELECT COUNT(*) FROM dewey WHERE doc_id = ? "
            "AND label > ? AND label < ? AND name = 'author'"
        )
        like_sql = (
            "SELECT COUNT(*) FROM dewey WHERE doc_id = ? "
            "AND label LIKE ? AND name = 'author'"
        )
        range_args = (doc_id, root_label + ".", root_label + "/")
        like_args = (doc_id, root_label + ".%")
        assert db.scalar(range_sql, range_args) == db.scalar(
            like_sql, like_args
        )
        range_ms = time_call(
            lambda: db.query(range_sql, range_args), repetitions=5
        ) * 1000
        like_ms = time_call(
            lambda: db.query(like_sql, like_args), repetitions=5
        ) * 1000
    result = ExperimentResult(
        experiment="A4",
        title="Dewey descendant scan: string range vs LIKE (ms)",
        workload="dblp 4000 records, all //author under the root",
        expectation=(
            "both filter identically; the explicit range states the "
            "index window directly and never depends on LIKE-prefix "
            "optimizability"
        ),
    )
    result.add_row("label range (> .., < ../)", ms=range_ms)
    result.add_row("label LIKE 'prefix.%'", ms=like_ms)
    write_report(result)
    benchmark(lambda: None)
    assert range_ms <= like_ms * 2
