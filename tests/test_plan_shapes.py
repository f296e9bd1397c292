"""Plan shapes, read off ``EXPLAIN QUERY PLAN``: every structural join
the translators emit is an index probe.

For the benchmark workload (Q1–Q16 on the auction document, D1–D6 on
DBLP) under all seven schemes, the translated statement (``sql_for``,
the one the sweep lints) and the statements ``query_pres`` runs
(``store.explain()``) must show

* no ``AUTOMATIC … INDEX`` over a stored table or view — sqlite
  building, per execution, the index the schema should have had (an
  automatic index over a *CTE result*, such as the closure ``c1`` of
  edge Q5, is its hash join and is fine);
* no ``MATERIALIZE binary_edges`` — the 48-arm partition view copied
  out to answer a step that names its partition;

except on :data:`repro.analysis.sweep.DECLARED_CLOSURES`, the cells
where that *is* the mapping's published cost.  On top of that, XRel's
region containment reads a ``start`` range and Universal is driven from
its path catalog.  The shapes are the same at sf 0.02 and sf 0.5, so the
small documents do.

The checks here read the plan text themselves; that the sweep's ``P007``
sees what they see is asserted last.
"""

import re

import pytest

from repro import XmlRelStore
from repro.analysis.sqllint import lint_query_plan
from repro.analysis.sweep import DECLARED_CLOSURES, corpora
from repro.core.registry import available_schemes
from repro.errors import UnsupportedQueryError
from repro.obs.report import Explanation
from repro.relational.schema import quote_identifier
from repro.storage.binary import partition_table_name
from repro.workloads import AUCTION_QUERIES
from repro.xml import parse_document

from tests.conftest import BIB_XML
from tests.test_extended_axes import ANCESTOR_QUERIES, SIBLING_QUERIES

SCHEMES = available_schemes()

_RELATION = re.compile(r'(?:FROM|JOIN) "?(\w+)"?(?: AS "?(\w+)"?)?')
_AUTOMATIC = re.compile(r"(?:SEARCH|SCAN) (\S+) USING AUTOMATIC .*INDEX")


@pytest.fixture(scope="module")
def workload():
    """``(explained, executed)`` for every translatable cell.

    ``explained`` maps ``(corpus, scheme, query key)`` to
    ``(Explanation, stored relation names, P007 diagnostics)`` of the
    translator's single statement (``sql_for``) — the one the sweep
    lints.  ``executed`` maps the same cells to ``(Explanation, stored
    relation names)`` of what ``query_pres`` runs (``store.explain``):
    edge and binary expand a mid-path ``//`` over their label paths."""
    explained, executed = {}, {}
    for corpus, document, dtd, queries in corpora():
        for scheme in SCHEMES:
            kwargs = {"dtd": dtd} if scheme == "inlining" else {}
            with XmlRelStore.open(scheme=scheme, **kwargs) as store:
                doc_id = store.store(document, corpus)
                stored = {
                    name.lower() for (name,) in store.db.query(
                        "SELECT name FROM sqlite_master "
                        "WHERE type IN ('table', 'view')"
                    )
                }
                translator = store.scheme.translator()
                for spec in queries:
                    cell = corpus, scheme, spec.key
                    try:
                        sql, params = translator.sql_for(doc_id, spec.xpath)
                    except UnsupportedQueryError:
                        continue
                    explanation = Explanation(
                        spec.xpath, scheme, sql, tuple(params),
                        tuple(store.db.explain_plan(sql, params)),
                    )
                    explained[cell] = (
                        explanation,
                        stored,
                        lint_query_plan(
                            translator.translate(doc_id, spec.xpath),
                            explanation.plan,
                            store.db.schema_catalog(),
                        ),
                    )
                    executed[cell] = (
                        store.explain(doc_id, spec.xpath), stored,
                    )
    return explained, executed


@pytest.fixture(scope="module")
def explained(workload):
    return workload[0]


@pytest.fixture(scope="module")
def executed(workload):
    return workload[1]


def rescans(explanation, stored):
    """The plan lines that redo per execution what an index or a
    partition would have answered."""
    on_stored = {
        (alias or table).lower()
        for table, alias in _RELATION.findall(explanation.sql)
        if table.lower() in stored
    }
    found = []
    for line in explanation.plan:
        automatic = _AUTOMATIC.match(line)
        if automatic and automatic.group(1).lower() in on_stored:
            found.append(line)
        if line == "MATERIALIZE binary_edges":
            found.append(line)
    return found


def test_the_whole_workload_was_explained(explained):
    # 22 queries x 7 schemes, minus the pinned refusals: universal and
    # xrel on the positional Q13 / Q14, universal on the wildcard D4.
    assert len(explained) == 22 * 7 - 5


def test_no_run_time_index_and_no_materialized_partition_view(explained):
    offenders = {
        cell: rescans(explanation, stored)
        for cell, (explanation, stored, _) in explained.items()
        if cell not in DECLARED_CLOSURES
    }
    assert {cell: lines for cell, lines in offenders.items() if lines} == {}


def test_the_declared_closures_still_need_declaring(explained):
    for cell in DECLARED_CLOSURES:
        explanation, stored, _ = explained[cell]
        assert "MATERIALIZE binary_edges" in rescans(explanation, stored), cell


def test_what_runs_rescans_only_where_declared(executed):
    offenders = {
        cell: rescans(explanation, stored)
        for cell, (explanation, stored) in executed.items()
        if cell not in DECLARED_CLOSURES
    }
    assert {cell: lines for cell, lines in offenders.items() if lines} == {}


def test_binary_q5_runs_expanded_without_the_partition_view(executed):
    # Its translated statement is a declared closure; what query_pres
    # runs is the label-path expansion, which names each partition.
    explanation, stored = executed["auction", "binary", "Q5"]
    assert "WITH RECURSIVE" not in explanation.sql
    assert "MATERIALIZE binary_edges" not in rescans(explanation, stored)


def test_an_automatic_index_over_a_cte_result_is_allowed(explained):
    explanation, stored, findings = explained["auction", "edge", "Q5"]
    assert any(_AUTOMATIC.match(line) for line in explanation.plan)
    assert rescans(explanation, stored) == []
    assert findings == ()


def test_xrel_containment_is_a_start_range(explained):
    """Every probe of a node table after the first — step joins and
    predicate sub-selects alike — is bounded on both sides, unless the
    planner found a point probe of a value index cheaper still (D4's
    ``@key = 'article/1'``)."""
    probes = re.compile(r"SEARCH (x\d+(?:_v)?) USING (?:COVERING )?INDEX")
    joined = 0
    for (_, scheme, key), (explanation, _, _) in explained.items():
        if scheme != "xrel":
            continue
        for line in explanation.plan:
            probe = probes.match(line)
            if not probe or probe.group(1) == "x0":
                continue
            if "_value (doc_id=? AND name=? AND value=?)" in line:
                continue
            joined += 1
            assert (
                "_region (doc_id=? AND path_id=? AND start>? AND start<?)"
                in line
            ), (key, line)
    # Q7–Q12 and Q15 have a predicate and a step below it; D2, D3, D6 too.
    assert joined >= 20


def test_universal_is_driven_from_its_path_catalog(explained):
    for (_, scheme, key), (explanation, _, _) in explained.items():
        if scheme != "universal":
            continue
        plan = explanation.plan
        assert plan[0] == "SCAN p", (key, plan)
        assert plan[1].startswith(
            "SEARCH u USING INDEX universal_path (doc_id=? AND path_id=?)"
        ), (key, plan)
        for line in plan:
            if line.startswith(("SEARCH u2", "SCAN u2")):
                assert "USING INDEX universal_path" in line, (key, plan)
        assert "CORRELATED" not in " ".join(plan), (key, plan)


def test_binary_kind_tests_read_their_partition(explained):
    explanation, _, _ = explained["auction", "binary", "Q16"]
    assert not any("UNION ALL" in line for line in explanation.plan)
    assert "b_text_" in explanation.sql


# -- positions: counts that stop once decided -------------------------------------
#
# Q13 (``open_auction[1]``) and Q14 (``bidder[2]``) count earlier
# siblings, and every such count reads at most n of them: ``(SELECT
# COUNT(*) FROM (… LIMIT n))``.  The sibling select is one probe of the
# parent link's index, and the bound adds no join.

_BOUNDED_COUNT = re.compile(
    r"\(SELECT COUNT\(\*\) FROM \(SELECT 1\n(?:(?!COUNT\(\*\)).)*?"
    r"\n\s*LIMIT (\d+)\)\)",
    re.S,
)

#: The sibling probe per mapping: (index, parent column in its key).
#: Edge keys the parent in two indexes and sqlite picks either by size;
#: binary probes the step's partition.
SIBLING_PROBE = {
    "edge": (r"edge_(?:source|label)", "source"),
    "binary": ("{partition}_source", "source"),
    "interval": ("accel_parent", "parent_pre"),
    "dewey": ("dewey_parent", "parent_label"),
}

#: ``join_count`` of Q13 / Q14 before the bound existed (subqueries in
#: ``JOIN … ON`` conditions counted, as in WHERE).
POSITION_JOINS = {
    "edge": (5, 5), "binary": (5, 5), "interval": (5, 5), "dewey": (5, 5),
    "inlining": (3, 3),
}


@pytest.mark.parametrize("scheme", sorted(POSITION_JOINS))
@pytest.mark.parametrize("key,label,n", [
    ("Q13", "open_auction", 1), ("Q14", "bidder", 2),
])
def test_positions_count_no_further_than_n(explained, scheme, key, label, n):
    explanation, _, _ = explained["auction", scheme, key]
    bounds = _BOUNDED_COUNT.findall(explanation.sql)
    assert bounds == [str(n)], explanation.sql
    assert explanation.sql.count("COUNT(*)") == 1, explanation.sql
    if scheme in SIBLING_PROBE:
        index, column = SIBLING_PROBE[scheme]
        index = index.format(partition=partition_table_name(label))
        probe = re.compile(
            rf"SEARCH \w+_pos USING (?:COVERING )?INDEX {index} "
            rf"\(doc_id=\? AND (?:\w+=\? AND )*{column}=\?"
        )
        assert any(probe.match(line) for line in explanation.plan), (
            explanation.plan
        )


@pytest.mark.parametrize("scheme", sorted(POSITION_JOINS))
def test_the_bound_adds_no_join(auction_stores, scheme):
    store, doc_id = auction_stores[scheme]
    translator = store.scheme.translator()
    queries = {spec.key: spec.xpath for spec in corpora()[0][3]}
    assert tuple(
        translator.join_count(doc_id, queries[key]) for key in ("Q13", "Q14")
    ) == POSITION_JOINS[scheme]


# -- partial indexes ----------------------------------------------------------------
#
# The value, content and name indexes hold only rows whose indexed
# column is not NULL.  sqlite picks such an index only for a query that
# implies ``col IS NOT NULL``; every generated probe is a comparison
# against a bound value, which does.

#: The partial indexes each mapping declares, by name; binary's are per
#: partition, matched by their suffix.
PARTIAL_INDEXES = {
    "edge": {"edge_content", "edge_value"},
    "binary": {"_content", "_value"},
    "interval": {"accel_name", "accel_content", "accel_value"},
    "dewey": {"dewey_name", "dewey_content", "dewey_value"},
    "xrel": {"xrel_element_content"},
    "universal": set(),
    "inlining": set(),
}

#: The one-hop point lookups and the partial index each must probe.
POINT_LOOKUPS = {
    "edge": {"Q7": "edge_value", "D2": "edge_content"},
    "binary": {
        "Q7": partition_table_name("id") + "_value",
        "D2": partition_table_name("year") + "_content",
    },
    "interval": {"Q7": "accel_value", "D2": "accel_content"},
    "dewey": {"Q7": "dewey_value", "D2": "dewey_content"},
}


def declared_partial(scheme, index_name):
    if scheme == "binary":
        return index_name.startswith("b_") and index_name.endswith(
            tuple(PARTIAL_INDEXES["binary"])
        )
    return index_name in PARTIAL_INDEXES[scheme]


@pytest.fixture(scope="module")
def auction_stores():
    """Every scheme with the sweep's auction document stored."""
    corpus, document, dtd, _queries = corpora()[0]
    stores = {}
    for scheme in SCHEMES:
        kwargs = {"dtd": dtd} if scheme == "inlining" else {}
        store = XmlRelStore.open(scheme=scheme, **kwargs)
        stores[scheme] = (store, store.store(document, corpus))
    yield stores
    for store, _doc_id in stores.values():
        store.close()


@pytest.mark.parametrize("scheme,key", [
    (scheme, key) for scheme, keys in POINT_LOOKUPS.items() for key in keys
])
def test_point_lookups_search_the_partial_index(explained, scheme, key):
    corpus = "auction" if key.startswith("Q") else "dblp"
    index = POINT_LOOKUPS[scheme][key]
    column = "value" if index.endswith("_value") else "content"
    probe = re.compile(
        rf"SEARCH \w+ USING (?:COVERING )?INDEX {index} \(.*{column}=\?\)$"
    )
    plan = explained[corpus, scheme, key][0].plan
    assert any(probe.match(line) for line in plan), plan


def test_xrel_content_probe_searches_its_partial_index(auction_stores):
    # XRel's Q7 and D2 read a start range below the path catalog, so the
    # content lookup is pinned as the statement itself.
    store, doc_id = auction_stores["xrel"]
    plan = store.db.explain_plan(
        "SELECT start FROM xrel_element "
        "WHERE doc_id = ? AND name = ? AND content = ?",
        (doc_id, "city", "Berlin"),
    )
    assert plan == [
        "SEARCH xrel_element USING INDEX xrel_element_content "
        "(doc_id=? AND name=? AND content=?)"
    ]


def test_a_null_probe_cannot_use_the_partial_index(auction_stores):
    store, doc_id = auction_stores["interval"]
    plan = store.db.explain_plan(
        "SELECT pre FROM accel WHERE doc_id = ? AND name IS NULL", (doc_id,)
    )
    assert plan and not any("accel_name" in line for line in plan), plan


@pytest.mark.parametrize("scheme", SCHEMES)
def test_exactly_the_declared_indexes_are_partial(auction_stores, scheme):
    store, _doc_id = auction_stores[scheme]
    flags = {
        name: bool(partial)
        for table in store.db.table_names()
        for _seq, name, _unique, _origin, partial in store.db.query(
            f"PRAGMA index_list({quote_identifier(table)})"
        )
    }
    assert flags == {
        name: declared_partial(scheme, name) for name in flags
    }
    declared = {name for name, partial in flags.items() if partial}
    if scheme == "binary":
        # two per partition
        assert len(declared) == 2 * len(store.scheme.partitions())
    else:
        assert declared == PARTIAL_INDEXES[scheme]


def test_p007_reports_exactly_what_the_plans_show(explained):
    for cell, (explanation, stored, findings) in explained.items():
        assert sorted(d.location for d in findings) == sorted(
            set(rescans(explanation, stored))
        ), cell
        assert {d.code for d in findings} <= {"P007"}
        assert not any(d.is_error for d in findings)


# -- one statement builder: a recursive CTE only where a closure is needed -------
#
# Edge and binary build every step as a self-join; a closure — a ``//``
# below the first step that the label paths did not expand, or an
# ancestor axis — is the one recursive CTE, seeded by the steps before it.

CLOSURE_SCHEMES = ("edge", "binary")


@pytest.fixture(scope="module")
def bib_stores():
    stores = {}
    for scheme in CLOSURE_SCHEMES:
        store = XmlRelStore.open(scheme=scheme)
        stores[scheme] = (store, store.store(parse_document(BIB_XML), "bib"))
    yield stores
    for store, _doc_id in stores.values():
        store.close()


@pytest.mark.parametrize("scheme", CLOSURE_SCHEMES)
def test_steps_run_as_joins_without_a_cte(auction_stores, bib_stores, scheme):
    cases = [
        (auction_stores[scheme], spec.xpath) for spec in AUCTION_QUERIES
    ] + [(bib_stores[scheme], xpath) for xpath in SIBLING_QUERIES]
    for (store, doc_id), xpath in cases:
        plans, _cached = store.scheme.translator().plans_for(doc_id, xpath)
        assert plans, xpath
        for plan in plans:
            assert "WITH" not in plan.sql, (xpath, plan.sql)


@pytest.mark.parametrize("scheme", CLOSURE_SCHEMES)
def test_closures_stay_recursive_ctes(auction_stores, bib_stores, scheme):
    store, doc_id = bib_stores[scheme]
    translator = store.scheme.translator()
    for xpath in ANCESTOR_QUERIES:
        plans, _cached = translator.plans_for(doc_id, xpath)
        assert [plan.sql.count("WITH RECURSIVE") for plan in plans] == [1], (
            xpath
        )
    store, doc_id = auction_stores[scheme]
    sql, _params = store.scheme.translator().sql_for(
        doc_id, "/site/open_auctions//date"
    )
    assert sql.count("WITH RECURSIVE") == 1, sql
