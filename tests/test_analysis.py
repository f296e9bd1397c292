"""The static-analysis layer: SQL plan linter, XPath analyzer, repo lint.

Four families of tests pin the layer down:

* the *negative space* — every translated plan of the benchmark workload
  lints clean on every scheme (the CI sweep's contract, in miniature);
* the *positive space* — hand-built defective statements and repo
  fixtures trip each diagnostic code exactly (P001–P007, X001,
  L001–L005; the concurrency rules C001–C005 live in
  ``tests/test_concurrency_analysis.py``);
* the *semantics* — an unsatisfiable query executes zero SQL statements,
  and a ``//``-expanded query returns the unexpanded translation's and
  the in-memory evaluator's answer on real workload documents;
* the *gate* — xmlrel-lint runs clean over ``src/repro`` itself (which
  pins the XRel ``create_function`` reach-around fix, the one real
  finding the gate surfaced).
"""

import json
import re
from pathlib import Path

import pytest

from repro import PlanLintError, XmlRelStore
from repro.analysis import (
    SEVERITY_ADVICE,
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    Diagnostic,
    XPathAnalyzer,
    format_diagnostics,
    has_errors,
    lint_statement,
)
from repro.analysis.diagnostics import (
    collect_pragmas,
    is_suppressed,
    sorted_by_severity,
)
from repro.analysis.lint import lint_paths, main as lint_main
from repro.analysis import sweep
from repro.analysis.sqllint import lint_query_plan
from repro.analysis.xpathlint import expand_descendants
from repro.analysis.sweep import main as sweep_main, run_sweep
from repro.errors import UnsupportedQueryError, XmlRelError
from repro.obs.trace import Tracer
from repro.query.plan import plan_path
from repro.relational.sql import (
    Col,
    Comparison,
    DocParam,
    Param,
    Select,
    Union,
    WithQuery,
)
from repro.stats.pathsummary import build_summary
from repro.workloads import (
    AUCTION_QUERIES,
    DBLP_QUERIES,
    auction_dtd,
    dblp_dtd,
    generate_auction,
    generate_dblp,
)
from repro.xml import parse_document, parse_fragment
from repro.xml.dtd import parse_dtd
from repro.xpath.parser import parse_xpath
from repro.xpath import evaluate_nodes
from tests.conftest import SCHEMALESS_SCHEMES

ALL_SCHEMES = SCHEMALESS_SCHEMES + ["inlining"]

SRC_ROOT = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def auction_doc():
    return generate_auction(0.02, seed=42)


@pytest.fixture(scope="module")
def dblp_doc():
    return generate_dblp(40, seed=7)


def evaluated_pres(document, xpath):
    """The in-memory evaluator's answer as SQL returns it: order keys,
    ascending, without the document node."""
    return sorted(
        node.order_key for node in evaluate_nodes(document, xpath)
        if node.order_key > 0
    )


def open_scheme_store(name, workload="auction", tracer=None, lint="default"):
    kwargs = {}
    if name == "inlining":
        kwargs["dtd"] = (
            auction_dtd() if workload == "auction" else dblp_dtd()
        )
    return XmlRelStore.open(
        scheme=name, tracer=tracer, lint=lint, **kwargs
    )


# ---------------------------------------------------------------------------
# The negative space: every workload plan lints clean on every scheme.
# ---------------------------------------------------------------------------


class TestWorkloadPlansClean:
    @pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
    def test_auction_suite_zero_errors(self, scheme_name, auction_doc):
        with open_scheme_store(scheme_name, "auction") as store:
            doc_id = store.store(auction_doc, "auction")
            translator = store.scheme.translator()
            checked = 0
            for spec in AUCTION_QUERIES:
                try:
                    plans, _ = translator.plans_for(doc_id, spec.xpath)
                except UnsupportedQueryError:
                    continue
                checked += 1
                errors = [
                    d
                    for plan in plans
                    for d in plan.diagnostics
                    if d.is_error
                ]
                assert not errors, (
                    f"{scheme_name}/{spec.key}: "
                    + "; ".join(d.format() for d in errors)
                )
            assert checked > 0

    @pytest.mark.parametrize("scheme_name", ["edge", "interval", "xrel"])
    def test_dblp_suite_zero_errors(self, scheme_name, dblp_doc):
        with open_scheme_store(scheme_name, "dblp") as store:
            doc_id = store.store(dblp_doc, "dblp")
            translator = store.scheme.translator()
            for spec in DBLP_QUERIES:
                try:
                    plans, _ = translator.plans_for(doc_id, spec.xpath)
                except UnsupportedQueryError:
                    continue
                assert not any(
                    d.is_error for plan in plans for d in plan.diagnostics
                ), f"{scheme_name}/{spec.key}"

    @pytest.mark.parametrize("indexed", [True, False])
    @pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
    def test_deferred_verdict_equals_the_translate_time_lint(
        self, scheme_name, indexed, auction_doc
    ):
        # A cold translation defers its lint until the verdict is read.
        # Read only after the store is closed, each verdict must still
        # equal the walk over the catalog the translation saw.  Without
        # indexes, joins draw P006 advice; the indexes are rebuilt before
        # the read, so a walk over the read-time schema would disagree.
        # Edge and binary translate a mid-path ``//`` as the label
        # paths' child chains, so the walk is over the arms that ran.
        # The snapshot holds only the tables each statement names, taken
        # at render: on binary and universal a second document then adds
        # partitions or label columns (a newer schema version whose
        # catalog has the indexes back) before the read.
        from tests.test_query_translation import generated_probes

        xpaths = [spec.xpath for spec in AUCTION_QUERIES]
        xpaths += generated_probes(auction_doc, pairs=1)
        expected, plans = {}, {}
        with open_scheme_store(scheme_name, "auction") as store:
            doc_id = store.store(auction_doc, "auction")
            indexes = [] if indexed else store.db.query(
                "SELECT name, sql FROM sqlite_master "
                "WHERE type = 'index' AND sql IS NOT NULL"
            )
            for name, _sql in indexes:
                store.db.execute(f"DROP INDEX {name}")
            translator = store.scheme.translator()
            for xpath in xpaths:
                arms, _version = translator._arms(parse_xpath(xpath))
                try:
                    statements = [
                        translator.translate(doc_id, arm) for arm in arms
                    ]
                except UnsupportedQueryError:
                    continue
                expected[xpath] = [
                    lint_statement(statement, store.db.schema_catalog())
                    for statement in statements
                ]
                plans[xpath] = translator.plans_for(doc_id, xpath)[0]
            for _name, sql in indexes:
                store.db.execute(sql)
            if scheme_name in ("binary", "universal"):
                before = store.db.schema_catalog()
                store.store_text(
                    "<site><extra_region><extra_item id='e1'>x</extra_item>"
                    "</extra_region></site>",
                    "second",
                )
                after = store.db.schema_catalog()
                assert after.schema_version > before.schema_version
                assert after.tables != before.tables
        assert len(plans) > len(AUCTION_QUERIES)
        for xpath, xpath_plans in plans.items():
            assert [
                plan.diagnostics for plan in xpath_plans
            ] == expected[xpath], xpath
        if not indexed and scheme_name in (
            "interval", "dewey", "xrel", "edge", "binary",
        ):
            assert any(any(verdicts) for verdicts in expected.values())

    def test_introspection_grows_with_the_statement(self, auction_doc):
        # A cold render snapshots only the tables its SQL names: binary
        # Q1 introspects its five partitions, not the store's dozens,
        # and a second path over the same tables at the same schema
        # version introspects none.
        introspected = re.compile(
            r"(?:pragma_|PRAGMA )(?:table_info|index_list)\W+(\w+)"
        )
        with open_scheme_store("binary", "auction") as store:
            doc_id = store.store(auction_doc, "auction")
            traced: list[str] = []
            store.db._conn.set_trace_callback(traced.append)
            q1 = AUCTION_QUERIES[0].xpath
            store.query_pres(doc_id, q1)
            named = set(re.findall(r"(?:FROM|JOIN) (\w+)", store.sql_for(
                doc_id, q1
            )[0]))
            assert len(named) == 5
            assert {
                name for line in traced
                for name in introspected.findall(line)
            } == named
            traced.clear()
            assert store.query_pres(doc_id, "/site/regions/africa/item")
            assert not [
                line for line in traced if introspected.search(line)
            ]
            store.db._conn.set_trace_callback(None)
            assert len(store.db.schema_catalog().tables) > 2 * len(named)

    def test_sweep_runs_clean(self):
        report = run_sweep(["edge", "interval"])
        assert report["errors"] == 0
        assert report["checked"] > 0
        assert report["diagnostics"] == []

    def test_sweep_asks_the_engine(self, monkeypatch, capsys):
        # P007 comes from EXPLAIN QUERY PLAN on the stored corpus; the
        # only cells that may carry one are the declared ones, and an
        # undeclared one fails the job like an error would.
        report = run_sweep(["binary", "universal", "xrel"])
        assert report["errors"] == report["undeclared_p007"] == 0
        assert {
            (d["corpus"], d["scheme"], d["query"])
            for d in report["diagnostics"] if d["code"] == "P007"
        } == sweep.DECLARED_CLOSURES
        monkeypatch.setattr(sweep, "DECLARED_CLOSURES", frozenset())
        assert sweep_main(["binary"]) == 1
        assert "undeclared P007" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# The positive space: each SQL diagnostic code has a firing fixture.
# ---------------------------------------------------------------------------


@pytest.fixture()
def interval_catalog():
    with XmlRelStore.open(scheme="interval") as store:
        store.store_text("<a><b>x</b></a>")
        yield store.db.schema_catalog()


def codes(diagnostics):
    return {d.code for d in diagnostics}


class TestSqlLintFixtures:
    def test_p001_unknown_table(self, interval_catalog):
        statement = (
            Select().select(Col("pre", "t")).from_table("missing", "t")
        )
        found = lint_statement(statement, interval_catalog)
        assert "P001" in codes(found)
        assert has_errors(found)

    def test_p002_unknown_column(self, interval_catalog):
        statement = (
            Select()
            .select(Col("nonexistent", "t"))
            .from_table("accel", "t")
            .where(Comparison("=", Col("doc_id", "t"), DocParam()))
        )
        assert "P002" in codes(lint_statement(statement, interval_catalog))

    def test_p002_unknown_alias(self, interval_catalog):
        statement = (
            Select()
            .select(Col("pre", "z"))
            .from_table("accel", "t")
            .where(Comparison("=", Col("doc_id", "t"), DocParam()))
        )
        assert "P002" in codes(lint_statement(statement, interval_catalog))

    def test_p003_cartesian_product(self, interval_catalog):
        statement = (
            Select()
            .select(Col("pre", "a"))
            .from_table("accel", "a")
            .join(
                "accel",
                "b",
                Comparison("=", Col("doc_id", "b"), DocParam()),
            )
            .where(Comparison("=", Col("doc_id", "a"), DocParam()))
        )
        assert "P003" in codes(lint_statement(statement, interval_catalog))

    def test_p004_missing_doc_predicate(self, interval_catalog):
        statement = (
            Select()
            .select(Col("pre", "t"))
            .from_table("accel", "t")
            .where(Comparison("=", Col("name", "t"), Param("b")))
        )
        assert "P004" in codes(lint_statement(statement, interval_catalog))

    def test_p004_transitive_doc_predicate_is_clean(self, interval_catalog):
        # v.doc_id = n.doc_id constrains both aliases.
        statement = (
            Select()
            .select(Col("pre", "n"))
            .from_table("accel", "n")
            .join(
                "accel",
                "v",
                Comparison("=", Col("doc_id", "v"), Col("doc_id", "n")),
            )
            .where(Comparison("=", Col("doc_id", "n"), DocParam()))
            .where(Comparison("=", Col("pre", "v"), Col("parent_pre", "n")))
        )
        assert "P004" not in codes(
            lint_statement(statement, interval_catalog)
        )

    def test_p005_recursive_cte_without_base_case(self, interval_catalog):
        looping = (
            Select()
            .select(Col("pre", "r"))
            .from_table("loop", "r")
        )
        statement = WithQuery(recursive=True).add_cte("loop", looping)
        statement.final = (
            Select().select(Col("pre", "loop")).from_table("loop", "loop")
        )
        found = lint_statement(statement, interval_catalog)
        assert "P005" in codes(found)

    def test_p005_with_base_case_is_clean(self, interval_catalog):
        base = (
            Select()
            .select(Col("pre", "t"))
            .from_table("accel", "t")
            .where(Comparison("=", Col("doc_id", "t"), DocParam()))
        )
        step = (
            Select().select(Col("pre", "walk")).from_table("walk", "walk")
        )
        statement = WithQuery(recursive=True).add_cte(
            "walk", Union((base, step))
        )
        statement.final = (
            Select().select(Col("pre", "walk")).from_table("walk", "walk")
        )
        assert "P005" not in codes(
            lint_statement(statement, interval_catalog)
        )

    def test_p006_uncovered_join_column(self, interval_catalog):
        # 'level' is not a prefix of any accel index.
        statement = (
            Select()
            .select(Col("pre", "a"))
            .from_table("accel", "a")
            .join(
                "accel",
                "b",
                Comparison("=", Col("level", "b"), Col("level", "a")),
            )
            .where(Comparison("=", Col("doc_id", "a"), DocParam()))
            .where(Comparison("=", Col("doc_id", "b"), DocParam()))
        )
        found = lint_statement(statement, interval_catalog)
        p006 = [d for d in found if d.code == "P006"]
        assert p006 and all(d.severity == SEVERITY_ADVICE for d in p006)
        assert not has_errors(found)

    def test_covered_join_is_clean(self, interval_catalog):
        statement = (
            Select()
            .select(Col("pre", "a"))
            .from_table("accel", "a")
            .join(
                "accel",
                "b",
                Comparison("=", Col("parent_pre", "b"), Col("pre", "a")),
            )
            .where(Comparison("=", Col("doc_id", "a"), DocParam()))
            .where(Comparison("=", Col("doc_id", "b"), DocParam()))
        )
        assert not lint_statement(statement, interval_catalog)

    def test_p007_run_time_index_on_a_stored_relation(self):
        # The engine's own verdict: without its one index the universal
        # semi-join builds an index per execution, which no static rule
        # sees (P006 reads equality pairs inside JOIN ... ON only).
        with XmlRelStore.open(scheme="universal") as store:
            doc_id = store.store(generate_auction(scale_factor=0.02))
            xpath = "/site/open_auctions/open_auction[bidder]/@id"
            translator = store.scheme.translator()
            statement = translator.translate(doc_id, xpath)
            assert not lint_statement(statement, store.db.schema_catalog())

            def p007():
                sql, params = translator.sql_for(doc_id, xpath)
                return lint_query_plan(
                    statement,
                    store.db.explain_plan(sql, params),
                    store.db.schema_catalog(),
                )

            assert p007() == ()
            store.db.execute("DROP INDEX universal_path")
            found = p007()
            assert codes(found) == {"P007"}
            assert all(d.severity == SEVERITY_ADVICE for d in found)
            assert all("AUTOMATIC" in d.location for d in found)

    def test_p007_materialized_partition_view(self):
        with XmlRelStore.open(scheme="binary") as store:
            doc_id = store.store_text("<a><b>t<c/></b></a>")
            translator = store.scheme.translator()
            catalog = store.db.schema_catalog()
            for xpath, expected in [
                ("/a/b/c", set()),
                ("/a/b/text()", set()),
                ("/a//c", {"P007"}),       # the closure: declared cost
                ("/a/*", {"P007"}),        # no label, no partition
            ]:
                sql, params = translator.sql_for(doc_id, xpath)
                found = lint_query_plan(
                    translator.translate(doc_id, xpath),
                    store.db.explain_plan(sql, params),
                    catalog,
                )
                assert codes(found) == expected, xpath


# ---------------------------------------------------------------------------
# Strict mode raises; default mode attaches diagnostics to the report.
# ---------------------------------------------------------------------------


class TestLintModes:
    def test_strict_mode_raises_on_dangling_table(self):
        with XmlRelStore.open(scheme="interval", lint="strict") as store:
            doc_id = store.store_text("<a><b>x</b></a>")
            assert store.query_pres(doc_id, "/a/b") == [2]
            # Pull the scheme's table out from under the translator: the
            # next (cold) translation references a table that no longer
            # exists, which strict mode turns into a raise.
            store.db.drop_table("accel")
            store.clear_plan_cache()
            with pytest.raises(PlanLintError) as excinfo:
                store.query_pres(doc_id, "/a/b/c")
            assert any(d.code == "P001" for d in excinfo.value.diagnostics)

    def test_invalid_mode_rejected(self):
        for mode in ("pedantic", "off"):
            with pytest.raises(XmlRelError):
                XmlRelStore.open(scheme="interval", lint=mode)

    def test_query_report_carries_analysis_field(self):
        with XmlRelStore.open(scheme="interval") as store:
            doc_id = store.store_text("<a><b>x</b></a>")
            report = store.query_report(doc_id, "/a/b")
            assert isinstance(report.analysis, tuple)
            assert not has_errors(report.analysis)
            assert "rows:" in report.format()

    def test_strict_mode_lints_at_the_translating_call(self, monkeypatch):
        # Only strict mode reads the verdict while translating; the
        # default mode leaves the walk to whoever asks.
        from repro.analysis import sqllint

        linted = []
        real_lint = sqllint.lint_statement

        def counting(statement, catalog):
            linted.append(statement)
            return real_lint(statement, catalog)

        monkeypatch.setattr(sqllint, "lint_statement", counting)
        for mode, walks in (("strict", 1), ("default", 0)):
            linted.clear()
            with XmlRelStore.open(scheme="interval", lint=mode) as store:
                doc_id = store.store_text("<a><b>x</b></a>")
                assert store.query_pres(doc_id, "/a/b") == [2]
                assert len(linted) == walks, mode

    def test_traced_translate_span_carries_diagnostics(self):
        # Without its parent index every child join of interval is a
        # P006 advice; the traced translate span still reports it.
        tracer = Tracer()
        with XmlRelStore.open(scheme="interval", tracer=tracer) as store:
            doc_id = store.store_text("<a><b>x<c/></b></a>")
            store.db.execute("DROP INDEX accel_parent")
            store.clear_plan_cache()
            report = store.query_report(doc_id, "/a/b/c")
        span = tracer.spans_named("translate")[-1]
        assert codes(report.analysis) == {"P006"}
        assert span.attributes["diagnostics"] == [
            d.format() for d in report.analysis
        ]

    def test_wide_event_verdict_of_a_miss_and_its_hit_agree(self, tmp_path):
        from repro.obs import RequestLog
        from repro.serve import ShardedStore

        log = RequestLog(capacity=16)
        with ShardedStore.open(
            str(tmp_path / "store"), scheme="interval", shards=1,
            request_log=log,
        ) as store:
            doc_id = store.store_text("<a><b>x<c/></b></a>")
            store.writers[0].db.execute("DROP INDEX accel_parent")
            for _ in range(2):
                assert store.query_pres(doc_id, "/a/b/c") == [4]
        shards = [
            event["per_shard"][0]
            for event in log.tail() if event["event"] == "query"
        ]
        assert [s["result_cache"] for s in shards] == ["miss", "hit"]
        assert [s["lint"] for s in shards] == ["warn", "warn"]

    def test_plan_cache_size_gauge(self):
        tracer = Tracer(enabled=True)
        with XmlRelStore.open(scheme="interval", tracer=tracer) as store:
            doc_id = store.store_text("<a><b>x</b></a>")
            store.query_pres(doc_id, "/a/b")
            store.query_pres(doc_id, "/a")
            gauge = tracer.metrics.gauge("plan_cache.size")
            assert gauge.value == len(store.db.plan_cache) == 2
            store.clear_plan_cache()
            assert len(store.db.plan_cache) == 0


# ---------------------------------------------------------------------------
# XPath satisfiability: provable emptiness, and the zero-SQL short-circuit.
# ---------------------------------------------------------------------------


BOOK_DTD = """\
<!ELEMENT bib (book*)>
<!ELEMENT book (title, author*)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (#PCDATA)>
<!ATTLIST book year CDATA #IMPLIED>
"""

BOOK_XML = (
    "<bib><book year='2000'><title>T</title>"
    "<author>A</author></book></bib>"
)


class TestSatisfiability:
    def setup_method(self):
        self.analyzer = XPathAnalyzer(dtd=parse_dtd(BOOK_DTD))

    def test_conforming_paths_make_no_claim(self):
        assert self.analyzer.satisfiable("/bib/book/title") is None
        assert self.analyzer.satisfiable("//author") is None
        assert self.analyzer.satisfiable("/bib/book/@year") is None

    def test_undeclared_child_is_unsatisfiable(self):
        assert self.analyzer.satisfiable("/bib/journal") is False
        assert self.analyzer.satisfiable("/bib/book/title/author") is False
        assert self.analyzer.satisfiable("//publisher") is False

    def test_undeclared_attribute_is_unsatisfiable(self):
        assert self.analyzer.satisfiable("/bib/book/@isbn") is False

    def test_step_after_attribute_is_unsatisfiable(self):
        assert self.analyzer.satisfiable("/bib/book/@year/title") is False

    def test_union_needs_every_arm_empty(self):
        assert (
            self.analyzer.satisfiable("/bib/journal | /bib/book") is None
        )
        assert (
            self.analyzer.satisfiable("/bib/journal | /bib/magazine")
            is False
        )

    def test_x001_diagnostic(self):
        found = self.analyzer.diagnose("/bib/journal")
        assert [d.code for d in found] == ["X001"]
        assert not self.analyzer.diagnose("/bib/book")

    def test_summary_analyzer_prunes_instance_misses(self):
        with XmlRelStore.open(scheme="interval") as store:
            doc_id = store.store_text(BOOK_XML)
            analyzer = store.enable_analysis(doc_id=doc_id)
            # Declared by no DTD here; the summary knows the instance.
            assert analyzer.satisfiable("/bib/journal") is False
            assert analyzer.satisfiable("/bib/book/title") is None

    def test_analyzer_requires_a_source(self):
        with pytest.raises(XmlRelError):
            XPathAnalyzer()

    @pytest.mark.parametrize("scheme_name", ["edge", "interval", "dewey"])
    def test_unsat_query_executes_zero_statements(self, scheme_name):
        tracer = Tracer(enabled=True)
        with open_scheme_store(scheme_name, tracer=tracer) as store:
            doc_id = store.store_text(BOOK_XML)
            store.enable_analysis(dtd=parse_dtd(BOOK_DTD))
            before = len(tracer.spans_named("sql.statement"))
            assert store.query_pres(doc_id, "/bib/journal") == []
            assert len(tracer.spans_named("sql.statement")) == before
            assert (
                tracer.metrics.counter_value("analysis.unsat_queries") == 1
            )
            spans = tracer.spans_named("query")
            assert spans[-1].attributes.get("unsatisfiable") is True

    def test_satisfiable_query_still_runs(self):
        with XmlRelStore.open(scheme="interval") as store:
            doc_id = store.store_text(BOOK_XML)
            store.enable_analysis(dtd=parse_dtd(BOOK_DTD))
            assert store.query_pres(doc_id, "/bib/book/title") == [4]


# ---------------------------------------------------------------------------
# // expansion: exactness (differential) and refusal on recursion.
# ---------------------------------------------------------------------------


RECURSIVE_DTD = """\
<!ELEMENT doc (section*)>
<!ELEMENT section (title, section*)>
<!ELEMENT title (#PCDATA)>
"""


BOOK_PATHS = (("bib",), ("bib", "book"), ("bib", "book", "author"),
              ("bib", "book", "title"))


class TestDescendantExpansion:
    def test_expands_into_concrete_chains(self):
        expanded = expand_descendants(plan_path("//author"), BOOK_PATHS)
        assert expanded is not None and len(expanded) == 1
        assert "#expand" in expanded[0].source

    def test_refuses_recursive_target(self):
        # A label below itself binds once per occurrence in the catalog:
        # //section is one arm per nesting depth that occurs, not a bail.
        paths = (("doc",), ("doc", "section"), ("doc", "section", "title"),
                 ("doc", "section", "section"),
                 ("doc", "section", "section", "title"))
        assert len(expand_descendants(plan_path("//section"), paths)) == 2
        # Nested sections must still all be found.
        with XmlRelStore.open(scheme="edge") as store:
            doc_id = store.store_text(
                "<doc><section><title>a</title>"
                "<section><title>b</title></section>"
                "</section></doc>"
            )
            store.enable_analysis(dtd=parse_dtd(RECURSIVE_DTD))
            assert len(store.query_pres(doc_id, "//section")) == 2
            assert len(store.query_pres(doc_id, "/doc//title")) == 2

    def test_refuses_without_descendant_or_with_wildcards(self):
        for xpath in ("/bib/book/title", "//*", "//book/@*"):
            assert expand_descendants(plan_path(xpath), BOOK_PATHS) is None

    def test_disabled_without_dtd_or_closure(self):
        # No DTD and no analyzer: edge and binary expand over the label
        # paths they recorded while shredding; the other mappings keep
        # no catalog.  Only a non-leading // on edge/binary pays.
        for scheme_name in ALL_SCHEMES:
            with open_scheme_store(scheme_name) as store:
                catalog = store.scheme.label_paths
                if scheme_name in ("edge", "binary"):
                    store.store_text(BOOK_XML)
                    _version, paths = catalog.snapshot()
                    assert paths == BOOK_PATHS
                else:
                    assert catalog is None, scheme_name
                translator = store.scheme.translator()
                leading = translator.plan("//author")
                assert translator.expansion_pays(leading) is False
                mid_path = translator.plan("/bib//author")
                assert translator.expansion_pays(mid_path) is (
                    scheme_name in ("edge", "binary")
                ), scheme_name

    @staticmethod
    def _statements(tracer, store, doc_id, xpath):
        """The ids *xpath* finds and the query statements it ran
        (binary's partition-name lookups and the label-path catalog
        reads left out)."""
        before = len(tracer.spans_named("sql.statement"))
        pres = store.query_pres(doc_id, xpath)
        return pres, [
            span.attributes["sql"]
            for span in tracer.spans_named("sql.statement")[before:]
            if not any(
                table in span.attributes["sql"]
                for table in ("binary_labels", "sqlite_sequence", "_paths")
            )
        ]

    def test_expansion_replaces_the_edge_closure(self, auction_doc):
        # Edge's own plan for a mid-path // is a recursive CTE; its
        # query_pres runs one child chain per continent instead, with
        # or without a DTD attached, and finds the same ids.
        xpath = "/site/regions//item/name"
        tracer = Tracer(enabled=True)
        with XmlRelStore.open(scheme="edge", tracer=tracer) as store:
            doc_id = store.store(auction_doc, "auction")
            closure_sql, params = store.sql_for(doc_id, xpath)
            closure = [row[0] for row in store.db.query(closure_sql, params)]
            plain, plain_sql = self._statements(tracer, store, doc_id, xpath)
            store.enable_analysis(dtd=auction_dtd())
            expanded, expanded_sql = self._statements(
                tracer, store, doc_id, xpath
            )
        assert closure and plain == closure and expanded == closure
        assert "WITH RECURSIVE" in closure_sql
        for sql in (plain_sql, expanded_sql):
            assert len(sql) > 1
            assert not any("WITH RECURSIVE" in text for text in sql)

    @pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
    def test_expansion_only_where_it_pays(self, scheme_name, auction_doc):
        # Only edge and binary answer a mid-path // with a closure; the
        # other mappings probe their order encoding once, so they keep
        # the plain plan.  A leading // is one label scan everywhere.
        tracer = Tracer(enabled=True)
        xpaths = ("/site/regions//item/name", "//increase")
        with open_scheme_store(scheme_name, tracer=tracer) as store:
            doc_id = store.store(auction_doc, "auction")
            plain = [
                self._statements(tracer, store, doc_id, xpath)
                for xpath in xpaths
            ]
            store.enable_analysis(dtd=auction_dtd())
            translator = store.scheme.translator()
            for xpath, (pres, sql) in zip(xpaths, plain):
                analyzed, analyzed_sql = self._statements(
                    tracer, store, doc_id, xpath
                )
                assert pres and analyzed == pres
                pays = translator.expansion_pays(translator.plan(xpath))
                assert pays is (
                    xpath == xpaths[0] and scheme_name in ("edge", "binary")
                ), xpath
                if pays:
                    own_sql, _params = translator.sql_for(doc_id, xpath)
                    assert "WITH RECURSIVE" in own_sql
                    for ran in (sql, analyzed_sql):
                        assert len(ran) > 1
                        assert not any(
                            "WITH RECURSIVE" in text for text in ran
                        )
                else:
                    assert analyzed_sql == sql, xpath

    def test_warm_query_does_not_reanalyze(self, monkeypatch):
        from repro.analysis import xpathlint
        from repro.query import translator as translator_module

        calls = {"parse": 0, "satisfiable": 0}
        real_parse = translator_module.parse_xpath
        real_satisfiable = xpathlint.XPathAnalyzer.satisfiable

        def parse(text):
            calls["parse"] += 1
            return real_parse(text)

        def satisfiable(analyzer, xpath):
            calls["satisfiable"] += 1
            return real_satisfiable(analyzer, xpath)

        monkeypatch.setattr(translator_module, "parse_xpath", parse)
        monkeypatch.setattr(
            xpathlint.XPathAnalyzer, "satisfiable", satisfiable
        )
        tracer = Tracer(enabled=True)
        with XmlRelStore.open(scheme="edge", tracer=tracer) as store:
            doc_id = store.store_text(BOOK_XML)
            store.enable_analysis(dtd=parse_dtd(BOOK_DTD))
            for xpath, expected in (("/bib//author", [6]), ("/bib/x", [])):
                assert store.query_pres(doc_id, xpath) == expected
                cold = dict(calls)
                assert cold["parse"] >= 1 and cold["satisfiable"] >= 1
                before = len(tracer.spans_named("sql.statement"))
                assert store.query_pres(doc_id, xpath) == expected
                assert calls == cold, xpath
                statements = len(tracer.spans_named("sql.statement"))
                if not expected:
                    assert statements == before  # provably empty: no SQL
                calls.update(parse=0, satisfiable=0)
            counter = tracer.metrics.counter_value
            assert counter("plan_cache.hits") == 2
            assert counter("plan_cache.misses") == 2
            assert counter("analysis.unsat_queries") == 2
            assert counter("analysis.expanded_queries") == 1

    @pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
    def test_auction_differential(self, scheme_name, auction_doc):
        specs = [s for s in AUCTION_QUERIES if "//" in s.xpath]
        assert specs
        self._differential(
            scheme_name, "auction", auction_doc, auction_dtd(), specs
        )

    @pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
    def test_dblp_differential(self, scheme_name, dblp_doc):
        specs = [s for s in DBLP_QUERIES if "//" in s.xpath]
        assert specs
        self._differential(
            scheme_name, "dblp", dblp_doc, dblp_dtd(), specs
        )

    def _differential(self, scheme_name, workload, document, dtd, specs):
        with open_scheme_store(
            scheme_name, workload
        ) as plain, open_scheme_store(scheme_name, workload) as analyzed:
            plain_id = plain.store(document, "doc")
            analyzed_id = analyzed.store(document, "doc")
            analyzed.enable_analysis(dtd=dtd)
            compared = 0
            for spec in specs:
                try:
                    expected = plain.query_pres(plain_id, spec.xpath)
                except UnsupportedQueryError:
                    continue
                label = f"{scheme_name}/{spec.key}"
                assert expected == evaluated_pres(document, spec.xpath), label
                assert (
                    analyzed.query_pres(analyzed_id, spec.xpath) == expected
                ), label
                compared += 1
            assert compared


# ---------------------------------------------------------------------------
# // expansion from the store's own label paths: no DTD, every answer the
# evaluator's, and never a stale plan.
# ---------------------------------------------------------------------------


#: E30's queries: the suite's five // queries, three mid-path ones, and
#: a leading one.
E30_QUERIES = (
    "//item/name", "//bidder//date", "//name",
    "//person[profile/@income > 80000]/name",
    "//item[contains(description, 'vintage')]/name",
    "/site//person/name", "/site/people//city", "/site/regions//item/name",
    "//increase",
)

#: XMark's recursive text model: a parlist below a listitem below a
#: parlist.
PARLIST_XML = (
    "<site><description><parlist><listitem><text>a</text>"
    "<parlist><listitem><text>b</text><parlist><listitem>"
    "<text>c</text></listitem></parlist></listitem></parlist>"
    "</listitem></parlist></description>"
    "<annotation><text>d</text></annotation></site>"
)

#: Thirty continents, one item each: /r//item has thirty chains.
WIDE_XML = "<r>" + "".join(
    f"<c{i}><item>{i}</item></c{i}>" for i in range(30)
) + "</r>"

EDGE_SHAPED = ["edge", "binary"]


def traced_run(tracer, store, doc_id, xpath):
    """The ids *xpath* finds through ``query_pres`` and how many of the
    statements it ran were recursive."""
    before = len(tracer.spans_named("sql.statement"))
    pres = store.query_pres(doc_id, xpath)
    ran = [
        span.attributes["sql"]
        for span in tracer.spans_named("sql.statement")[before:]
    ]
    return pres, sum("WITH RECURSIVE" in sql for sql in ran)


class TestLabelPathExpansion:
    @pytest.mark.parametrize("scheme_name", EDGE_SHAPED)
    def test_e30_queries_without_a_dtd(self, scheme_name, auction_doc):
        tracer = Tracer(enabled=True)
        with XmlRelStore.open(scheme=scheme_name, tracer=tracer) as store:
            doc_id = store.store(auction_doc, "auction")
            # E30's queries and E4's Figure 2 query.
            for xpath in E30_QUERIES + ("/site/open_auctions//date",):
                pres, recursive = traced_run(tracer, store, doc_id, xpath)
                assert pres == evaluated_pres(auction_doc, xpath), xpath
                assert recursive == 0, xpath
            counter = tracer.metrics.counter_value
            # Q5, M1–M3 and E4's expand; the leading ones never needed to.
            assert counter("analysis.expanded_queries") == 5

    @pytest.mark.parametrize("scheme_name", EDGE_SHAPED)
    def test_recursive_label_binds_once_per_occurrence(self, scheme_name):
        document = parse_document(PARLIST_XML)
        tracer = Tracer(enabled=True)
        with XmlRelStore.open(scheme=scheme_name, tracer=tracer) as store:
            doc_id = store.store(document, "xmark")
            for xpath in ("//parlist//text", "/site//parlist//text",
                          "//listitem//listitem/text",
                          "//parlist//parlist//text"):
                pres, recursive = traced_run(tracer, store, doc_id, xpath)
                assert pres == evaluated_pres(document, xpath), xpath
                assert recursive == 0, xpath
        arms = expand_descendants(
            plan_path("//parlist//text"),
            build_summary_paths(document),
        )
        assert len(arms) == 3  # one per nesting depth

    @pytest.mark.parametrize("scheme_name", EDGE_SHAPED)
    def test_predicates_on_intermediate_descendant_steps(
        self, scheme_name, auction_doc
    ):
        nested = parse_document(
            "<r><a><p/><a><a><q/></a></a></a><a><a/></a></r>"
        )
        cases = [
            (auction_doc, "/site//open_auction[bidder]//increase"),
            (auction_doc, "/site//person[profile/@income > 50000]//city"),
            (auction_doc, "//open_auction[initial > 100]//date"),
            # A label that repeats on one path: every binding is a run.
            (nested, "//a[p]//a"),
            (nested, "/r//a[q]"),
            (nested, "//a[a]//a[not(a)]"),
        ]
        for document, xpath in cases:
            with XmlRelStore.open(scheme=scheme_name) as store:
                doc_id = store.store(document, "doc")
                assert store.query_pres(doc_id, xpath) == evaluated_pres(
                    document, xpath
                ), xpath
        arms = expand_descendants(
            plan_path("//a[p]//a"), build_summary_paths(nested)
        )
        # /r/a[p]/a and /r/a[p]/a/a, /r/a/a[p]/a: three bindings.
        assert len(arms) == 3

    @pytest.mark.parametrize("scheme_name", EDGE_SHAPED)
    def test_one_store_two_vocabularies(
        self, scheme_name, auction_doc, dblp_doc
    ):
        tracer = Tracer(enabled=True)
        with XmlRelStore.open(scheme=scheme_name, tracer=tracer) as store:
            auction_id = store.store(auction_doc, "auction")
            dblp_id = store.store(dblp_doc, "dblp")
            for doc_id, document, xpaths in (
                (auction_id, auction_doc,
                 ("/site//person/name", "//bidder//date", "/dblp//author")),
                (dblp_id, dblp_doc,
                 ("/dblp//author", "/dblp//title", "/site//person/name")),
            ):
                for xpath in xpaths:
                    pres, recursive = traced_run(
                        tracer, store, doc_id, xpath
                    )
                    assert pres == evaluated_pres(document, xpath), xpath
                    assert recursive == 0, xpath

    @pytest.mark.parametrize("scheme_name", EDGE_SHAPED)
    def test_too_many_chains_keep_the_closure(self, scheme_name):
        document = parse_document(WIDE_XML)
        tracer = Tracer(enabled=True)
        with XmlRelStore.open(scheme=scheme_name, tracer=tracer) as store:
            doc_id = store.store(document, "wide")
            pres, recursive = traced_run(tracer, store, doc_id, "/r//item")
            assert pres == evaluated_pres(document, "/r//item")
            assert len(pres) == 30 and recursive == 1
        assert expand_descendants(
            plan_path("/r//item"), build_summary_paths(document)
        ) is None
        # A label repeated forty deep binds in too many ways to try.
        deep = (("r",) + ("a",) * 39 + ("b",),)
        assert expand_descendants(plan_path("//a//a//a//d//b"), deep) is None
        assert len(expand_descendants(plan_path("//a//b"), deep)) == 1


def build_summary_paths(document):
    """The element label paths of *document*, as a catalog holds them."""
    return tuple(sorted(
        path for path in build_summary(document).paths
        if not path[-1].startswith(("@", "#"))
    ))


class TestLabelPathCoherence:
    """A cached ``//`` expansion never misses a label path written after
    it was built — by the same handle, another handle on the file, or
    the shard writer behind a pooled reader."""

    BASE = "<r><a><b>1</b></a></r>"
    XPATH = "/r//b"

    @pytest.mark.parametrize("scheme_name", EDGE_SHAPED)
    def test_insert_adds_a_path_under_a_cached_query(self, scheme_name):
        from repro.updates import insert_subtree

        with XmlRelStore.open(scheme=scheme_name) as store:
            doc_id = store.store_text(self.BASE)
            assert len(store.query_pres(doc_id, self.XPATH)) == 1
            a = store.query_pres(doc_id, "/r/a")[0]
            insert_subtree(
                store.scheme, doc_id, a,
                parse_fragment("<c><d><b>2</b></d></c>"),
            )
            assert len(store.query_pres(doc_id, self.XPATH)) == 2
            _version, paths = store.scheme.label_paths.snapshot()
            assert ("r", "a", "c", "d", "b") in paths

    @pytest.mark.parametrize("scheme_name", EDGE_SHAPED)
    def test_deletes_leave_a_sound_catalog(self, scheme_name):
        from repro.updates import delete_subtree, insert_subtree

        with XmlRelStore.open(scheme=scheme_name) as store:
            first = store.store_text(self.BASE)
            second = store.store_text("<r><x><b>2</b></x></r>")
            assert len(store.query_pres(second, self.XPATH)) == 1
            # A deleted subtree leaves its path: the arm finds nothing.
            x = store.query_pres(second, "/r/x")[0]
            delete_subtree(store.scheme, second, x)
            assert store.query_pres(second, self.XPATH) == []
            # A deleted document takes its rows along.
            store.delete(second)
            table = store.scheme.label_paths.table.name
            assert store.db.scalar(
                f"SELECT COUNT(*) FROM {table} WHERE doc_id = ?", (second,)
            ) == 0
            third = store.store_text("<r><y><z><b>3</b></z></y></r>")
            assert len(store.query_pres(third, self.XPATH)) == 1
            a = store.query_pres(first, "/r/a")[0]
            insert_subtree(
                store.scheme, first, a, parse_fragment("<e><b>4</b></e>")
            )
            assert len(store.query_pres(first, self.XPATH)) == 2

    @pytest.mark.parametrize("scheme_name", EDGE_SHAPED)
    def test_reopened_file_expands(self, scheme_name, tmp_path):
        from repro.updates import insert_subtree

        path = str(tmp_path / "store.db")
        with XmlRelStore.open(path, scheme=scheme_name) as store:
            doc_id = store.store_text(self.BASE)
        tracer = Tracer(enabled=True)
        with XmlRelStore.open(
            path, scheme=scheme_name, tracer=tracer
        ) as store:
            pres, recursive = traced_run(tracer, store, doc_id, self.XPATH)
            assert len(pres) == 1 and recursive == 0
            a = store.query_pres(doc_id, "/r/a")[0]
            insert_subtree(
                store.scheme, doc_id, a, parse_fragment("<c><b>2</b></c>")
            )
        with XmlRelStore.open(path, scheme=scheme_name) as store:
            assert len(store.query_pres(doc_id, self.XPATH)) == 2

    @pytest.mark.parametrize("scheme_name", EDGE_SHAPED)
    def test_two_handles_on_one_file(self, scheme_name, tmp_path):
        path = str(tmp_path / "store.db")
        with XmlRelStore.open(path, scheme=scheme_name) as a_handle, \
                XmlRelStore.open(path, scheme=scheme_name) as b_handle:
            first = a_handle.store_text("<r><x><z><y/></z></x></r>")
            newest = a_handle.store_text("<r><w><y/></w></r>")
            assert len(a_handle.query_pres(first, "/r//y")) == 1
            # Handle B removes the document that holds the newest
            # catalog ids, then stores a path A never saw: ids must not
            # be reused, or A's cached plan would look current.
            b_handle.delete(newest)
            second = b_handle.store_text("<r><x><y/></x></r>")
            assert a_handle.query_pres(second, "/r//y") == (
                b_handle.query_pres(second, "/r//y")
            )
            assert len(a_handle.query_pres(second, "/r//y")) == 1

    @pytest.mark.parametrize("scheme_name", EDGE_SHAPED)
    def test_pooled_reader_after_a_write(self, scheme_name, tmp_path):
        from repro.serve.sharded import ShardedStore

        with ShardedStore.open(
            str(tmp_path / "shards"), scheme=scheme_name, shards=1
        ) as store:
            doc_id = store.store_text(self.BASE)
            assert len(store.query_pres(doc_id, self.XPATH)) == 1
            a = store.query_pres(doc_id, "/r/a")[0]
            store.insert_subtree(
                doc_id, a, parse_fragment("<c><d><b>2</b></d></c>")
            )
            assert len(store.query_pres(doc_id, self.XPATH)) == 2

    @pytest.mark.parametrize("scheme_name", EDGE_SHAPED)
    def test_document_without_catalog_rows_keeps_the_closure(
        self, scheme_name, tmp_path
    ):
        # As a file written before the catalog existed: one document
        # has no rows, so the union would miss its paths.
        path = str(tmp_path / "store.db")
        with XmlRelStore.open(path, scheme=scheme_name) as store:
            store.store_text(self.BASE)
            doc_id = store.store_text("<r><x><b>2</b></x></r>")
            table = store.scheme.label_paths.table.name
            store.db.execute(
                f"DELETE FROM {table} WHERE doc_id = ?", (doc_id,)
            )
        tracer = Tracer(enabled=True)
        with XmlRelStore.open(
            path, scheme=scheme_name, tracer=tracer
        ) as store:
            pres, recursive = traced_run(tracer, store, doc_id, self.XPATH)
            assert len(pres) == 1 and recursive == 1


# ---------------------------------------------------------------------------
# xmlrel-lint: repo fixtures per rule, and the gate over src/repro itself.
# ---------------------------------------------------------------------------


class TestRepoLint:
    def lint_fixture(self, tmp_path, files):
        for rel, text in files.items():
            target = tmp_path / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(text, encoding="utf-8")
        return lint_paths([tmp_path], root=tmp_path)

    def test_l001_raw_sql_literal(self, tmp_path):
        found = self.lint_fixture(
            tmp_path,
            {"repro/query/bad.py": 'q = "SELECT pre FROM edge"\n'},
        )
        assert [d.code for d in found] == ["L001"]

    def test_l001_allows_relational_layer(self, tmp_path):
        found = self.lint_fixture(
            tmp_path,
            {
                "repro/relational/ok.py": 'q = "SELECT 1"\n',
                "repro/storage/ok.py": 'q = "DELETE FROM edge"\n',
            },
        )
        assert not found

    def test_l001_skips_docstrings_and_prose(self, tmp_path):
        found = self.lint_fixture(
            tmp_path,
            {
                "repro/query/doc.py": (
                    '"""SELECT statements are generated, not written."""\n'
                    'msg = "select a scheme"\n'
                ),
            },
        )
        assert not found

    def test_l002_conn_reacharound_and_sqlite_import(self, tmp_path):
        found = self.lint_fixture(
            tmp_path,
            {
                "repro/query/bad.py": (
                    "import sqlite3\n"
                    "def f(db):\n"
                    "    return db._conn\n"
                ),
            },
        )
        assert [d.code for d in found] == ["L002", "L002"]

    def test_l003_bare_except(self, tmp_path):
        found = self.lint_fixture(
            tmp_path,
            {
                "repro/query/bad.py": (
                    "try:\n    pass\nexcept:\n    pass\n"
                ),
            },
        )
        assert [d.code for d in found] == ["L003"]

    def test_l004_unregistered_scheme(self, tmp_path):
        files = {
            "repro/storage/extra.py": (
                "from repro.storage.base import MappingScheme\n"
                "class GhostScheme(MappingScheme):\n"
                '    name = "ghost"\n'
            ),
            "repro/core/registry.py": "_SCHEMES = {}\n",
        }
        found = self.lint_fixture(tmp_path, files)
        assert [d.code for d in found] == ["L004"]
        files["repro/core/registry.py"] = (
            "from repro.storage.extra import GhostScheme\n"
            "_SCHEMES = {GhostScheme.name: GhostScheme}\n"
        )
        assert not self.lint_fixture(tmp_path, files)

    def test_l005_raw_lock_outside_registry(self, tmp_path):
        found = self.lint_fixture(
            tmp_path,
            {
                "repro/query/bad.py": (
                    "import threading\nlock = threading.Lock()\n"
                ),
            },
        )
        assert [d.code for d in found] == ["L005"]

    def test_l005_bare_import_form(self, tmp_path):
        found = self.lint_fixture(
            tmp_path,
            {
                "repro/xml/bad.py": (
                    "from threading import RLock\nguard = RLock()\n"
                ),
            },
        )
        assert [d.code for d in found] == ["L005"]

    def test_l005_registered_module_and_pragma_are_exempt(self, tmp_path):
        found = self.lint_fixture(
            tmp_path,
            {
                # Registered in repro.analysis.concurrency.LOCK_SITES.
                "repro/serve/pool.py": (
                    "import threading\nlock = threading.Lock()\n"
                ),
                # Suppressed in place, with justification.
                "repro/query/ok.py": (
                    "import threading\n"
                    "# guards a module-local cache, never nested\n"
                    "lock = threading.Lock()  # lint: allow(L005)\n"
                ),
            },
        )
        assert not found

    def test_src_repro_is_clean(self):
        findings = lint_paths([SRC_ROOT / "repro"], root=SRC_ROOT)
        assert not findings, "\n".join(d.format() for d in findings)

    def test_xrel_uses_wrapped_create_function(self):
        # Pin the reach-around fix the gate surfaced: the XRel
        # translator must register its SQL function through the
        # span-instrumented Database wrapper, not the raw connection.
        source = (
            SRC_ROOT / "repro" / "query" / "translate_xrel.py"
        ).read_text(encoding="utf-8")
        assert "_conn" not in source
        assert "self.db.create_function(" in source
        with XmlRelStore.open(scheme="xrel") as store:
            doc_id = store.store_text(BOOK_XML)
            assert store.query_pres(doc_id, "//author") == [6]


class TestDiagnosticRecord:
    def test_format_and_dict(self):
        d = Diagnostic("P001", SEVERITY_ERROR, "boom", location="FROM x")
        assert d.format() == "FROM x: P001 error: boom"
        assert d.to_dict() == {
            "code": "P001",
            "severity": "error",
            "message": "boom",
            "location": "FROM x",
        }
        assert d.is_error

    def test_format_without_location(self):
        d = Diagnostic("X001", SEVERITY_WARNING, "empty")
        assert d.format() == "X001 warning: empty"
        assert not d.is_error

    def test_sorted_by_severity_and_block_format(self):
        advice = Diagnostic("P006", SEVERITY_ADVICE, "slow", location="z")
        warning = Diagnostic("C003", SEVERITY_WARNING, "race", location="b:9")
        error = Diagnostic("L001", SEVERITY_ERROR, "sql", location="a:3")
        shuffled = [advice, warning, error]
        ordered = sorted_by_severity(shuffled)
        assert [d.code for d in ordered] == ["L001", "C003", "P006"]
        block = format_diagnostics(shuffled)
        assert block.splitlines() == [d.format() for d in ordered]
        assert has_errors(shuffled)
        assert not has_errors([advice, warning])

    def test_collect_pragmas_inline_and_comment_line(self):
        text = (
            "x = 1\n"
            "y = risky()  # lint: allow(C002, L005)\n"
            "# justified above  # lint: allow(C004)\n"
            "z = spawn()\n"
        )
        pragmas = collect_pragmas(text)
        assert pragmas[2] == frozenset({"C002", "L005"})
        # A comment-only pragma line also covers the next line.
        assert pragmas[3] == pragmas[4] == frozenset({"C004"})
        assert is_suppressed(pragmas, 2, "C002")
        assert is_suppressed(pragmas, 2, "L005")
        assert not is_suppressed(pragmas, 2, "C004")
        assert is_suppressed(pragmas, 4, "C004")
        assert not is_suppressed(pragmas, 1, "C002")


# ---------------------------------------------------------------------------
# The --json artifacts of the linter CLIs (the CI report schemas).
# ---------------------------------------------------------------------------


class TestReportSchemas:
    def test_lint_json_artifact(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "query" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(
            "try:\n    pass\nexcept:\n    pass\n", encoding="utf-8"
        )
        report_path = tmp_path / "lint-report.json"
        code = lint_main(["--json", str(report_path), str(tmp_path)])
        assert code == 1
        assert "finding(s)" in capsys.readouterr().out
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert set(report) == {"findings", "count"}
        assert report["count"] == len(report["findings"]) == 1
        finding = report["findings"][0]
        assert set(finding) == {"code", "severity", "message", "location"}
        assert finding["code"] == "L003"

    def test_lint_clean_exit(self, tmp_path, capsys):
        (tmp_path / "fine.py").write_text("x = 1\n", encoding="utf-8")
        assert lint_main([str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_sweep_json_artifact(self, tmp_path, capsys):
        report_path = tmp_path / "sweep-report.json"
        code = sweep_main(["edge", "--json", str(report_path)])
        assert code == 0
        assert "plan-lint sweep" in capsys.readouterr().out
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert set(report) >= {
            "checked", "skipped", "errors", "undeclared_p007",
            "diagnostics", "entries",
        }
        assert report["errors"] == 0
        assert report["checked"] > 0
        for entry in report["entries"]:
            assert {"corpus", "scheme", "query"} <= set(entry)
