"""Introspection equals execution: ``query_report`` and ``explain``
describe exactly the statements ``query_pres`` runs.

Differential over the paper's Q1–Q16 on every mapping, plus a union
(answered arm by arm) and, with ``enable_analysis(dtd=...)``, a path
the DTD proves empty: the report's ids are the query's, its SQL is
``explain``'s and the ``";\\n"``-join of the cached plans, the empty
path runs no statement, and one XPath holds one plan-cache entry.
"""

import pytest

from repro import Tracer, XmlRelStore
from repro.errors import UnsupportedQueryError
from repro.workloads import AUCTION_QUERIES, auction_dtd, generate_auction
from repro.xpath.parser import parse_xpath
from tests.conftest import SCHEMALESS_SCHEMES

ALL_SCHEMES = SCHEMALESS_SCHEMES + ["inlining"]

#: Answered as two arms; the second keeps a mid-path ``//``.
UNION = "/site/people/person/name | /site/regions//item/name"

#: No ``item`` has a ``bidder`` child under the auction DTD.
UNSATISFIABLE = "/site/regions/africa/item/bidder"


@pytest.fixture(scope="module")
def auction_doc():
    return generate_auction(0.02, seed=7)


@pytest.mark.parametrize("analyzed", [False, True])
@pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
def test_report_and_explain_describe_what_runs(
    scheme_name, analyzed, auction_doc
):
    kwargs = {"dtd": auction_dtd()} if scheme_name == "inlining" else {}
    tracer = Tracer(max_sql_length=1 << 20)  # whole statements
    xpaths = [spec.xpath for spec in AUCTION_QUERIES] + [UNION]
    if analyzed:
        xpaths.append(UNSATISFIABLE)
    with XmlRelStore.open(
        scheme=scheme_name, tracer=tracer, **kwargs
    ) as store:
        doc_id = store.store(auction_doc, "auction")
        if analyzed:
            store.enable_analysis(dtd=auction_dtd())
        translator = store.scheme.translator()
        answered = 0
        for xpath in xpaths:
            try:
                pres = store.query_pres(doc_id, xpath)
            except UnsupportedQueryError:
                # Refused alike by every reader.
                for reader in (store.query_report, store.explain):
                    with pytest.raises(UnsupportedQueryError):
                        reader(doc_id, xpath)
                continue
            answered += 1
            before = len(tracer.spans_named("sql.statement"))
            report = store.query_report(doc_id, xpath)
            ran = [
                span.attributes["sql"]
                for span in tracer.spans_named("sql.statement")[before:]
            ]
            explanation = store.explain(doc_id, xpath)
            plans, hit = translator.plans_for(doc_id, xpath)
            assert hit, xpath
            assert report.pres == tuple(pres), xpath
            assert report.sql == explanation.sql == ";\n".join(
                plan.sql for plan in plans
            ), xpath
            assert report.params == explanation.params, xpath
            assert report.plan == explanation.plan, xpath
            assert report.join_count == sum(p.join_count for p in plans)
            assert report.sql_length == sum(len(p.sql) for p in plans)
            assert report.analysis == tuple(
                d for plan in plans for d in plan.diagnostics
            ), xpath
            if xpath == UNSATISFIABLE:
                assert plans == () and pres == [] and ran == []
                assert report.sql == "" and report.plan == ()
                continue
            # Each plan is explained and run once (binary's partition
            # lookups and the label-path version check aside).
            for plan in plans:
                assert ran.count(plan.sql) == ran.count(
                    "EXPLAIN QUERY PLAN " + plan.sql
                ) == plans.count(plan), xpath
            if xpath == UNION:
                assert len(plans) >= 2 and pres
        assert len(store.db.plan_cache) == answered


@pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
def test_the_join_count_is_observable(scheme_name, auction_doc):
    # The render pass counts joins (the E8 metric): a cold traced
    # translation's span, ``query_report`` and every cached plan carry
    # the count the statement tree gives.
    kwargs = {"dtd": auction_dtd()} if scheme_name == "inlining" else {}
    tracer = Tracer()
    with XmlRelStore.open(
        scheme=scheme_name, tracer=tracer, **kwargs
    ) as store:
        doc_id = store.store(auction_doc, "auction")
        translator = store.scheme.translator()
        for spec in AUCTION_QUERIES:
            try:
                store.query_pres(doc_id, spec.xpath)
            except UnsupportedQueryError:
                continue
            span = tracer.spans_named("translate")[-1]
            assert span.attributes["joins"] == store.query_report(
                doc_id, spec.xpath
            ).join_count, spec.key
            plans, _hit = translator.plans_for(doc_id, spec.xpath)
            arms, _version = translator._arms(parse_xpath(spec.xpath))
            assert [plan.join_count for plan in plans] == [
                translator.translate(doc_id, arm).join_count for arm in arms
            ], spec.key
