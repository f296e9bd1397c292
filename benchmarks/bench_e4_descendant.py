"""E4 (Figure 2) — descendant (``//``) query latency vs. document size.

Query: ``//increase`` (every bid increase, anywhere).  Expected shape:
the interval mapping answers with one index-range predicate and the
dewey mapping with one label-prefix scan — both flat-ish in document
size for the *navigation* part — while the edge/binary mappings compute
a recursive transitive closure over the whole edge set, growing visibly
faster.  This is the tutorial's core argument for order encodings.

The figure times the one statement each mapping's translator renders
(``sql_for``) — Figure 2's closure on edge and binary.  Their
``query_pres`` no longer runs it: it expands the ``//`` into the
child chains of the store's label-path catalog, timed as the two
``(label paths)`` rows beside the figure.
"""

import hashlib

import pytest

from repro.bench import ExperimentResult, time_call, write_report
from repro.core.registry import create_scheme
from repro.relational.database import Database

from benchmarks.conftest import SCALE_SWEEP, SCHEMES, scheme_kwargs

# Mid-path descendant: the closure cannot be avoided by label
# partitioning (a first-step //x could be answered from one
# partition without recursion).
QUERY = "/site/open_auctions//date"

#: sha256 prefixes of each mapping's rendered QUERY per scale factor
#: before the label-path catalog existed: the figure keeps timing that
#: very statement.  Edge's and binary's are the closure seeded by the
#: joined steps before it, with the rows and plan of the CTE-per-step
#: form they replaced (E34).
FIGURE_SQL_SHA256 = {
    (scheme, sf): digest
    for scheme, digest in {
        "edge": "abdb518fe1e38af2",
        "binary": "c93b9288a78bdad5",
        "universal": "a79bd8413bc67213",
        "interval": "9fc2d11433937c92",
        "dewey": "9125ab1f8b5681e4",
        "xrel": "5f6db8030fd131a6",
        "inlining": "ee345ac19a0dcb2e",
    }.items()
    for sf in SCALE_SWEEP
}
# Universal's statement names the label columns its document has.
FIGURE_SQL_SHA256[("universal", 0.2)] = "93e5184acc98e4e1"

#: Mappings whose query_pres expands the // over their label paths.
EXPANDING = ("edge", "binary")


@pytest.fixture(scope="module")
def sized_stores(auction_documents):
    """scheme -> {sf -> (scheme, doc_id)} across the scale sweep."""
    stores = {}
    databases = []
    for name in SCHEMES:
        per_scale = {}
        for sf in SCALE_SWEEP:
            db = Database()
            databases.append(db)
            scheme = create_scheme(name, db, **scheme_kwargs(name))
            result = scheme.store(auction_documents[sf], f"auction-{sf}")
            per_scale[sf] = (scheme, result.doc_id)
        stores[name] = per_scale
    yield stores
    for db in databases:
        db.close()


@pytest.mark.benchmark(group="e4-descendant", max_time=0.5, min_rounds=3)
@pytest.mark.parametrize("scheme_name", SCHEMES)
def test_e4_descendant_latency(benchmark, sized_stores, scheme_name):
    scheme, doc_id = sized_stores[scheme_name][SCALE_SWEEP[-1]]
    result = benchmark(scheme.query_pres, doc_id, QUERY)
    assert result


def test_e4_report(benchmark, sized_stores):
    result = ExperimentResult(
        experiment="E4",
        title=f"Descendant query latency vs document size ({QUERY}, ms)",
        workload=f"auction documents at scale factors {list(SCALE_SWEEP)}",
        expectation=(
            "edge/binary recursive closure grows fastest; interval "
            "(region) and dewey (prefix) stay near-flat"
        ),
    )
    measured = {}
    expected_counts = {}
    for scheme_name in SCHEMES:
        row = result.add_row(scheme_name)
        for sf in SCALE_SWEEP:
            scheme, doc_id = sized_stores[scheme_name][sf]
            sql, params = scheme.translator().sql_for(doc_id, QUERY)
            digest = hashlib.sha256(sql.encode()).hexdigest()[:16]
            assert digest == FIGURE_SQL_SHA256[(scheme_name, sf)], (
                scheme_name, sf
            )
            seconds = time_call(
                lambda db=scheme.db, q=sql, p=params: db.query(q, p),
                repetitions=5,
            )
            measured[(scheme_name, sf)] = seconds
            row.set(f"sf={sf}", seconds * 1000)
            count = len(scheme.db.query(sql, params))
            assert expected_counts.setdefault(sf, count) == count
            assert len(scheme.query_pres(doc_id, QUERY)) == count
    for scheme_name in EXPANDING:
        row = result.add_row(f"{scheme_name} (label paths)")
        for sf in SCALE_SWEEP:
            scheme, doc_id = sized_stores[scheme_name][sf]
            seconds = time_call(
                lambda s=scheme, d=doc_id: s.query_pres(d, QUERY),
                repetitions=5,
            )
            row.set(f"sf={sf}", seconds * 1000)
    write_report(result)
    benchmark(lambda: None)

    # Shape: at the largest size, the recursive-closure mappings lose to
    # the order-encoding mappings by a clear factor.
    largest = SCALE_SWEEP[-1]
    assert measured[("edge", largest)] > 2 * measured[("interval", largest)]
    assert measured[("binary", largest)] > 2 * measured[
        ("interval", largest)
    ]
    assert measured[("edge", largest)] > 2 * measured[("dewey", largest)]
