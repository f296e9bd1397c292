"""E9 (Table 5) — DTD inlining: schema structure per strategy.

Reproduces the shape of Shanmugasundaram et al.'s strategy comparison:
for each DTD, the number of relations, total columns, and fragmented
(own-relation) elements under basic / shared / hybrid inlining.

Expected shape: basic creates a relation per element (most relations);
shared collapses single-parent elements (far fewer); hybrid inlines the
merely-shared elements too (fewest relations, duplicated columns — so
*more columns per relation*).  Recursive DTDs keep their cycle elements
as relations under every strategy.
"""

from repro.bench import ExperimentResult, write_report
from repro.storage.inlining import build_mapping
from repro.workloads import auction_dtd, dblp_dtd
from repro.xml.dtd import parse_dtd

RECURSIVE_DTD = """
<!ELEMENT book (title, author*)>
<!ATTLIST book id ID #REQUIRED>
<!ELEMENT author (name, book*)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT name (#PCDATA)>
"""

DTDS = {
    "auction": auction_dtd,
    "dblp": dblp_dtd,
    "recursive": lambda: parse_dtd(RECURSIVE_DTD, root_name="book"),
}

STRATEGIES = ("basic", "shared", "hybrid")


def structure(dtd_factory, strategy):
    mapping = build_mapping(dtd_factory(), strategy)
    return {
        "relations": mapping.relation_count,
        "columns": mapping.total_columns,
        "fragmented": len(mapping.fragmented_elements()),
    }


def test_e9_report(benchmark):
    measurements = benchmark.pedantic(
        lambda: {
            (name, strategy): structure(factory, strategy)
            for name, factory in DTDS.items()
            for strategy in STRATEGIES
        },
        rounds=1,
        iterations=1,
    )
    result = ExperimentResult(
        experiment="E9",
        title="DTD inlining: relations/columns per strategy",
        workload="auction, dblp and recursive DTDs",
        expectation=(
            "relations: basic > shared >= hybrid; hybrid trades "
            "relations for duplicated columns"
        ),
    )
    for name in DTDS:
        row = result.add_row(name)
        for strategy in STRATEGIES:
            numbers = measurements[(name, strategy)]
            row.set(f"{strategy} rel", numbers["relations"])
            row.set(f"{strategy} col", numbers["columns"])
    write_report(result)

    for name in DTDS:
        basic = measurements[(name, "basic")]
        shared = measurements[(name, "shared")]
        hybrid = measurements[(name, "hybrid")]
        assert basic["relations"] > shared["relations"]
        assert shared["relations"] >= hybrid["relations"]
        # Hybrid duplicates inlined shared elements into every parent:
        # average relation width grows.
        assert (
            hybrid["columns"] / hybrid["relations"]
            >= shared["columns"] / shared["relations"]
        )


def test_e9_recursive_elements_stay_relations(benchmark):
    def check():
        mapping = build_mapping(
            parse_dtd(RECURSIVE_DTD, root_name="book"), "hybrid"
        )
        assert {"book", "author"} <= set(mapping.relations)
        return mapping

    benchmark.pedantic(check, rounds=1, iterations=1)


def test_e9_shared_element_detection(benchmark):
    def check():
        # `name` is referenced by item, category and person in the
        # auction DTD: a relation under shared, inlined under hybrid.
        shared = build_mapping(auction_dtd(), "shared")
        hybrid = build_mapping(auction_dtd(), "hybrid")
        assert "name" in shared.relations
        assert "name" not in hybrid.relations
        return shared, hybrid

    benchmark.pedantic(check, rounds=1, iterations=1)
