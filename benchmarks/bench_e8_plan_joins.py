"""E8 (Figure 4) — generated SQL join count vs. path length.

A *structural* (timing-free) metric: the number of join clauses in the
translated statement, plus one per subquery FROM — in ``JOIN … ON`` and
WHERE conditions alike — and the joins of any CTE.  Expected shape:

* edge/binary/interval/dewey — one join per step (linear in depth),
* universal — one path-table join for any linear path (flat),
* xrel — joins only at predicated steps (flat for pure paths),
* inlining — strictly fewer joins than interval whenever hops are
  inlined by the DTD.
"""

from repro.bench import ExperimentResult, write_report

from benchmarks.conftest import SCHEMES

DEPTH_QUERIES = {
    2: "/site/open_auctions",
    3: "/site/open_auctions/open_auction",
    4: "/site/open_auctions/open_auction/bidder",
    5: "/site/open_auctions/open_auction/bidder/increase",
}

PREDICATE_QUERY = (
    "/site/people/person[address/city = 'Berlin']/name"
)


def join_counts(stores):
    counts = {}
    for scheme_name in SCHEMES:
        scheme, doc_id = stores[scheme_name]
        translator = scheme.translator()
        for depth, query in DEPTH_QUERIES.items():
            counts[(scheme_name, depth)] = translator.join_count(
                doc_id, query
            )
        counts[(scheme_name, "pred")] = translator.join_count(
            doc_id, PREDICATE_QUERY
        )
    return counts


def test_e8_report(benchmark, auction_stores):
    counts = benchmark.pedantic(
        join_counts, args=(auction_stores,), rounds=1, iterations=1
    )
    result = ExperimentResult(
        experiment="E8",
        title="Generated SQL join count per statement vs path length",
        workload="auction spine at depths 2-5 plus one predicated query",
        expectation=(
            "join-per-step schemes grow linearly; universal and xrel "
            "stay flat; inlining below interval on DTD-inlined hops"
        ),
    )
    for scheme_name in SCHEMES:
        row = result.add_row(scheme_name)
        for depth in DEPTH_QUERIES:
            row.set(f"depth={depth}", counts[(scheme_name, depth)])
        row.set("predicated", counts[(scheme_name, "pred")])
    write_report(result)

    # Linear growth for the per-step join schemes.
    for scheme_name in ("edge", "interval", "dewey"):
        deltas = [
            counts[(scheme_name, d + 1)] - counts[(scheme_name, d)]
            for d in (2, 3, 4)
        ]
        assert all(delta >= 1 for delta in deltas), scheme_name
    # Universal: zero joins beyond its fixed path-table join.
    universal = [counts[("universal", d)] for d in DEPTH_QUERIES]
    assert universal[0] == universal[-1]
    # XRel: flat for pure paths (only the final alias is materialized).
    xrel = [counts[("xrel", d)] for d in DEPTH_QUERIES]
    assert xrel[0] == xrel[-1]
    # Inlining beats interval at every depth on this DTD.
    for depth in DEPTH_QUERIES:
        assert counts[("inlining", depth)] <= counts[("interval", depth)]
    assert counts[("inlining", 5)] < counts[("interval", 5)]
