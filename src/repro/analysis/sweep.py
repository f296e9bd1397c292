"""The plan-lint sweep — the benchmark workload × every scheme.

Runs every query of the benchmark suite (the XMark-style auction
workload Q1–Q16 and the DBLP workload D1–D6) through each registered
scheme's XPath→SQL translator and the plan linter, and collects every
diagnostic the linter produces (run as ``python -m repro.analysis.sweep``).

This is the CI gate behind the static-analysis layer: a translator bug
that emits a dangling column reference, a cartesian product, or a
statement missing its document predicate shows up here as an
error-severity diagnostic and fails the job — *before* any differential
test has to chase the wrong rows it would return.

The sweep also asks the engine: each corpus is stored, so every plan is
run through ``EXPLAIN QUERY PLAN`` and
:func:`~repro.analysis.sqllint.lint_query_plan` reports as ``P007`` an
index sqlite would build at run time over a stored relation, or a
partition view it would materialize.  Those are advice-severity, yet a
``P007`` outside :data:`DECLARED_CLOSURES` fails the job like an error:
a structural join that rescans is a translator defect here, not a hint.

Queries a scheme legitimately cannot translate
(:class:`~repro.errors.UnsupportedQueryError`) are recorded as skipped,
not failed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.sqllint import lint_query_plan, lint_statement
from repro.core.registry import available_schemes
from repro.core.store import XmlRelStore
from repro.errors import UnsupportedQueryError
from repro.relational.sql import bind_doc_id
from repro.workloads import (
    AUCTION_QUERIES,
    DBLP_QUERIES,
    auction_dtd,
    dblp_dtd,
    generate_auction,
    generate_dblp,
)

#: Kept small — the sweep lints *plans*, not data, so corpus size only
#: affects the data-dependent schemes' label/partition discovery.
AUCTION_SCALE = 0.02
DBLP_RECORDS = 60

#: ``(corpus, scheme, query)`` cells whose ``P007`` is the mapping's
#: published cost, not a defect: binary has no relation to scan for a
#: ``//`` step below the first one (Q5, experiment E4) or for a
#: wildcard (D4) but the union of all its partitions.
DECLARED_CLOSURES = frozenset({
    ("auction", "binary", "Q5"),
    ("dblp", "binary", "D4"),
})


def corpora():
    """The benchmark corpora as ``(name, document, dtd, queries)``."""
    return [
        (
            "auction",
            generate_auction(scale_factor=AUCTION_SCALE),
            auction_dtd(),
            AUCTION_QUERIES,
        ),
        (
            "dblp",
            generate_dblp(record_count=DBLP_RECORDS),
            dblp_dtd(),
            DBLP_QUERIES,
        ),
    ]


def run_sweep(schemes: list[str] | None = None) -> dict:
    """Lint the full workload across *schemes* (default: all registered).

    Returns a JSON-ready report::

        {"checked": N, "skipped": N, "errors": N, "undeclared_p007": N,
         "diagnostics": [{...}, ...], "entries": [...]}
    """
    schemes = list(schemes or available_schemes())
    checked = skipped = 0
    diagnostics: list[tuple[str, str, str, Diagnostic]] = []
    entries: list[dict] = []
    for corpus_name, document, dtd, queries in corpora():
        for scheme in schemes:
            kwargs = {"dtd": dtd} if scheme == "inlining" else {}
            with XmlRelStore.open(scheme=scheme, **kwargs) as store:
                doc_id = store.store(document, corpus_name)
                translator = store.scheme.translator()
                for spec in queries:
                    try:
                        statement = translator.translate(doc_id, spec.xpath)
                    except UnsupportedQueryError:
                        skipped += 1
                        entries.append(
                            {
                                "corpus": corpus_name,
                                "scheme": scheme,
                                "query": spec.key,
                                "status": "skipped",
                            }
                        )
                        continue
                    checked += 1
                    catalog = store.db.schema_catalog()
                    sql, params = statement.render()
                    found = lint_statement(statement, catalog)
                    found += lint_query_plan(
                        statement,
                        store.db.explain_plan(
                            sql, bind_doc_id(params, doc_id)
                        ),
                        catalog,
                    )
                    entries.append(
                        {
                            "corpus": corpus_name,
                            "scheme": scheme,
                            "query": spec.key,
                            "status": "checked",
                            "diagnostics": [d.to_dict() for d in found],
                        }
                    )
                    diagnostics.extend(
                        (corpus_name, scheme, spec.key, d) for d in found
                    )
    errors = [d for *_ctx, d in diagnostics if d.is_error]
    undeclared = [
        d for *cell, d in diagnostics
        if d.code == "P007" and tuple(cell) not in DECLARED_CLOSURES
    ]
    return {
        "checked": checked,
        "skipped": skipped,
        "errors": len(errors),
        "undeclared_p007": len(undeclared),
        "diagnostics": [
            {"corpus": c, "scheme": s, "query": q, **d.to_dict()}
            for c, s, q, d in diagnostics
        ],
        "entries": entries,
    }


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    json_path = None
    if "--json" in argv:
        at = argv.index("--json")
        try:
            json_path = argv[at + 1]
        except IndexError:
            print("sweep: --json requires a path", file=sys.stderr)
            return 2
        del argv[at:at + 2]
    report = run_sweep(argv or None)
    if json_path:
        Path(json_path).write_text(
            json.dumps(report, indent=2) + "\n", encoding="utf-8"
        )
    print(
        f"plan-lint sweep: {report['checked']} plan(s) checked, "
        f"{report['skipped']} skipped, "
        f"{len(report['diagnostics'])} diagnostic(s), "
        f"{report['errors']} error(s), "
        f"{report['undeclared_p007']} undeclared P007"
    )
    for item in report["diagnostics"]:
        print(
            f"  [{item['corpus']}/{item['scheme']}/{item['query']}] "
            f"{item['code']} {item['severity']}: {item['message']}"
        )
    return 1 if report["errors"] or report["undeclared_p007"] else 0


if __name__ == "__main__":
    sys.exit(main())
