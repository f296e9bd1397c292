"""Crash-sweep harness for the writable sharded store.

Proves the crash-safety claim mechanically: for every mapping scheme
and every fault-sensitive operation (subtree insert/delete, document
rebalance, corpus load), run the operation once uninjured to count how
many statements it executes on each shard, then re-run it once per
statement boundary with a :class:`~repro.reliability.faults.
ShardFaultPolicy` crash injected exactly there.  After each crash the
harness heals the policy, runs :meth:`~repro.serve.sharded.
ShardedStore.recover`, and demands:

* every shard passes its per-scheme integrity audit **and** the
  placement audit (``store.verify_all()`` all-ok),
* the touched document is either fully rolled back or fully applied —
  its observable state matches the before- or after-image exactly,
  never a hybrid,
* a close-and-reopen of the store (recovery from the on-disk state
  alone, the real crash-restart path) also verifies clean.

Run as a CLI (the CI ``fault-matrix`` job):

.. code-block:: console

   $ python -m repro.reliability.crashsweep --json fault-matrix.json

Exit status is non-zero when any sweep point fails.  ``--stride`` can
sample every k-th boundary for a quicker sweep; coverage dropped that
way is reported, never silent.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile

from repro.core.registry import available_schemes
from repro.errors import XmlRelError
from repro.reliability.faults import ShardFaultPolicy, SimulatedCrash
from repro.serve.sharded import ShardedStore
from repro.xml import parse_document, parse_fragment

#: The swept document — small enough that a sweep point is cheap, deep
#: enough that every scheme stores a non-trivial row set.  The DOCTYPE
#: feeds the inlining scheme.
SWEEP_XML = """\
<!DOCTYPE bib [
<!ELEMENT bib (book*)>
<!ELEMENT book (title, price?)>
<!ATTLIST book year CDATA #REQUIRED>
<!ELEMENT title (#PCDATA)>
<!ELEMENT price (#PCDATA)>
]>
<bib>
  <book year="1994"><title>TCP/IP Illustrated</title><price>65.95</price></book>
  <book year="2000"><title>Data on the Web</title></book>
</bib>
"""

FRAGMENT_XML = "<book year='2003'><title>Holistic twig joins</title></book>"

#: The corpus fed to the ``load`` sweep (``store_corpus``): three
#: documents, which round-robin placement spreads over both shards, so
#: the crash can land in either shard's statement stream — row
#: production or session close.
CORPUS_XMLS = tuple(
    f'<bib><book year="199{n}"><title>Corpus {n}</title></book></bib>'
    for n in range(3)
)

#: Operations swept per scheme; insert/delete only where the scheme's
#: update machinery exists.
OPERATIONS = ("insert", "delete", "rebalance", "load")


def _open_store(directory: str, scheme: str, policy: ShardFaultPolicy):
    document = parse_document(SWEEP_XML)
    kwargs = {"dtd": document.dtd} if scheme == "inlining" else {}
    store = ShardedStore.open(
        directory,
        scheme=scheme,
        shards=2,
        placement="round_robin",
        profile="bulk_load",
        pool_size=2,
        fault_policy=policy,
        **kwargs,
    )
    doc_id = store.store(document, name="sweep-doc")
    return store, doc_id


def _observe(store: ShardedStore, doc_id: int) -> str:
    """The store's observable content, as reconstructed XML.

    Every mapped document is observed (keyed by name), not just the
    sweep document — the ``load`` sweep's all-or-nothing claim is about
    which corpus documents exist at all.  Node ids are deliberately NOT
    part of the observation: a rebalance re-stores the document on its
    destination shard, and some schemes (inlining) assign fresh ids
    there — content is the invariant, ids are not.

    The title count comes through ``query_all``, the path the pools'
    result caches serve: the same query runs before the crash, so a
    cache that outlived a committed write (or kept rows of one rolled
    back) shows up as a count that disagrees with the XML beside it.
    """
    parts = [
        store.reconstruct_xml(doc_id),
        f"titles={len(store.query_all('//title').rows)}",
    ]
    for entry in sorted(store.documents(), key=lambda e: e.name):
        parts.append(f"{entry.name}={store.reconstruct_xml(entry.doc_id)}")
    return "\n".join(parts)


def _run_operation(store: ShardedStore, doc_id: int, operation: str) -> None:
    if operation == "insert":
        root = store.query_pres(doc_id, "/bib")[0]
        store.insert_subtree(
            doc_id, root, parse_fragment(FRAGMENT_XML), index=0
        )
    elif operation == "delete":
        victim = store.query_pres(doc_id, "/bib/book")[0]
        store.delete_subtree(doc_id, victim)
    elif operation == "rebalance":
        store.rebalance(doc_id, 1 - store.resolve(doc_id).shard)
    elif operation == "load":
        store.store_corpus(
            CORPUS_XMLS,
            names=[f"corpus-{n}" for n in range(len(CORPUS_XMLS))],
        )
    else:
        raise ValueError(f"unknown sweep operation {operation!r}")


def _sweep_shards(store: ShardedStore, doc_id: int, operation: str) -> list[int]:
    """Which shards' statement streams the operation touches."""
    home = store.resolve(doc_id).shard
    if operation in ("rebalance", "load"):
        return [home, 1 - home]
    return [home]


def _measure(scheme: str, operation: str) -> tuple[dict[int, int], str]:
    """Dry-run the operation uninjured.

    Returns the statements it executed per swept shard (the sweep's
    boundary budget) and the document's after-image — the canonical
    "fully applied" content a crashed-but-committed trial must match.
    """
    policy = ShardFaultPolicy()
    with tempfile.TemporaryDirectory() as directory:
        store, doc_id = _open_store(directory, scheme, policy)
        try:
            shards = _sweep_shards(store, doc_id, operation)
            before = {s: policy.statement_count(s) for s in shards}
            _run_operation(store, doc_id, operation)
            budgets = {
                s: policy.statement_count(s) - before[s] for s in shards
            }
            return budgets, _observe(store, doc_id)
        finally:
            store.close()


def _sweep_point(
    scheme: str,
    operation: str,
    shard_role: int,
    boundary: int,
    applied_image: str,
) -> dict:
    """One trial: crash at statement *boundary* of shard *shard_role*
    (0 = the document's home shard, 1 = the other shard), recover,
    audit.  *applied_image* is the uninjured run's after-content.
    Returns a JSON-able point record; ``point["ok"]`` is the verdict."""
    point = {
        "scheme": scheme,
        "operation": operation,
        "shard_role": shard_role,
        "boundary": boundary,
        "crashed": False,
        "ok": True,
        "errors": [],
    }
    policy = ShardFaultPolicy()
    with tempfile.TemporaryDirectory() as directory:
        store, doc_id = _open_store(directory, scheme, policy)
        try:
            before_image = _observe(store, doc_id)
            target = _sweep_shards(store, doc_id, operation)[shard_role]
            policy.crash_shard(target, boundary)
            try:
                _run_operation(store, doc_id, operation)
            except SimulatedCrash:
                point["crashed"] = True
            except XmlRelError as exc:
                # A crash on one shard may surface on another statement
                # stream as a StorageError ("shard crashed"); that still
                # counts as the injected fault firing.
                point["crashed"] = True
                point["error_kind"] = type(exc).__name__
            policy.heal_all()
            report = store.recover()
            point["recovery"] = {
                "rolled_back": list(report.rolled_back),
                "rolled_forward": list(report.rolled_forward),
                "cleaned_up": list(report.cleaned_up),
                "orphans_removed": [
                    list(pair) for pair in report.orphans_removed
                ],
            }
            _audit(store, point)
            # All-or-nothing: the recovered content must be exactly the
            # before-image (rolled back) or the fully-applied
            # after-image (the crash landed on post-commit maintenance,
            # e.g. ANALYZE) — never anything in between.
            observed = _observe(store, doc_id)
            if observed not in (before_image, applied_image):
                point["errors"].append(
                    f"{operation} left a partial state (matches neither "
                    f"the before- nor the applied image)"
                )
        finally:
            store.close()
        # The real crash-restart path: recover purely from disk.
        reopen_policy = ShardFaultPolicy()
        reopened, _ = _reopen(directory, scheme, reopen_policy)
        try:
            _audit(reopened, point, stage="reopen")
        finally:
            reopened.close()
    point["ok"] = not point["errors"]
    return point


def _reopen(directory: str, scheme: str, policy: ShardFaultPolicy):
    document = parse_document(SWEEP_XML)
    kwargs = {"dtd": document.dtd} if scheme == "inlining" else {}
    store = ShardedStore.open(
        directory,
        scheme=scheme,
        shards=2,
        placement="round_robin",
        profile="bulk_load",
        pool_size=2,
        fault_policy=policy,
        **kwargs,
    )
    return store, None


def _audit(store: ShardedStore, point: dict, stage: str = "post") -> None:
    for shard, reports in store.verify_all().items():
        for report in reports:
            if not report.ok:
                for issue in report.issues:
                    point["errors"].append(
                        f"[{stage}] shard {shard} doc {report.doc_id} "
                        f"{issue.check}: {issue.message}"
                    )


def sweep(
    schemes: list[str] | None = None,
    operations: list[str] | None = None,
    stride: int = 1,
    max_points: int | None = None,
) -> dict:
    """Run the full matrix; returns the JSON-able report."""
    schemes = list(schemes or available_schemes())
    operations = list(operations or OPERATIONS)
    if stride < 1:
        raise ValueError("stride must be >= 1")
    results = []
    total = failed = skipped = 0
    for scheme in schemes:
        for operation in operations:
            if operation in ("insert", "delete") and not _updatable(scheme):
                continue
            budgets, applied_image = _measure(scheme, operation)
            shards = list(budgets)
            for shard_role, shard in enumerate(shards):
                boundaries = list(range(1, budgets[shard] + 1))
                chosen = boundaries[::stride]
                if max_points is not None:
                    chosen = chosen[:max_points]
                skipped += len(boundaries) - len(chosen)
                for boundary in chosen:
                    point = _sweep_point(
                        scheme, operation, shard_role, boundary,
                        applied_image,
                    )
                    total += 1
                    if not point["ok"]:
                        failed += 1
                    results.append(point)
    return {
        "tool": "repro.reliability.crashsweep",
        "schemes": schemes,
        "operations": operations,
        "stride": stride,
        "points_run": total,
        "points_failed": failed,
        "points_skipped_by_sampling": skipped,
        "ok": failed == 0,
        "points": results,
    }


def _updatable(scheme: str) -> bool:
    return scheme in ("binary", "edge", "interval", "dewey")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Crash-sweep the writable sharded store: inject a "
        "simulated crash at every statement boundary of every "
        "fault-sensitive operation, recover, and audit."
    )
    parser.add_argument(
        "--schemes", nargs="*", default=None,
        help="mapping schemes to sweep (default: all registered)",
    )
    parser.add_argument(
        "--ops", nargs="*", default=None, choices=OPERATIONS,
        help="operations to sweep (default: all)",
    )
    parser.add_argument(
        "--stride", type=int, default=1,
        help="sample every k-th statement boundary (default: 1 = all)",
    )
    parser.add_argument(
        "--max-points", type=int, default=None,
        help="cap sweep points per (scheme, op, shard)",
    )
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the full report as JSON to PATH",
    )
    args = parser.parse_args(argv)
    report = sweep(
        schemes=args.schemes,
        operations=args.ops,
        stride=args.stride,
        max_points=args.max_points,
    )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
    print(
        f"crashsweep: {report['points_run']} point(s), "
        f"{report['points_failed']} failed, "
        f"{report['points_skipped_by_sampling']} skipped by sampling "
        f"({'OK' if report['ok'] else 'FAILED'})"
    )
    if not report["ok"]:
        for point in report["points"]:
            if not point["ok"]:
                print(
                    f"  FAIL {point['scheme']}/{point['operation']} "
                    f"shard-role {point['shard_role']} "
                    f"boundary {point['boundary']}:"
                )
                for error in point["errors"]:
                    print(f"    {error}")
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
