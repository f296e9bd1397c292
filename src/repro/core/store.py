"""``XmlRelStore`` — the one-stop facade.

.. code-block:: python

    from repro import XmlRelStore

    with XmlRelStore.open("catalog.db", scheme="interval") as store:
        doc_id = store.store_text("<bib>...</bib>")
        for title in store.query(doc_id, "/bib/book/title"):
            print(store.serialize_node(title))

A store wraps one sqlite database and one storage scheme.  Queries go
through the scheme's XPath→SQL translator; results come back either as
``pre`` ids (:meth:`query_pres`), reconstructed DOM nodes
(:meth:`query`), or serialized XML strings (:meth:`query_xml`).
"""

from __future__ import annotations

import time

from repro.core.registry import check_scheme_kwargs, create_scheme
from repro.errors import XmlRelError
from repro.obs.report import Explanation, QueryReport
from repro.obs.trace import Tracer
from repro.relational.catalog import DocumentRecord
from repro.relational.database import Database
from repro.relational.retry import RetryPolicy
from repro.relational.sql import bind_doc_id
from repro.reliability.audit import IntegrityReport
from repro.storage.base import BulkSession, MappingScheme
from repro.xml.dom import Document, Node
from repro.xml.events import payload_events
from repro.xml.parser import ParseOptions
from repro.xml.serialize import serialize


def _explain_plans(
    db: Database, scheme: MappingScheme, doc_id: int, xpath: str, plans
) -> Explanation:
    """Describe every statement of *plans* (``plans_for``'s, in arm
    order) as it runs over document *doc_id*: their SQL joined by
    ``";\\n"``, their bound parameters in the same order, and their
    ``EXPLAIN QUERY PLAN`` lines.  No plans (a provably empty path):
    no statement."""
    bound = [bind_doc_id(plan.params, doc_id) for plan in plans]
    return Explanation(
        xpath=str(xpath),
        scheme=scheme.name,
        sql=";\n".join(plan.sql for plan in plans),
        params=tuple(param for params in bound for param in params),
        plan=tuple(
            line
            for plan, params in zip(plans, bound)
            for line in db.explain_plan(plan.sql, params)
        ),
    )


def build_query_report(
    db: Database,
    scheme: MappingScheme,
    doc_id: int,
    xpath: str,
) -> QueryReport:
    """Run *xpath* against one document and assemble the full per-query
    cost record over the plans ``query_pres`` runs.  Shared by
    :meth:`XmlRelStore.query_report` and the sharded store (which runs
    it on a pooled read session)."""
    translator = scheme.translator()
    started = time.perf_counter()
    plans, cache_hit = translator.plans_for(doc_id, xpath)
    translate_seconds = time.perf_counter() - started
    explanation = _explain_plans(db, scheme, doc_id, xpath, plans)
    started = time.perf_counter()
    pres = tuple(translator.execute_plans(doc_id, plans))
    execute_seconds = time.perf_counter() - started
    cache_stats = db.plan_cache.stats()
    return QueryReport(
        xpath=explanation.xpath,
        scheme=explanation.scheme,
        sql=explanation.sql,
        params=explanation.params,
        join_count=sum(plan.join_count for plan in plans),
        plan=explanation.plan,
        translate_seconds=translate_seconds,
        execute_seconds=execute_seconds,
        row_count=len(pres),
        pres=pres,
        cache_hit=cache_hit,
        cache_hits=cache_stats["hits"],
        cache_misses=cache_stats["misses"],
        analysis=tuple(d for plan in plans for d in plan.diagnostics),
    )


def open_scheme(
    path: str,
    scheme: str,
    factory=Database,
    scheme_kwargs: dict | None = None,
    **db_options,
) -> MappingScheme:
    """Open the database at *path* through *factory* (``db_options``
    pass to it) and build *scheme* over it — the one recipe behind
    every store, shard writer and pooled reader.  The database is
    closed again when the scheme cannot be built."""
    db = factory(path, **db_options)
    try:
        return create_scheme(scheme, db, **(scheme_kwargs or {}))
    except BaseException:
        db.close()
        raise


class XmlRelStore:
    """An XML document store over a relational database."""

    def __init__(self, db: Database, scheme: MappingScheme) -> None:
        self.db = db
        self.scheme = scheme

    @classmethod
    def open(
        cls,
        path: str = ":memory:",
        scheme: str = "interval",
        profile: str = "bulk_load",
        retry: RetryPolicy | None = None,
        tracer: Tracer | None = None,
        lint: str = "default",
        **kwargs,
    ) -> "XmlRelStore":
        """Open (creating if needed) a store at *path* using *scheme*.

        *profile* selects the durability profile (``bulk_load`` /
        ``durable`` / ``paranoid`` — see
        :data:`repro.relational.database.DURABILITY_PROFILES`), *retry*
        an optional :class:`~repro.relational.retry.RetryPolicy` for
        transient busy/locked errors, *tracer* an optional
        :class:`~repro.obs.trace.Tracer` that records spans, statement
        events, and metrics for everything this store does (tracing is
        off without one), *lint* the plan-lint mode (``default`` /
        ``strict`` — see
        :data:`repro.relational.database.LINT_MODES`; ``strict`` raises
        :class:`~repro.errors.PlanLintError` on error-severity
        diagnostics).  ``kwargs`` pass through to the scheme (e.g.
        ``dtd=``/``strategy=`` for ``inlining``); one it does not take
        raises :class:`~repro.errors.StorageError` before *path* is
        opened.
        """
        check_scheme_kwargs(scheme, kwargs)
        opened = open_scheme(
            path, scheme, scheme_kwargs=kwargs,
            profile=profile, retry=retry, tracer=tracer, lint=lint,
        )
        return cls(opened.db, opened)

    @property
    def tracer(self) -> Tracer:
        """The observability sink this store reports into (the shared
        disabled tracer unless one was passed to :meth:`open`)."""
        return self.db.tracer

    def close(self) -> None:
        self.db.close()

    def __enter__(self) -> "XmlRelStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- storing ----------------------------------------------------------------

    def store(self, document: Document, name: str = "document") -> int:
        """Shred a parsed document; returns its doc_id."""
        return self.scheme.store(document, name).doc_id

    def store_text(
        self,
        text: str,
        name: str = "document",
        keep_whitespace: bool = True,
    ) -> int:
        """Parse and store XML *text* (:meth:`store_stream` over it)."""
        return self.store_stream(text, name, keep_whitespace)

    def store_stream(
        self,
        source,
        name: str = "document",
        keep_whitespace: bool = True,
    ) -> int:
        """Shred *source* (XML text, an open file object, a path, or an
        already-parsed :class:`Document`) without ever building a DOM:
        the pull parser feeds the scheme's streaming inserter, so memory
        stays O(document depth) plus one row batch regardless of
        document size."""
        events = payload_events(
            source, ParseOptions(keep_whitespace=keep_whitespace)
        )
        return self.scheme.store_stream(events, name).doc_id

    def store_file(self, path: str, name: str | None = None) -> int:
        """Shred the XML file at *path*, streaming straight from the
        file handle — the file is never read into memory whole.

        I/O failures (missing file, bad encoding) are wrapped in
        :class:`~repro.errors.XmlRelError` so callers keep the single
        ``except XmlRelError`` clause the library promises; decode
        errors surface lazily from the streaming reads and land in the
        same clause.
        """
        try:
            with open(path, encoding="utf-8") as handle:
                return self.store_stream(handle, name or path)
        except (OSError, UnicodeDecodeError) as error:
            raise XmlRelError(
                f"cannot read XML file {path!r}: {error}"
            ) from error

    # -- bulk loading -------------------------------------------------------------

    def bulk_session(self) -> BulkSession:
        """A context manager batching many stores into one transaction.

        .. code-block:: python

            with store.bulk_session() as session:
                for document in corpus:
                    session.store(document)
            doc_ids = session.doc_ids

        All documents commit atomically on exit; ``ANALYZE`` runs once at
        session close instead of once per document.  An exception rolls
        back the entire batch.
        """
        return BulkSession(self.scheme)

    def store_many(
        self,
        documents: list[Document],
        names: list[str] | None = None,
    ) -> list[int]:
        """Store *documents* through one :meth:`bulk_session`; returns
        their doc_ids in order."""
        if names is not None and len(names) != len(documents):
            raise XmlRelError(
                f"{len(documents)} document(s) but {len(names)} name(s)"
            )
        with self.bulk_session() as session:
            for position, document in enumerate(documents):
                name = (
                    names[position] if names is not None
                    else f"document-{position}"
                )
                session.store(document, name)
        return session.doc_ids

    # -- catalog ------------------------------------------------------------------

    def documents(self) -> list[DocumentRecord]:
        """Catalog rows of every stored document."""
        return self.scheme.catalog.list(scheme=self.scheme.name)

    def delete(self, doc_id: int) -> None:
        """Remove a stored document."""
        self.scheme.delete_document(doc_id)

    # -- integrity ----------------------------------------------------------------

    def verify(self, doc_id: int) -> IntegrityReport:
        """Audit the stored invariants of one document — the
        shredded-XML analogue of ``PRAGMA integrity_check``.  Returns a
        structured :class:`~repro.reliability.audit.IntegrityReport`
        (``report.ok`` / ``report.issues``)."""
        return self.scheme.verify_document(doc_id)

    def verify_all(self) -> list[IntegrityReport]:
        """Audit every document stored under this store's scheme."""
        return [
            self.verify(record.doc_id) for record in self.documents()
        ]

    # -- querying ------------------------------------------------------------------

    def query_pres(self, doc_id: int, xpath: str) -> list[int]:
        """Matching node ids (pre order positions), via SQL."""
        return self.scheme.query_pres(doc_id, xpath)

    def query(self, doc_id: int, xpath: str) -> list[Node]:
        """Matching nodes, reconstructed from the database."""
        return self.scheme.query_nodes(doc_id, xpath)

    def query_xml(self, doc_id: int, xpath: str) -> list[str]:
        """Matching nodes as serialized XML fragments (rows → text; no
        tree is built)."""
        return self.scheme.query_xml(doc_id, xpath)

    def sql_for(self, doc_id: int, xpath: str) -> tuple[str, list]:
        """The generated SQL (and parameters) for *xpath* — inspection and
        the plan-complexity experiment."""
        return self.scheme.translator().sql_for(doc_id, xpath)

    # -- static analysis -----------------------------------------------------------

    def enable_analysis(
        self,
        dtd=None,
        summary=None,
        doc_id: int | None = None,
    ):
        """Attach an XPath static analyzer to this store's scheme.

        Exactly one structural source is needed: a parsed
        :class:`~repro.xml.dtd.Dtd`, a pre-built
        :class:`~repro.stats.pathsummary.PathSummary`, or a *doc_id*
        whose stored document the summary is built from.  Once enabled,
        queries the analyzer proves unsatisfiable short-circuit with
        zero SQL statements executed.  ``//`` expansion needs none of
        this: edge and binary rewrite a mid-path ``//`` into the child
        chains their own label-path catalog holds, DTD or not.  Returns
        the attached :class:`~repro.analysis.xpathlint.XPathAnalyzer`.
        """
        from repro.analysis.xpathlint import XPathAnalyzer

        if summary is None and doc_id is not None:
            from repro.stats.pathsummary import build_summary

            summary = build_summary(self.reconstruct(doc_id))
        analyzer = XPathAnalyzer(dtd=dtd, summary=summary)
        self.scheme.attach_analyzer(analyzer)
        return analyzer

    def clear_plan_cache(self) -> None:
        """Drop every cached translation (cold-start measurements;
        cumulative hit/miss counters are kept)."""
        self.db.plan_cache.clear()

    # -- introspection -------------------------------------------------------------

    def explain(self, doc_id: int, xpath: str) -> Explanation:
        """Translate *xpath* and ask the engine how it would run it.

        Returns the SQL of every statement :meth:`query_pres` runs for
        it plus their ``EXPLAIN QUERY PLAN`` detail lines — index usage
        (experiment E11) without touching scheme internals and without
        executing the query.  A union, or a ``//`` expanded into child
        chains, shows one statement per arm (``";\\n"``-joined); a path
        the attached analyzer proves empty shows none.
        """
        plans, _hit = self.scheme.translator().plans_for(doc_id, xpath)
        return _explain_plans(self.db, self.scheme, doc_id, xpath, plans)

    def query_report(self, doc_id: int, xpath: str) -> QueryReport:
        """Run *xpath* and return the full per-query cost record:
        translation time, SQL length, structural join count, plan lines,
        execution time, plan-cache state, and the matching ids."""
        return build_query_report(self.db, self.scheme, doc_id, xpath)

    # -- retrieval -----------------------------------------------------------------

    def reconstruct(self, doc_id: int) -> Document:
        """Rebuild the whole document from its rows."""
        return self.scheme.reconstruct(doc_id)

    def reconstruct_xml(self, doc_id: int) -> str:
        """The whole document as XML text (rows → text; no tree is
        built)."""
        return self.scheme.reconstruct_xml(doc_id)

    def reconstruct_subtree(self, doc_id: int, pre: int) -> Node:
        """Rebuild one subtree by its node id."""
        return self.scheme.reconstruct_subtree(doc_id, pre)

    @staticmethod
    def serialize_node(node: Node) -> str:
        """Serialize one reconstructed node."""
        return serialize(node)

    # -- accounting -----------------------------------------------------------------

    def storage_bytes(self) -> int:
        """Logical bytes used by the scheme's relations."""
        return self.scheme.storage_bytes()

    def table_names(self) -> list[str]:
        """The scheme's relations currently present."""
        return self.scheme.table_names()


#: Module-level alias of :meth:`XmlRelStore.open`.
open_store = XmlRelStore.open
