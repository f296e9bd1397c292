"""Base class shared by all per-scheme XPath→SQL translators."""

from __future__ import annotations

import abc
from dataclasses import replace
from functools import partial

from repro.errors import PlanLintError, XmlRelError
from repro.query.plan import (
    BooleanPredicate,
    ComparisonPredicate,
    ConstantPredicate,
    CountPredicate,
    ExistsPredicate,
    LastPredicate,
    NotPredicate,
    PathPlan,
    PositionPredicate,
    PredicatePlan,
    StringMatchPredicate,
    ValuePath,
    plan_path,
    union_arms,
)
from repro.relational.plancache import CachedPlan, plan_key
from repro.relational.sql import (
    And,
    Not,
    Or,
    Raw,
    Select,
    SqlExpr,
    Union,
    WithQuery,
    bind_doc_id,
    like_escape,
)
from repro.xpath.ast import LocationPath
from repro.xpath.parser import parse_xpath

Renderable = Select | Union | WithQuery


def match_pattern(function: str, literal: str) -> str:
    """LIKE pattern for contains()/starts-with()."""
    escaped = like_escape(literal)
    return f"%{escaped}%" if function == "contains" else f"{escaped}%"


def _lint_into(memo: dict, memo_key: tuple, statement, catalog) -> tuple:
    """A plan's deferred lint over the render-time *catalog* snapshot,
    memoized.  It touches no connection, so it can run after the
    rendering connection went back to its pool."""
    # Deferred import: repro.analysis depends on repro.query.plan.
    from repro.analysis.sqllint import lint_statement

    verdict = memo.get(memo_key)  # another plan may have run this walk
    if not isinstance(verdict, tuple):
        verdict = memo[memo_key] = lint_statement(statement, catalog)
    return verdict


class BaseTranslator(abc.ABC):
    """Translate the XPath subset to SQL over one scheme's relations.

    Concrete translators implement :meth:`translate`; everything else
    (planning, caching, rendering, execution, join counting) is shared.

    Translation output is document-independent: translators emit the
    :class:`~repro.relational.sql.DocParam` placeholder instead of a
    baked document id, so the rendered ``(sql, params)`` pair is a
    reusable template.  String XPaths are cached in the database's
    :class:`~repro.relational.plancache.PlanCache` keyed by
    ``(scheme, plan_epoch, xpath)`` — repeated queries skip
    parse → plan → AST → render entirely.
    """

    def __init__(self, scheme) -> None:
        self.scheme = scheme
        self.db = scheme.db

    def plan(self, xpath: str | LocationPath | PathPlan) -> PathPlan:
        """Normalize *xpath* (string, AST, or already a plan)."""
        if isinstance(xpath, PathPlan):
            return xpath
        return plan_path(xpath, scheme=self.scheme.name)

    @abc.abstractmethod
    def translate(
        self, doc_id: int, xpath: str | LocationPath | PathPlan
    ) -> Renderable:
        """Build the SQL statement answering *xpath* over document
        *doc_id*.  The statement's first output column is the matching
        node's ``pre`` id; rows arrive in document order, distinct.

        The document id is emitted as the
        :class:`~repro.relational.sql.DocParam` placeholder, so the
        rendered statement is reusable across documents (the *doc_id*
        argument is kept for API symmetry and scheme-specific checks).
        """

    def sql_for(
        self, doc_id: int, xpath: str | LocationPath | PathPlan
    ) -> tuple[str, list]:
        """The rendered ``(sql, params)`` for *xpath*, with the document
        id bound."""
        sql, params = self.translate(doc_id, xpath).render()
        return sql, bind_doc_id(params, doc_id)

    # -- predicates ---------------------------------------------------------------

    def predicate_condition(
        self, predicate: PredicatePlan, ctx, doc_id: int
    ) -> SqlExpr:
        """One step predicate as a SQL condition — the walk every
        scheme shares.  *ctx* is whatever the translator needs to place
        a condition on the step the predicate sits on (an alias, a
        branch, a path prefix); it is only threaded through to the
        hooks below.  A scheme that cannot express a positional,
        ``last()`` or ``count()`` predicate leaves that hook alone."""
        if isinstance(predicate, BooleanPredicate):
            operands = tuple(
                self.predicate_condition(p, ctx, doc_id)
                for p in predicate.operands
            )
            return And(operands) if predicate.op == "and" else Or(operands)
        if isinstance(predicate, NotPredicate):
            return Not(
                self.predicate_condition(predicate.operand, ctx, doc_id)
            )
        if isinstance(predicate, ConstantPredicate):
            return Raw("1") if predicate.value else Raw("0")
        if isinstance(predicate, PositionPredicate):
            return self.position_condition(predicate, ctx, doc_id)
        if isinstance(predicate, LastPredicate):
            return self.last_condition(predicate, ctx, doc_id)
        if isinstance(predicate, CountPredicate):
            return self.count_condition(predicate, ctx, doc_id)
        if isinstance(predicate, ComparisonPredicate):
            return self.value_condition(
                predicate.path, ctx, doc_id,
                op=predicate.op, literal=predicate.literal,
                numeric=predicate.numeric,
            )
        if isinstance(predicate, ExistsPredicate):
            return self.value_condition(predicate.path, ctx, doc_id)
        if isinstance(predicate, StringMatchPredicate):
            return self.value_condition(
                predicate.path, ctx, doc_id,
                like_pattern=match_pattern(
                    predicate.function, predicate.literal
                ),
            )
        raise self._unsupported_predicate(predicate)

    def _unsupported_predicate(self, predicate: PredicatePlan):
        return self.scheme.unsupported(
            f"predicate {type(predicate).__name__}"
        )

    @abc.abstractmethod
    def value_condition(
        self,
        path: ValuePath,
        ctx,
        doc_id: int,
        op: str | None = None,
        literal: str | None = None,
        numeric: bool = False,
        like_pattern: str | None = None,
    ) -> SqlExpr:
        """The value at *path* below the step exists (no *op*, no
        *like_pattern*), compares to *literal*, or matches the LIKE
        pattern."""

    def position_condition(
        self, predicate: PositionPredicate, ctx, doc_id: int
    ) -> SqlExpr:
        """``[n]``."""
        raise self._unsupported_predicate(predicate)

    def last_condition(
        self, predicate: LastPredicate, ctx, doc_id: int
    ) -> SqlExpr:
        """``[last()]``."""
        raise self._unsupported_predicate(predicate)

    def count_condition(
        self, predicate: CountPredicate, ctx, doc_id: int
    ) -> SqlExpr:
        """``[count(path) op n]``."""
        raise self._unsupported_predicate(predicate)

    # -- plan caching -------------------------------------------------------------

    def _render_plans(self, statements) -> tuple[CachedPlan, ...]:
        """Render *statements* to cached-plan entries.

        One render pass per statement gives its SQL, parameters, join
        count and the tables it names.  Each plan carries the memoized
        lint verdict for its SQL text, or a walk that runs when
        :attr:`CachedPlan.diagnostics` is first read (most plans never
        are) over this render's catalog snapshot: the tables the
        statements name, taken now, so the walk touches no connection.
        Lint mode ``strict`` reads it here and raises
        :class:`~repro.errors.PlanLintError` when any diagnostic is
        error-severity.
        """
        rendered = [statement.render() for statement in statements]
        catalog = self.db.catalog_of(
            {table for _sql, params in rendered for table in params.tables}
        )
        memo = self.db.lint_memo
        plans = []
        for statement, (sql, params) in zip(statements, rendered):
            # Rendering is deterministic, so the SQL text (plus the
            # schema generation) is a sound memo key.  It holds the
            # verdict or the one pending walk all renders of the text
            # share, so literal variants keep one tree, not one each.
            memo_key = (catalog.schema_version, sql)
            entry = memo.get(memo_key)
            if entry is None:
                if len(memo) >= 1024:
                    memo.clear()
                entry = memo[memo_key] = partial(
                    _lint_into, memo, memo_key, statement, catalog
                )
            verdict, lint = (
                (entry, None) if isinstance(entry, tuple) else (None, entry)
            )
            plans.append(
                CachedPlan(sql, tuple(params), params.joins, verdict, lint)
            )
        plans = tuple(plans)
        if self.db.lint_mode == "strict":
            errors = [
                diagnostic
                for plan in plans
                for diagnostic in plan.diagnostics
                if diagnostic.is_error
            ]
            if errors:
                raise PlanLintError(errors)
        return plans

    # -- static analysis ----------------------------------------------------------

    def expansion_pays(self, plan: PathPlan) -> bool:
        """Whether rewriting *plan*'s ``//`` steps into the store's
        concrete child chains beats this mapping's own descendant plan.
        Order-encoded mappings answer ``//`` with one range or prefix
        probe, so by default it does not."""
        return False

    def _arms(self, expr) -> tuple[list, int | None]:
        """What to translate for *expr*, each union arm planned once:
        the arms less those the attached analyzer proves empty, or — for
        a single path where expansion pays — the label-path catalog's
        child chains; plus the catalog version the chains were read at
        (``None`` when none were)."""
        arms = union_arms(expr)
        try:
            plans = [self.plan(arm) for arm in arms]
        except XmlRelError:
            return arms, None  # translate() raises the planner's error
        analyzer = self.scheme.analyzer
        if analyzer is not None:
            plans = [
                plan for plan in plans
                if analyzer.satisfiable(plan) is not False
            ]
        catalog = self.scheme.label_paths
        if (
            len(plans) == 1
            and catalog is not None
            and self.expansion_pays(plans[0])
        ):
            # Deferred import: repro.analysis depends on repro.query.plan.
            from repro.analysis.xpathlint import expand_descendants

            version, paths = catalog.snapshot()
            expanded = paths and expand_descendants(plans[0], paths)
            if expanded:
                if self.db.tracer.enabled:
                    self.db.tracer.metrics.counter(
                        "analysis.expanded_queries"
                    ).inc()
                return expanded, version
        return plans, None

    def _stale(self, plans: tuple[CachedPlan, ...]) -> bool:
        """A cached expansion that may miss a label path committed
        since it was built, by this connection or any other: catalog
        ids only grow, so the version moved past the plan's."""
        version = plans[0].paths_version if plans else None
        return (
            version is not None
            and self.scheme.label_paths.version() > version
        )

    def plans_for(
        self, doc_id: int, xpath: str | LocationPath | PathPlan
    ) -> tuple[tuple[CachedPlan, ...], bool]:
        """The plans :meth:`query_pres` runs for *xpath* plus whether
        they came from the cache — the one place a query's plans are
        read, so ``explain``, ``query_report`` and the serving wide
        event see what runs.

        A plain path yields one plan; a top-level union (``p1 | p2``)
        one per arm.  With an
        :class:`~repro.analysis.xpathlint.XPathAnalyzer` attached, arms
        it proves empty are dropped, so a provably empty path yields
        ``()`` and runs zero statements; a ``//`` path compiles into one
        plan per concrete child chain where :meth:`expansion_pays`.
        Only string XPaths are cached (ASTs and pre-built plans are
        already past the expensive phase), under :func:`plan_key`, so a
        warm query neither parses nor re-runs the analyzer.
        """
        cache = self.db.plan_cache
        tracer = self.db.tracer
        key = None
        if isinstance(xpath, str):
            key = plan_key(self.scheme.name, self.scheme.plan_epoch, xpath)
            plans = cache.get(key)
            if plans is not None and not self._stale(plans):
                if tracer.enabled:
                    tracer.metrics.counter("plan_cache.hits").inc()
                return plans, True
            if tracer.enabled:
                tracer.metrics.counter("plan_cache.misses").inc()
        with tracer.span("translate") as translate_span:
            # The one parse of a cache miss: translate() gets the AST.
            expr = parse_xpath(xpath) if key else xpath
            arms, version = self._arms(expr)
            plans = self._render_plans(
                [self.translate(doc_id, arm) for arm in arms]
            )
            if version is not None:
                plans = tuple(
                    replace(plan, paths_version=version) for plan in plans
                )
            if translate_span:
                translate_span.set(
                    sql_length=sum(len(p.sql) for p in plans),
                    joins=sum(p.join_count for p in plans),
                )
                diagnostics = [
                    d.format() for p in plans for d in p.diagnostics
                ]
                if diagnostics:
                    translate_span.set(diagnostics=diagnostics)
        if key is not None:
            cache.put(key, plans)
            if tracer.enabled:
                tracer.metrics.gauge("plan_cache.size").set(len(cache))
        return plans, False

    # -- execution ----------------------------------------------------------------

    def query_pres(
        self, doc_id: int, xpath: str | LocationPath | PathPlan
    ) -> list[int]:
        """Execute the translated query; return matching ``pre`` ids.

        Top-level unions (``p1 | p2``) are supported for every scheme by
        translating each arm separately and merging the id sets — the
        XPath union semantics (distinct, document order) are exactly a
        sorted set merge on the shared ids.  The whole union counts as
        *one* executed query: each arm runs as a ``query.arm`` child
        span, not its own top-level ``query``.

        Under an enabled :class:`~repro.obs.trace.Tracer` the run is
        recorded as a ``query`` span with ``translate`` and ``execute``
        children (individual ``sql.statement`` spans nest under
        ``execute``); a cache hit skips the ``translate`` child.

        When the scheme has an attached
        :class:`~repro.analysis.xpathlint.XPathAnalyzer` that proves the
        path unsatisfiable against the DTD/path summary, the query
        short-circuits to an empty result with zero SQL statements
        executed.
        """
        tracer = self.db.tracer
        with tracer.span("query") as query_span:
            if query_span:
                query_span.set(
                    scheme=self.scheme.name, xpath=str(xpath)
                )
                tracer.metrics.counter("query.executed").inc()
            plans, cache_hit = self.plans_for(doc_id, xpath)
            if not plans:
                if query_span:
                    query_span.set(rows=0, unsatisfiable=True)
                if tracer.enabled:
                    tracer.metrics.counter("analysis.unsat_queries").inc()
                return []
            pres = self.execute_plans(doc_id, plans)
            if query_span:
                query_span.set(rows=len(pres), cache_hit=cache_hit)
                if len(plans) > 1:
                    query_span.set(union_arms=len(plans))
            return pres

    def execute_plans(
        self, doc_id: int, plans: tuple[CachedPlan, ...]
    ) -> list[int]:
        """Run :meth:`plans_for`'s *plans* over document *doc_id*: the
        matching ``pre`` ids, distinct and in document order.  One plan
        runs in an ``execute`` span; several each run in a
        ``query.arm`` child and merge as a sorted set."""
        tracer = self.db.tracer
        if len(plans) == 1:
            plan = plans[0]
            with tracer.span("execute"):
                rows = self.db.query(
                    plan.sql, bind_doc_id(plan.params, doc_id)
                )
            return [row[0] for row in rows]
        merged: set[int] = set()
        for index, plan in enumerate(plans):
            with tracer.span("query.arm") as arm_span:
                if arm_span:
                    arm_span.set(arm=index)
                with tracer.span("execute"):
                    rows = self.db.query(
                        plan.sql, bind_doc_id(plan.params, doc_id)
                    )
                if arm_span:
                    arm_span.set(rows=len(rows))
                merged.update(row[0] for row in rows)
        return sorted(merged)

    def join_count(
        self, doc_id: int, xpath: str | LocationPath | PathPlan
    ) -> int:
        """Structural join count of the translated statement (metric of
        experiment E8)."""
        return self.translate(doc_id, xpath).join_count
