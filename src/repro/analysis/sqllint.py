"""The SQL plan linter: static checks over translated statements.

The XPath→SQL translators emit a typed AST
(:mod:`repro.relational.sql`), so generated plans can be *verified*
instead of trusted: :func:`lint_statement` walks a statement against the
live :class:`~repro.relational.introspect.SchemaCatalog` and reports:

========  ========  =====================================================
code      severity  finding
========  ========  =====================================================
``P001``  error     table/view that does not exist in the database
``P002``  error     column that no table in scope provides, or a column
                    reference through an unknown alias
``P003``  error     disconnected join graph — some FROM/JOIN aliases
                    share no condition with the rest (a cartesian
                    product)
``P004``  error     a scanned table carries a ``doc_id`` column but the
                    statement never constrains it (cross-document
                    leakage)
``P005``  error     recursive CTE whose every arm references itself —
                    no base case, the recursion cannot terminate
``P006``  advice    equality join on a base-table column that no index
                    prefix covers (full-scan join)
``P007``  advice    the engine's own plan builds an index at run time
                    over a stored table or view, or materializes a view
                    (:func:`lint_query_plan` — needs ``EXPLAIN QUERY
                    PLAN``, so the sweep runs it, not the translate path)
========  ========  =====================================================

The linter is deliberately *lenient* where static knowledge runs out:
CTEs are opaque (any column resolves), ``Raw`` fragments are not parsed,
and statements with a constant-false WHERE (the translators' canonical
"provably empty" form) skip the semantic checks — an empty result can't
leak or multiply rows.
"""

from __future__ import annotations

import re

from repro.analysis.diagnostics import (
    Diagnostic,
    SEVERITY_ADVICE,
    SEVERITY_ERROR,
)
from repro.relational.introspect import SchemaCatalog, TableInfo
from repro.relational.sql import (
    And,
    Arith,
    Col,
    Comparison,
    CountAtMost,
    Exists,
    InList,
    InSubquery,
    Like,
    Not,
    Or,
    Raw,
    Select,
    Union,
    WithQuery,
)

#: Graph node standing for every alias of the *enclosing* select inside
#: a correlated subquery: a condition tying a local alias to any outer
#: alias anchors it (the correlation is the join).
_OUTER = "<outer>"


def lint_statement(
    statement: Select | Union | WithQuery, catalog: SchemaCatalog
) -> tuple[Diagnostic, ...]:
    """All diagnostics for one translated statement."""
    linter = _PlanLinter(catalog)
    linter.check_statement(statement)
    return tuple(linter.diagnostics)


_AUTOMATIC_INDEX = re.compile(r"(?:SEARCH|SCAN) (\S+) USING AUTOMATIC .*INDEX")
_MATERIALIZE = re.compile(r"MATERIALIZE (\S+)")


def lint_query_plan(
    statement: Select | Union | WithQuery,
    plan_lines,
    catalog: SchemaCatalog,
) -> tuple[Diagnostic, ...]:
    """``P007`` over sqlite's ``EXPLAIN QUERY PLAN`` detail lines for
    *statement*: work the engine redoes on every execution because no
    stored access path serves the statement — an automatic index over a
    stored table or view, or a view copied out in full.  An automatic
    index over a *CTE result* is sqlite's hash join and is not reported.
    What P006 cannot see (range and ``IN`` semi-joins, predicates
    outside ``JOIN … ON``) the planner's own verdict can."""
    stored = {
        ref.alias.lower()
        for ref in _table_refs(statement)
        if catalog.table(ref.table.lower()) is not None
    }
    found: list[Diagnostic] = []
    for line in plan_lines:
        match = _AUTOMATIC_INDEX.match(line)
        if match and match.group(1).lower() in stored:
            found.append(Diagnostic(
                "P007", SEVERITY_ADVICE,
                "index built at run time over a stored relation "
                f"(alias {match.group(1)!r}): no stored index serves "
                "this join",
                location=line,
            ))
        match = _MATERIALIZE.match(line)
        if match:
            info = catalog.table(match.group(1).lower())
            if info is not None and info.is_view:
                found.append(Diagnostic(
                    "P007", SEVERITY_ADVICE,
                    f"view {info.name!r} is materialized in full on "
                    "every execution",
                    location=line,
                ))
    return tuple(dict.fromkeys(found))


def _table_refs(statement):
    """Every ``table AS alias`` *statement* scans, at any depth."""
    for select in _all_selects(statement):
        if select.from_item is not None:
            yield select.from_item
        for join in select.joins:
            yield join.table


def _all_selects(statement):
    """Every SELECT of *statement*: CTE bodies, union arms, the final
    select and all nested subqueries."""
    if isinstance(statement, WithQuery):
        stack = [query for _name, query in statement.ctes]
        if statement.final is not None:
            stack.append(statement.final)
    else:
        stack = [statement]
    while stack:
        current = stack.pop()
        if isinstance(current, Union):
            stack.extend(current.selects)
            continue
        yield current
        for expr in _own_expressions(current):
            stack.extend(_nested_selects(expr))


def _nested_selects(expr):
    """Subquery selects anywhere inside *expr* (not their own nested
    ones — the caller walks those)."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield from _subqueries(node)
        stack.extend(_iter_children(node))


def _iter_children(expr):
    """Immediate sub-expressions of *expr* (subqueries excluded)."""
    if isinstance(expr, (And, Or)):
        return expr.operands
    if isinstance(expr, Not):
        return (expr.operand,)
    if isinstance(expr, (Comparison, Arith)):
        return (expr.left, expr.right)
    if isinstance(expr, (Like, InList)):
        return (expr.operand,)
    if isinstance(expr, InSubquery):
        return (expr.operand,)
    func_args = getattr(expr, "args", None)
    if func_args is not None:
        return tuple(func_args)
    return ()


def _subqueries(expr):
    """The directly nested subquery selects of *expr*, if any."""
    if isinstance(expr, (Exists, CountAtMost, InSubquery)):
        return (expr.query,)
    return ()


def _own_expressions(select: Select):
    """Every expression appearing directly in *select*'s clauses."""
    for expr, _alias in select.columns:
        yield expr
    for join in select.joins:
        yield join.condition
    yield from select.conditions
    for expr, _asc in select.order:
        yield expr


class _ExprScan:
    """Everything a single depth-first pass over one expression yields.

    Translated plans are linted on every cold translation, so the walk
    is the linter's hot path: one pass collects what the four checks
    would otherwise each re-traverse for.
    """

    __slots__ = ("cols", "aliases", "doc_aliases", "eq_col_pairs", "subqueries")

    def __init__(self, expr) -> None:
        #: Col nodes outside any subquery (P002 checks these; subquery
        #: columns are checked when the subquery's own select is linted).
        self.cols: list[Col] = []
        #: Every qualified alias referenced anywhere, subqueries
        #: included (join-graph connectivity).
        self.aliases: set[str] = set()
        #: Aliases whose ``doc_id`` appears as a comparison operand
        #: anywhere, subqueries included (document-predicate check).
        self.doc_aliases: set[str] = set()
        #: Top-level ``a.x = b.y`` column pairs (index-coverage check).
        self.eq_col_pairs: list[tuple[Col, Col]] = []
        #: Directly nested subquery selects at this level.
        self.subqueries: list[Select] = []
        self._scan(expr)

    def _note_doc_operand(self, node) -> None:
        if (
            isinstance(node, Col)
            and node.table is not None
            and node.name.lower() == "doc_id"
        ):
            self.doc_aliases.add(node.table.lower())

    def _scan(self, expr) -> None:
        # (node, inside_subquery) — columns inside subqueries count for
        # connectivity/doc-predicates but not for this level's P002.
        stack: list[tuple[object, bool]] = [(expr, False)]
        while stack:
            node, nested = stack.pop()
            if isinstance(node, Col):
                if not nested:
                    self.cols.append(node)
                if node.table is not None:
                    self.aliases.add(node.table.lower())
                continue
            if isinstance(node, Comparison):
                self._note_doc_operand(node.left)
                self._note_doc_operand(node.right)
                if (
                    not nested
                    and node.op == "="
                    and isinstance(node.left, Col)
                    and isinstance(node.right, Col)
                ):
                    self.eq_col_pairs.append((node.left, node.right))
            elif isinstance(node, (Like, InList, InSubquery)):
                self._note_doc_operand(node.operand)
            for child in _iter_children(node):
                stack.append((child, nested))
            for sub in _subqueries(node):
                if not nested:
                    self.subqueries.append(sub)
                for sub_expr in _own_expressions(sub):
                    stack.append((sub_expr, True))


def _is_constant_false(expr) -> bool:
    """The translators' canonical provably-empty forms."""
    if isinstance(expr, Raw):
        return expr.sql.strip() == "0"
    if isinstance(expr, Or):
        return not expr.operands
    return False


class _PlanLinter:
    """One lint pass; collects deduplicated diagnostics."""

    def __init__(self, catalog: SchemaCatalog) -> None:
        self.catalog = catalog
        self.diagnostics: list[Diagnostic] = []
        self._seen: set[Diagnostic] = set()

    def _report(
        self, code: str, severity: str, message: str, location: str = ""
    ) -> None:
        diagnostic = Diagnostic(code, severity, message, location)
        if diagnostic not in self._seen:
            self._seen.add(diagnostic)
            self.diagnostics.append(diagnostic)

    # -- statement dispatch --------------------------------------------------

    def check_statement(self, statement) -> None:
        if isinstance(statement, WithQuery):
            visible: set[str] = set()
            for name, query in statement.ctes:
                self._check_cte(name, query, visible)
                visible.add(name.lower())
            if statement.final is not None:
                self.check_select(statement.final, frozenset(visible), {})
        elif isinstance(statement, Union):
            for select in statement.selects:
                self.check_select(select, frozenset(), {})
        elif isinstance(statement, Select):
            self.check_select(statement, frozenset(), {})

    def _check_cte(self, name: str, query, visible: set[str]) -> None:
        lowered = name.lower()
        in_scope = frozenset(visible | {lowered})
        arms = query.selects if isinstance(query, Union) else (query,)
        self_referencing = [
            any(ref.table.lower() == lowered for ref in _table_refs(arm))
            for arm in arms
        ]
        if self_referencing and all(self_referencing):
            self._report(
                "P005",
                SEVERITY_ERROR,
                f"recursive CTE {name!r} has no base case: every arm "
                "references the CTE itself, so the recursion can never "
                "start (or stop)",
                location=f"cte {name}",
            )
        for arm in arms:
            self.check_select(arm, in_scope, {})

    # -- per-select checks ---------------------------------------------------

    def check_select(
        self,
        select: Select,
        cte_names: frozenset[str],
        outer_scope: dict[str, TableInfo | None],
    ) -> None:
        """Lint one SELECT.  ``outer_scope`` maps the enclosing select's
        aliases (for correlated subqueries)."""
        if select.from_item is None:
            return  # render() raises on this; nothing to lint
        refs = [select.from_item] + [j.table for j in select.joins]
        local: dict[str, TableInfo | None] = {}
        for ref in refs:
            table_name = ref.table.lower()
            if table_name in cte_names:
                local[ref.alias.lower()] = None  # CTE: opaque, any column
                continue
            info = self.catalog.table(table_name)
            if info is None:
                self._report(
                    "P001",
                    SEVERITY_ERROR,
                    f"unknown table {ref.table!r}",
                    location=f"FROM {ref.table} AS {ref.alias}",
                )
                local[ref.alias.lower()] = None  # avoid cascading P002
            else:
                local[ref.alias.lower()] = info
        scope: dict[str, TableInfo | None] = dict(outer_scope)
        scope.update(local)

        # One pass per clause expression; every later check reads the
        # scan instead of re-walking the tree.
        scans = [(expr, _ExprScan(expr)) for expr in _own_expressions(select)]
        for _expr, scan in scans:
            for col in scan.cols:
                self._check_column(col, scope)
            for sub in scan.subqueries:
                self.check_select(sub, cte_names, scope)

        if any(_is_constant_false(c) for c in select.conditions):
            # A provably-empty select can't leak rows or multiply them;
            # the structural checks below would only produce noise.
            return

        scan_of = {id(expr): scan for expr, scan in scans}
        self._check_connectivity(select, local, outer_scope, scan_of)
        self._check_doc_predicates(select, local, scans)
        self._check_join_indexes(select, local, scan_of)

    def _check_column(self, col: Col, scope) -> None:
        if col.table is not None:
            alias = col.table.lower()
            if alias not in scope:
                self._report(
                    "P002",
                    SEVERITY_ERROR,
                    f"column {col.table}.{col.name} references an alias "
                    "that is not in scope",
                    location=f"{col.table}.{col.name}",
                )
                return
            info = scope[alias]
            if info is not None and not info.has_column(col.name):
                self._report(
                    "P002",
                    SEVERITY_ERROR,
                    f"table {info.name!r} has no column {col.name!r}",
                    location=f"{col.table}.{col.name}",
                )
            return
        # Unqualified: fine if any table in scope provides it (or a CTE
        # might).
        if scope and not any(
            info is None or info.has_column(col.name)
            for info in scope.values()
        ):
            self._report(
                "P002",
                SEVERITY_ERROR,
                f"no table in scope has a column {col.name!r}",
                location=col.name,
            )

    # -- join-graph connectivity (P003) --------------------------------------

    @staticmethod
    def _condition_aliases(scan: _ExprScan, local, outer_scope) -> set[str]:
        """Join-graph nodes one condition touches: local aliases plus the
        ``<outer>`` anchor when it references the enclosing select."""
        nodes: set[str] = set()
        for alias in scan.aliases:
            if alias in local:
                nodes.add(alias)
            elif alias in outer_scope:
                nodes.add(_OUTER)
        return nodes

    def _check_connectivity(self, select, local, outer_scope, scan_of) -> None:
        if len(local) < 2:
            return
        nodes = set(local)
        adjacency: dict[str, set[str]] = {n: set() for n in nodes}
        conditions = [j.condition for j in select.joins]
        conditions.extend(select.conditions)
        for condition in conditions:
            scan = scan_of.get(id(condition)) or _ExprScan(condition)
            touched = self._condition_aliases(scan, local, outer_scope)
            if _OUTER in touched:
                adjacency.setdefault(_OUTER, set())
                nodes.add(_OUTER)
            touched_list = sorted(touched)
            for i, a in enumerate(touched_list):
                for b in touched_list[i + 1:]:
                    adjacency[a].add(b)
                    adjacency[b].add(a)
        # BFS from one node; every alias must be reachable.
        start = next(iter(sorted(nodes)))
        seen = {start}
        frontier = [start]
        while frontier:
            current = frontier.pop()
            for neighbor in adjacency[current]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        stranded = sorted(n for n in nodes if n not in seen)
        if stranded:
            connected = sorted(n for n in nodes if n in seen and n != _OUTER)
            self._report(
                "P003",
                SEVERITY_ERROR,
                "disconnected join graph (cartesian product): "
                f"alias(es) {', '.join(stranded)} share no condition "
                f"with {', '.join(connected)}",
                location=f"FROM {select.from_item.table}",
            )

    # -- document predicate (P004) -------------------------------------------

    def _check_doc_predicates(self, select, local, scans) -> None:
        constrained: set[str] = set()
        for _expr, scan in scans:
            constrained |= scan.doc_aliases
        for alias, info in local.items():
            if info is None or not info.has_column("doc_id"):
                continue
            if alias not in constrained:
                self._report(
                    "P004",
                    SEVERITY_ERROR,
                    f"table {info.name!r} (alias {alias!r}) is scanned "
                    "without a doc_id predicate — rows of other "
                    "documents leak into the result",
                    location=f"{info.name} AS {alias}",
                )

    # -- index coverage of joins (P006) --------------------------------------

    def _check_join_indexes(self, select, local, scan_of) -> None:
        for join in select.joins:
            alias = join.table.alias.lower()
            info = local.get(alias)
            if info is None or info.is_view:
                continue
            scan = scan_of.get(id(join.condition)) or _ExprScan(
                join.condition
            )
            for left, right in scan.eq_col_pairs:
                for side in (left, right):
                    if not (
                        side.table is not None
                        and side.table.lower() == alias
                    ):
                        continue
                    if not info.covers(side.name):
                        self._report(
                            "P006",
                            SEVERITY_ADVICE,
                            f"equality join on {alias}.{side.name} is "
                            "not covered by any index prefix of "
                            f"{info.name!r} (full-scan join)",
                            location=f"JOIN {info.name} AS {alias}",
                        )
