"""XPath→SQL for the XRel (path + region) mapping.

The defining property: a location path does **not** become per-step joins.
Consecutive predicate-free steps collapse into one string pattern matched
against the small ``xrel_paths`` relation; only steps that carry
predicates (and the final step) materialize a node-table alias, and
consecutive aliases are connected by a correlated path-extension
condition plus *region containment*:

* pure child chain    — ``cp.pathexp = ep.pathexp || '#/a#/b'``
* chain containing // — ``ep.pathexp`` is a prefix of ``cp.pathexp`` and
  ``xrel_path_match`` accepts the remainder
* containment         — ``c.start > e.start AND c.start <= e.end AND
  c.end <= e.end``.  The middle term is implied by the other two; it is
  there because it makes the join a range probe of the node table's
  ``(doc_id, path_id, start)`` index.  It is **inclusive**: ``e.end``
  is the ``start`` of ``e``'s last descendant, not one past it.

Absolute patterns (containing ``//`` or wildcards) are matched with the
``xrel_path_match`` UDF (regex over the path table only — the tiny
relation XRel's design funnels all pattern work into).

Positional predicates are not translatable here (rows carry no sibling
identity without joining the parent) — a published XRel limitation this
reproduction keeps visible rather than papering over.
"""

from __future__ import annotations

import re

from repro.query.plan import (
    AXIS_ATTRIBUTE,
    AXIS_CHILD,
    PositionPredicate,
    StepPlan,
    ValuePath,
)
from repro.query.translate_common import compare_value
from repro.query.translator import BaseTranslator
from repro.relational.sql import (
    And,
    Arith,
    Col,
    Comparison,
    DocParam,
    Exists,
    Func,
    InSubquery,
    Param,
    Raw,
    Select,
    SqlExpr,
)
from repro.storage.xrel import PATH_SEP
from repro.xml.dom import NodeKind
from repro.xpath.ast import AnyKindTest, NameTest, KindTest

TEXT = int(NodeKind.TEXT)
COMMENT = int(NodeKind.COMMENT)
PI = int(NodeKind.PROCESSING_INSTRUCTION)

_KIND_OF_TEST = {"text": TEXT, "comment": COMMENT,
                 "processing-instruction": PI}

_REGEX_CACHE: dict[str, re.Pattern] = {}


def xrel_path_match(pattern: str, pathexp: str) -> bool:
    """UDF: match an XRel path pattern (child ``#/x``, descendant
    ``#//x``, wildcard ``*``, a closing ``#//`` for "any path from
    here, this one included") against a stored path expression."""
    compiled = _REGEX_CACHE.get(pattern)
    if compiled is None:
        parts = []
        i = 0
        while i < len(pattern):
            if pattern.startswith("#//", i):
                parts.append(f"(?:{re.escape(PATH_SEP)}[^#]+)*")
                i += 3
                if i < len(pattern):
                    parts.append(re.escape(PATH_SEP))
            elif pattern.startswith(PATH_SEP, i):
                parts.append(re.escape(PATH_SEP))
                i += 2
            elif pattern[i] == "*":
                parts.append("[^#]+")
                i += 1
            else:
                j = i
                while j < len(pattern) and pattern[j] not in "#*":
                    j += 1
                parts.append(re.escape(pattern[i:j]))
                i = j
        compiled = re.compile("".join(parts) + r"\Z")
        _REGEX_CACHE[pattern] = compiled
    return compiled.match(pathexp) is not None


def _contained_in(inner: str, outer: str) -> list[SqlExpr]:
    """Alias *inner*'s region lies strictly inside alias *outer*'s.  The
    upper bound on ``start`` is redundant — and inclusive, because
    ``end = pre + size`` is the last descendant's own ``start`` — but it
    is what turns the join into ``SEARCH … (doc_id=? AND path_id=? AND
    start>? AND start<?)`` instead of a filter over the whole path."""
    return [
        Col("start", inner).gt(Col("start", outer)),
        Col("start", inner).le(Col("end", outer)),
        Col("end", inner).le(Col("end", outer)),
    ]


class XRelTranslator(BaseTranslator):
    """Path-pattern + region-containment translator."""

    def __init__(self, scheme) -> None:
        super().__init__(scheme)
        self.db.create_function(
            "xrel_path_match", 2,
            lambda p, s: 1 if xrel_path_match(p, s) else 0,
        )

    # -- translation -------------------------------------------------------------

    def translate(self, doc_id: int, xpath) -> Select:
        plan = self.plan(xpath)
        query = Select()
        prev_alias: str | None = None   # previous materialized node alias
        prev_paths: str | None = None   # its path-table alias
        pattern = ""                    # relative pattern since prev_alias
        exact = True                    # pattern free of // and wildcards
        alias_count = 0
        for i, step in enumerate(plan.steps):
            is_last = i == len(plan.steps) - 1
            fragment, fragment_exact = self._step_fragment(step)
            pattern += fragment
            exact = exact and fragment_exact
            if not (is_last or step.predicates):
                continue
            alias = f"x{alias_count}"
            paths_alias = f"{alias}p"
            alias_count += 1
            table = self._node_table(step)
            # The path table comes first so its equality condition (exact
            # pathexp, or the correlated extension of the previous path)
            # drives the plan; the node table then probes its
            # (doc_id, path_id, start) index — never a region-only scan.
            path_conditions = And((
                Col("doc_id", paths_alias).eq(DocParam()),
                self._path_condition(
                    pattern, exact, paths_alias, prev_paths, doc_id
                ),
            ))
            node_conditions: list[SqlExpr] = [
                Col("doc_id", alias).eq(DocParam()),
                Col("path_id", alias).eq(Col("path_id", paths_alias)),
            ]
            if prev_alias is not None:
                node_conditions += _contained_in(alias, prev_alias)
            node_conditions += self._test_conditions(step, alias)
            if query.from_item is None:
                query.from_table("xrel_paths", paths_alias)
                query.where(path_conditions)
            else:
                query.join("xrel_paths", paths_alias, path_conditions)
            query.join(table, alias, And(tuple(node_conditions)))
            for predicate in step.predicates:
                query.where(
                    self.predicate_condition(
                        predicate, (alias, paths_alias), doc_id
                    )
                )
            prev_alias, prev_paths = alias, paths_alias
            pattern, exact = "", True
        assert prev_alias is not None
        query.select(Col("start", prev_alias), alias="pre")
        query.distinct = True
        # The unary-plus keeps the planner from scanning the node table
        # in PK order just to satisfy ORDER BY — the path-table-driven
        # plan plus a final sort is orders of magnitude better here.
        query.order_by(Raw(f"+{prev_alias}.start"))
        return query

    # -- steps -----------------------------------------------------------------------

    def _step_fragment(self, step: StepPlan) -> tuple[str, bool]:
        """(pattern fragment, is-exact) of one step."""
        separator = "#//" if step.from_descendant else PATH_SEP
        exact = not step.from_descendant
        if step.axis == AXIS_ATTRIBUTE:
            if not isinstance(step.test, NameTest):
                raise self.scheme.unsupported("non-name attribute tests")
            name = "*" if step.test.is_wildcard else step.test.name
            exact = exact and not step.test.is_wildcard
            return f"{separator}@{name}", exact
        if step.axis != AXIS_CHILD:
            raise self.scheme.unsupported(
                f"axis {step.axis} (XRel paths are forward label chains)"
            )
        test = step.test
        if isinstance(test, NameTest):
            if test.is_wildcard:
                return f"{separator}*", False
            return f"{separator}{test.name}", exact
        if isinstance(test, (KindTest, AnyKindTest)):
            # Text/comment/PI rows reuse their parent's pathexp: the step
            # adds no path component, and below ``//`` the parent may be
            # the context node itself (or the document: path "").
            if isinstance(test, AnyKindTest):
                raise self.scheme.unsupported("node() steps")
            if step.from_descendant:
                return "#//", False
            return "", exact
        raise self.scheme.unsupported(f"node test {test}")

    def _node_table(self, step: StepPlan) -> str:
        if step.axis == AXIS_ATTRIBUTE:
            return "xrel_attribute"
        if isinstance(step.test, KindTest):
            return "xrel_text"
        return "xrel_element"

    def _test_conditions(self, step: StepPlan, alias: str) -> list[SqlExpr]:
        if step.axis == AXIS_ATTRIBUTE:
            return []  # the @name path component already filters
        if isinstance(step.test, KindTest):
            return [
                Col("kind", alias).eq(
                    Raw(str(_KIND_OF_TEST[step.test.kind]))
                )
            ]
        return []

    def _path_condition(
        self,
        pattern: str,
        exact: bool,
        paths_alias: str,
        prev_paths: str | None,
        doc_id: int,
    ) -> SqlExpr:
        path = Col("pathexp", paths_alias)
        if prev_paths is None:
            if exact:
                return path.eq(Param(pattern))
            # Drive the plan from the small path table: materialize the
            # matching path ids instead of evaluating the UDF per node row.
            matching = (
                Select()
                .from_table("xrel_paths", "pm")
                .select(Col("path_id", "pm"))
                .where(Col("doc_id", "pm").eq(DocParam()))
                .where(
                    Func(
                        "xrel_path_match",
                        (Param(pattern), Col("pathexp", "pm")),
                    ).eq(Raw("1"))
                )
            )
            return InSubquery(Col("path_id", paths_alias), matching)
        prev_path = Col("pathexp", prev_paths)
        if pattern == "":
            # A text()/comment() step right below the previous alias.
            return Comparison("=", path, prev_path)
        if exact:
            return Comparison(
                "=", path, Arith("||", prev_path, Param(pattern))
            )
        # Correlated non-exact extension: a LIKE pattern built from the
        # previous alias's pathexp would let '_' inside labels act as a
        # wildcard, so split instead: prefix equality + UDF on the rest.
        prefix = Func("SUBSTR", (path, Raw("1"), Func("LENGTH", (prev_path,))))
        remainder = Func(
            "SUBSTR",
            (path, Arith("+", Func("LENGTH", (prev_path,)), Raw("1"))),
        )
        return And((
            Comparison("=", prefix, prev_path),
            Func("xrel_path_match", (Param(pattern), remainder)).eq(Raw("1")),
        ))

    # -- predicates -------------------------------------------------------------------

    # The shared walk's *ctx* is ``(alias, paths_alias)``: the node and
    # path-table aliases of the step the predicate sits on.

    def position_condition(
        self, predicate: PositionPredicate, ctx, doc_id: int
    ) -> SqlExpr:
        raise self.scheme.unsupported(
            "positional predicates (regions carry no sibling rank)"
        )

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
        alias, paths_alias = ctx
        if not path.element_names and path.target == "content":
            condition = compare_value(
                Col("content", alias), op, literal, numeric, like_pattern
            )
            return condition if condition is not None else Raw("1")
        suffix = "".join(
            f"{PATH_SEP}{name}" for name in path.element_names
        )
        if path.target == "attribute":
            table, value_col = "xrel_attribute", "value"
            suffix += f"{PATH_SEP}@{path.target_name}"
        elif path.target == "text":
            table, value_col = "xrel_text", "value"
        else:
            table, value_col = "xrel_element", "content"
        target = f"{alias}_v"
        target_paths = f"{alias}_vp"
        # Path table first (its pathexp equality is index-seekable per
        # outer row), then the node table by path id and start range —
        # the same ordering as in translate().
        sub = (
            Select()
            .select(Raw("1"))
            .from_table("xrel_paths", target_paths)
            .where(Col("doc_id", target_paths).eq(DocParam()))
            .where(
                Comparison(
                    "=",
                    Col("pathexp", target_paths),
                    Arith(
                        "||", Col("pathexp", paths_alias), Param(suffix)
                    ) if suffix else Col("pathexp", paths_alias),
                )
            )
            .join(
                table,
                target,
                And((
                    Col("doc_id", target).eq(DocParam()),
                    Col("path_id", target).eq(Col("path_id", target_paths)),
                    *_contained_in(target, alias),
                )),
            )
        )
        if path.target == "attribute":
            # Redundant with the pathexp condition, but it lets the
            # (doc_id, name, value) index drive the probe.
            sub.where(Col("name", target).eq(Param(path.target_name)))
        if path.target == "text":
            sub.where(Col("kind", target).eq(Raw(str(TEXT))))
        condition = compare_value(
            Col(value_col, target), op, literal, numeric, like_pattern
        )
        if condition is not None:
            sub.where(condition)
        return Exists(sub)
