"""Shared translator machinery for single-node-table mappings.

The interval, Dewey, edge and binary mappings all store every node in one
relation (binary: one per label) with ``doc_id/kind/name/value/content/
ordinal`` columns plus their own structural encoding.
:class:`TableTranslator` builds each XPath as one statement, a self-join
per location step, and implements everything that does not depend on the
encoding — test conditions, predicate compilation, value chains,
sibling-position counting — through hooks the concrete translators
provide:

* :meth:`axis_conditions` — how one location step constrains the new
  table alias relative to the previous one,
* :meth:`child_link` — the parent→child join used inside value chains,
* :meth:`step_table` — the relation one step scans, and
* :meth:`closure` — a recursive CTE standing in for a step no join
  expresses (edge and binary's ``//`` and ancestor axes).
"""

from __future__ import annotations

import abc
from dataclasses import replace

from repro.query.plan import (
    AXIS_ATTRIBUTE,
    CountPredicate,
    LastPredicate,
    PositionPredicate,
    StepPlan,
    ValuePath,
)
from repro.query.translator import BaseTranslator
from repro.relational.sql import (
    And,
    Col,
    Comparison,
    CountAtMost,
    DocParam,
    Exists,
    Func,
    InSubquery,
    Like,
    Not,
    Param,
    Raw,
    Select,
    SqlExpr,
    Union,
    WithQuery,
)
from repro.xml.dom import NodeKind
from repro.xpath.ast import AnyKindTest, NameTest, NodeTest, KindTest

ELEMENT = int(NodeKind.ELEMENT)
ATTRIBUTE = int(NodeKind.ATTRIBUTE)
TEXT = int(NodeKind.TEXT)

_KIND_OF_TEST = {
    "text": int(NodeKind.TEXT),
    "comment": int(NodeKind.COMMENT),
    "processing-instruction": int(NodeKind.PROCESSING_INSTRUCTION),
}


def compare_value(
    operand: SqlExpr,
    op: str | None,
    literal: str | None,
    numeric: bool,
    like_pattern: str | None,
) -> SqlExpr | None:
    """The final comparison on a value column (None = pure existence).

    Numeric comparisons go through the ``xpath_num`` UDF so non-numeric
    text behaves like NaN (never matches), exactly as in XPath.
    """
    if like_pattern is not None:
        return Like(operand, like_pattern)
    if op is None:
        return None
    sql_op = "<>" if op == "!=" else op
    if numeric:
        assert literal is not None
        return Comparison(
            sql_op, Func("xpath_num", (operand,)), Param(float(literal))
        )
    return Comparison(sql_op, operand, Param(literal or ""))


def _static_compare(left: float, op: str, right: float) -> bool:
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    return left >= right


class TableTranslator(BaseTranslator):
    """Base translator for mappings with one all-nodes relation."""

    #: The node relation's name.
    table: str = ""
    #: Column holding the scheme-independent pre id.
    pre_column: str = "pre"
    #: Column holding node names (the edge mapping calls it ``label``).
    name_column: str = "name"

    # -- hooks ------------------------------------------------------------------

    @abc.abstractmethod
    def axis_conditions(
        self, step: StepPlan, alias: str, prev: str | None
    ) -> list[SqlExpr]:
        """Structural conditions tying *alias* to *prev* for *step*.

        ``prev`` is None for the first step (context = document node).
        """

    @abc.abstractmethod
    def child_link(self, parent_alias: str, child_alias: str) -> SqlExpr:
        """Join condition making *child_alias* a child of *parent_alias*."""

    @abc.abstractmethod
    def same_parent(self, alias_a: str, alias_b: str) -> SqlExpr:
        """Condition that two aliases denote siblings."""

    # Table-selection hooks: single-table mappings use self.table for
    # everything; the binary mapping overrides these to prune value chains
    # and sibling counts to the relevant label partition.

    def element_table(self, name: str) -> str:
        """Relation to scan for an element hop named *name*."""
        return self.table

    def attribute_table(self, name: str) -> str:
        """Relation to scan for an attribute hop named *name*."""
        return self.table

    def text_table(self) -> str:
        """Relation holding text nodes."""
        return self.table

    def step_table(self, step: StepPlan) -> str:
        """Relation one location step scans, and its siblings are
        counted in."""
        return self.table

    def closure(
        self, step: StepPlan, seed: Select, prev: str, name: str
    ) -> tuple[Union, StepPlan] | None:
        """A recursive CTE *name* for a *step* no join expresses, or
        None.

        *seed* is the statement so far, ending at alias *prev*; the CTE
        selects from it and exposes a ``target`` column.  Returned with
        it is the step that then joins the CTE as its context."""
        return None

    def link_columns(self) -> tuple[str, str]:
        """(child-side parent column, parent-side key column).

        Used by the semi-join rewrite of single-hop equality predicates:
        ``alias.<key> IN (SELECT <parent> FROM ... WHERE value = ?)`` —
        an uncorrelated subquery the optimizer can drive from the value
        index, turning point lookups O(log n) (experiment E11).
        """
        return "parent_pre", "pre"

    # -- main translation --------------------------------------------------------

    _SIBLING_LIKE_AXES = (
        "following-sibling", "preceding-sibling", "following", "preceding",
    )

    def translate(self, doc_id: int, xpath) -> Select | WithQuery:
        plan = self.plan(xpath)
        statement = WithQuery()
        query = Select()
        prev: str | None = None
        prev_step = None
        for i, step in enumerate(plan.steps):
            if (
                step.axis in self._SIBLING_LIKE_AXES
                and prev_step is not None
                and prev_step.axis == AXIS_ATTRIBUTE
            ):
                # XPath gives attributes no siblings and a peculiar
                # following set; SQL parent-links would answer wrongly.
                raise self.scheme.unsupported(
                    f"{step.axis} from an attribute context"
                )
            closure = (
                None if prev is None
                else self.closure(step, query, prev, f"c{i}")
            )
            if closure is not None:
                cte, step = closure
                prev = f"c{i}"
                statement.recursive = True
                statement.add_cte(prev, cte)
                query = Select().from_table(prev)
            alias = f"n{i}"
            table = self.step_table(step)
            conditions = [Col("doc_id", alias).eq(DocParam())]
            conditions += self.axis_conditions(step, alias, prev)
            conditions += self.step_conditions(step, alias, doc_id)
            if query.from_item is None:
                query.from_table(table, alias)
                for condition in conditions:
                    query.where(condition)
            else:
                query.join(table, alias, And(tuple(conditions)))
            prev = alias
            prev_step = step
        assert prev is not None
        query.select(Col(self.pre_column, prev))
        query.distinct = True
        query.order_by(Col(self.pre_column, prev))
        if not statement.ctes:
            return query
        statement.final = query
        return statement

    # -- node tests -----------------------------------------------------------------

    def test_conditions(
        self, test: NodeTest, axis: str, alias: str
    ) -> list[SqlExpr]:
        kind = Col("kind", alias)
        name = Col(self.name_column, alias)
        if axis == AXIS_ATTRIBUTE:
            conditions: list[SqlExpr] = [kind.eq(Raw(str(ATTRIBUTE)))]
            if isinstance(test, NameTest) and not test.is_wildcard:
                conditions.append(name.eq(Param(test.name)))
            elif isinstance(test, KindTest):
                raise self.scheme.unsupported(
                    f"{test.kind}() on the attribute axis"
                )
            return conditions
        if isinstance(test, NameTest):
            conditions = [kind.eq(Raw(str(ELEMENT)))]
            if not test.is_wildcard:
                conditions.append(name.eq(Param(test.name)))
            return conditions
        if isinstance(test, KindTest):
            return [kind.eq(Raw(str(_KIND_OF_TEST[test.kind])))]
        if isinstance(test, AnyKindTest):
            return [kind.ne(Raw(str(ATTRIBUTE)))]
        raise self.scheme.unsupported(f"node test {test}")

    # -- predicates --------------------------------------------------------------------

    # The shared walk's *ctx* is ``(alias, step)``: the node-table
    # alias of the step the predicate sits on, and that step.

    def step_conditions(
        self, step: StepPlan, alias: str, doc_id: int
    ) -> list[SqlExpr]:
        """*step*'s node test and predicates on *alias*.  Each predicate
        sees the step cut to the predicates before it, so a position
        ranks among the siblings that passed those."""
        conditions = self.test_conditions(step.test, step.axis, alias)
        for i, predicate in enumerate(step.predicates):
            passed = replace(step, predicates=step.predicates[:i])
            conditions.append(
                self.predicate_condition(predicate, (alias, passed), doc_id)
            )
        return conditions

    def _siblings(
        self, step: StepPlan, alias: str, doc_id: int, later: bool
    ) -> Select:
        """The siblings before *alias* (after it, if *later*) that pass
        *step* — one probe of the parent index."""
        sibling = f"{alias}_{'last' if later else 'pos'}"
        ordinal = Col("ordinal", sibling)
        siblings = (
            Select()
            .from_table(self.step_table(step), sibling)
            .select(Raw("1"))
            .where(Col("doc_id", sibling).eq(DocParam()))
            .where(self.same_parent(sibling, alias))
            .where((ordinal.gt if later else ordinal.lt)(
                Col("ordinal", alias)
            ))
        )
        for condition in self.step_conditions(step, sibling, doc_id):
            siblings.where(condition)
        return siblings

    def position_condition(
        self, predicate: PositionPredicate, ctx, doc_id: int
    ) -> SqlExpr:
        """``[n]``: exactly n-1 earlier siblings pass, so counting stops
        at n."""
        alias, step = ctx
        n = predicate.position
        earlier = self._siblings(step, alias, doc_id, later=False)
        return CountAtMost(earlier, n).eq(Raw(str(n - 1)))

    def last_condition(
        self, predicate: LastPredicate, ctx, doc_id: int
    ) -> SqlExpr:
        """``[last()]``: no later sibling passes."""
        alias, step = ctx
        return Not(Exists(self._siblings(step, alias, doc_id, later=True)))

    def count_condition(
        self, predicate: CountPredicate, ctx, doc_id: int
    ) -> SqlExpr:
        """``[count(path) op v]``, counting no further than ⌊v⌋ + 1: past
        that, no comparison with v changes its answer."""
        alias, _ = ctx
        path = predicate.path
        if not path.element_names and path.target == "content":
            # count(.) is always 1 for a node context.
            count_value = 1.0
            matches = _static_compare(count_value, predicate.op,
                                      predicate.value)
            return Raw("1") if matches else Raw("0")
        sub = Select().select(Raw("1"))
        prev = alias
        for depth, name in enumerate(path.element_names):
            current = f"{alias}_c{depth}"
            conditions = And((
                Col("doc_id", current).eq(DocParam()),
                self.child_link(prev, current),
                Col("kind", current).eq(Raw(str(ELEMENT))),
                Col(self.name_column, current).eq(Param(name)),
            ))
            self._attach(sub, self.element_table(name), current, conditions)
            prev = current
        if path.target == "attribute":
            final = f"{alias}_ct"
            self._attach(
                sub, self.attribute_table(path.target_name or ""), final,
                And((
                    Col("doc_id", final).eq(DocParam()),
                    self.child_link(prev, final),
                    Col("kind", final).eq(Raw(str(ATTRIBUTE))),
                    Col(self.name_column, final).eq(
                        Param(path.target_name)
                    ),
                )),
            )
        elif path.target == "text":
            final = f"{alias}_ct"
            self._attach(
                sub, self.text_table(), final,
                And((
                    Col("doc_id", final).eq(DocParam()),
                    self.child_link(prev, final),
                    Col("kind", final).eq(Raw(str(TEXT))),
                )),
            )
        sql_op = "<>" if predicate.op == "!=" else predicate.op
        return Comparison(
            sql_op, CountAtMost(sub, predicate.value + 1),
            Param(predicate.value),
        )

    # -- value chains ----------------------------------------------------------------------

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
        """EXISTS chain along child links ending at the compared value."""
        alias, _ = ctx
        if not path.element_names and path.target == "content":
            condition = compare_value(
                Col("content", alias), op, literal, numeric, like_pattern
            )
            if condition is None:
                return Raw("1")  # bare '.' predicate is always true
            return condition
        semi_join = self._semi_join_rewrite(
            path, alias, doc_id, op, literal, numeric, like_pattern
        )
        if semi_join is not None:
            return semi_join
        sub = Select().select(Raw("1"))
        prev = alias
        for depth, name in enumerate(path.element_names):
            current = f"{alias}_v{depth}"
            conditions = And((
                Col("doc_id", current).eq(DocParam()),
                self.child_link(prev, current),
                Col("kind", current).eq(Raw(str(ELEMENT))),
                Col(self.name_column, current).eq(Param(name)),
            ))
            self._attach(sub, self.element_table(name), current, conditions)
            prev = current
        if path.target == "content":
            condition = compare_value(
                Col("content", prev), op, literal, numeric, like_pattern
            )
            if condition is not None:
                sub.where(condition)
            return Exists(sub)
        final = f"{alias}_vt"
        if path.target == "attribute":
            conditions = And((
                Col("doc_id", final).eq(DocParam()),
                self.child_link(prev, final),
                Col("kind", final).eq(Raw(str(ATTRIBUTE))),
                Col(self.name_column, final).eq(Param(path.target_name)),
            ))
        else:  # text()
            conditions = And((
                Col("doc_id", final).eq(DocParam()),
                self.child_link(prev, final),
                Col("kind", final).eq(Raw(str(TEXT))),
            ))
        final_table = (
            self.attribute_table(path.target_name or "")
            if path.target == "attribute"
            else self.text_table()
        )
        self._attach(sub, final_table, final, conditions)
        condition = compare_value(
            Col("value", final), op, literal, numeric, like_pattern
        )
        if condition is not None:
            sub.where(condition)
        return Exists(sub)

    def _semi_join_rewrite(
        self,
        path: ValuePath,
        alias: str,
        doc_id: int,
        op: str | None,
        literal: str | None,
        numeric: bool,
        like_pattern: str | None,
    ) -> SqlExpr | None:
        """Single-hop ``=`` predicates as an *uncorrelated* IN-subquery.

        ``[@key = 'x']`` / ``[title = 'x']`` become
        ``alias.pre IN (SELECT parent FROM t WHERE value = 'x' ...)``:
        the optimizer materializes the subquery once from the value
        index instead of probing an EXISTS per candidate row — the point
        lookups of experiment E11 go from linear to logarithmic.
        Only applied when it is exactly equivalent to the EXISTS form:
        string equality, one hop.
        """
        if op != "=" or numeric or like_pattern is not None:
            return None
        parent_column, key_column = self.link_columns()
        inner = f"{alias}_sj"
        if path.target == "attribute" and not path.element_names:
            table = self.attribute_table(path.target_name or "")
            kind, name = ATTRIBUTE, path.target_name
            value_column = "value"
        elif path.target == "content" and len(path.element_names) == 1:
            table = self.element_table(path.element_names[0])
            kind, name = ELEMENT, path.element_names[0]
            value_column = "content"
        else:
            return None
        subquery = (
            Select()
            .from_table(table, inner)
            .select(Col(parent_column, inner))
            .where(Col("doc_id", inner).eq(DocParam()))
            .where(Col("kind", inner).eq(Raw(str(kind))))
            .where(Col(self.name_column, inner).eq(Param(name)))
            .where(Col(value_column, inner).eq(Param(literal or "")))
        )
        return InSubquery(Col(key_column, alias), subquery)

    def _attach(
        self, sub: Select, table: str, alias: str, conditions: SqlExpr
    ) -> None:
        if sub.from_item is None:
            sub.from_table(table, alias)
            sub.where(conditions)
        else:
            sub.join(table, alias, conditions)
