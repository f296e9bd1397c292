"""XPath→SQL for the DTD-inlining mapping.

Translation walks the *mapping*, not a generic node relation: each
location step moves between (relation, inlined-path) positions.

* a step into an **inlined** child consumes **no join** — the data is in
  the current row (the fragmentation-reduction payoff, experiment E8);
* a step into a child with its own relation joins on
  ``child.parent_pre = <pre column of the current position>``;
* wildcards and descendant steps fan out into one SQL branch per DTD
  path; the branches are UNIONed;
* a descendant step that would have to cross a *recursive* DTD region is
  rejected (it needs a transitive closure the generated flat SQL cannot
  express — the paper's own noted limitation).

Everything is validated against the DTD at translation time, so queries
over undeclared names simply return the empty set.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.query.plan import (
    AXIS_ATTRIBUTE,
    AXIS_CHILD,
    AXIS_SELF,
    PositionPredicate,
    StepPlan,
    ValuePath,
)
from repro.query.translate_common import compare_value
from repro.query.translator import BaseTranslator
from repro.relational.sql import (
    And,
    Col,
    Comparison,
    CountAtMost,
    DocParam,
    Exists,
    Raw,
    Select,
    SqlExpr,
    Union,
    WithQuery,
)
from repro.storage.inlining.mapping import InlinedPosition, Mapping, Relation
from repro.xpath.ast import AnyKindTest, NameTest, KindTest

_MAX_BRANCHES = 128


@dataclass
class _Branch:
    """One SQL alternative under construction."""

    select: Select
    relation: Relation
    alias: str
    position: InlinedPosition
    result_expr: SqlExpr  # pre id of the branch's current node


class InliningTranslator(BaseTranslator):
    """Mapping-walking translator for the inlining scheme."""

    def translate(self, doc_id: int, xpath) -> WithQuery:
        plan = self.plan(xpath)
        mapping = self.scheme.require_mapping()
        self._alias_count = 0
        branches = self._initial_branches(plan.steps[0], mapping, doc_id)
        for step in plan.steps[1:]:
            new_branches: list[_Branch] = []
            for branch in branches:
                new_branches += self._advance(branch, step, mapping, doc_id)
            if len(new_branches) > _MAX_BRANCHES:
                raise self.scheme.unsupported(
                    f"query fans out into {len(new_branches)} DTD paths"
                )
            branches = new_branches
        return self._finish(branches)

    def _new_alias(self) -> str:
        alias = f"t{self._alias_count}"
        self._alias_count += 1
        return alias

    # -- branch construction -----------------------------------------------------

    def _initial_branches(
        self, step: StepPlan, mapping: Mapping, doc_id: int
    ) -> list[_Branch]:
        if step.axis not in (AXIS_CHILD, AXIS_SELF):
            raise self.scheme.unsupported(
                f"axis {step.axis} as the first step"
            )
        if not isinstance(step.test, NameTest):
            raise self.scheme.unsupported(
                "first step must name an element (data-centric mapping)"
            )
        branches: list[_Branch] = []
        if step.from_descendant:
            positions = [
                p for p in self._all_positions(mapping)
                if step.test.is_wildcard or p.element == step.test.name
            ]
            for position in positions:
                relation = mapping.relations[position.relation_element]
                branches.append(
                    self._open_branch(relation, position, doc_id)
                )
        else:
            for relation in mapping.relations.values():
                if not step.test.is_wildcard and (
                    relation.element != step.test.name
                ):
                    continue
                branch = self._open_branch(relation, relation.root, doc_id)
                branch.select.where(
                    Col("parent_pre", branch.alias).eq(Raw("0"))
                )
                branches.append(branch)
        for branch in branches:
            self._apply_predicates(branch, step, doc_id)
        return branches

    def _all_positions(self, mapping: Mapping) -> list[InlinedPosition]:
        positions: list[InlinedPosition] = []
        for relation in mapping.relations.values():
            positions += list(relation.positions.values())
        return positions

    def _open_branch(
        self, relation: Relation, position: InlinedPosition, doc_id: int
    ) -> _Branch:
        alias = self._new_alias()
        select = (
            Select()
            .from_table(relation.table.name, alias)
            .where(Col("doc_id", alias).eq(DocParam()))
        )
        if not position.is_root:
            select.where(
                Comparison(
                    "IS NOT", Col(position.pre_column, alias), Raw("NULL")
                )
            )
        return _Branch(
            select=select,
            relation=relation,
            alias=alias,
            position=position,
            result_expr=Col(position.pre_column, alias),
        )

    # -- advancing one step ----------------------------------------------------------

    def _advance(
        self, branch: _Branch, step: StepPlan, mapping: Mapping, doc_id: int
    ) -> list[_Branch]:
        if step.axis == AXIS_ATTRIBUTE:
            return self._attribute_branches(branch, step, doc_id)
        if step.axis == AXIS_SELF and not step.from_descendant:
            if isinstance(step.test, NameTest) and not step.test.is_wildcard:
                if branch.position.element != step.test.name:
                    return []
            self._apply_predicates(branch, step, doc_id)
            return [branch]
        if step.axis != AXIS_CHILD:
            raise self.scheme.unsupported(f"axis {step.axis}")
        if isinstance(step.test, KindTest):
            if step.test.kind != "text":
                return []  # comments/PIs are never stored by this scheme
            if step.from_descendant:
                raise self.scheme.unsupported(
                    "descendant text() steps (//text())"
                )
            return self._text_branches(branch, step)
        if isinstance(step.test, AnyKindTest):
            raise self.scheme.unsupported("node() steps")
        assert isinstance(step.test, NameTest)
        if step.from_descendant:
            moves = self._descendant_moves(branch, step.test, mapping)
        else:
            moves = self._child_moves(branch, step.test, mapping)
        results = []
        for moved in moves:
            self._apply_predicates(moved, step, doc_id)
            results.append(moved)
        return results

    def _child_moves(
        self, branch: _Branch, test: NameTest, mapping: Mapping
    ) -> list[_Branch]:
        names = (
            list(branch.position.inlined_children)
            + list(branch.position.relation_children)
            if test.is_wildcard
            else [test.name]
        )
        moves = []
        for name in names:
            moved = self._move_to_child(branch, name, mapping)
            if moved is not None:
                moves.append(moved)
        return moves

    def _move_to_child(
        self, branch: _Branch, name: str, mapping: Mapping
    ) -> _Branch | None:
        """A *forked* branch moved into child *name* (None if the DTD
        does not allow it) — the input branch is never mutated."""
        position = branch.position
        if name in position.inlined_children:
            child_position = branch.relation.positions[
                position.inlined_children[name]
            ]
            moved = self._fork(branch)
            moved.position = child_position
            moved.result_expr = Col(child_position.pre_column, moved.alias)
            moved.select.where(
                Comparison(
                    "IS NOT",
                    Col(child_position.pre_column, moved.alias),
                    Raw("NULL"),
                )
            )
            return moved
        child_relation = mapping.relation_of(name)
        allowed = name in position.relation_children or (
            child_relation is not None
            and mapping.dtd.elements[position.element].model.is_any
        )
        if child_relation is None or not allowed:
            return None
        moved = self._fork(branch)
        alias = self._new_alias()
        moved.select.join(
            child_relation.table.name,
            alias,
            And((
                Col("doc_id", alias).eq(Col("doc_id", moved.alias)),
                Col("parent_pre", alias).eq(
                    Col(position.pre_column, moved.alias)
                ),
            )),
        )
        moved.relation = child_relation
        moved.alias = alias
        moved.position = child_relation.root
        moved.result_expr = Col("pre", alias)
        return moved

    def _descendant_moves(
        self, branch: _Branch, test: NameTest, mapping: Mapping
    ) -> list[_Branch]:
        """Enumerate every DTD chain from the branch to a matching
        descendant; recursion on the way is untranslatable."""
        results: list[_Branch] = []

        def explore(current: _Branch, on_chain: frozenset) -> None:
            position = current.position
            key = (position.relation_element, position.path)
            if key in on_chain:
                raise self.scheme.unsupported(
                    "descendant step through a recursive DTD region "
                    "(needs transitive closure)"
                )
            chain = on_chain | {key}
            child_names = (
                list(position.inlined_children)
                + list(position.relation_children)
            )
            for name in child_names:
                moved = self._move_to_child(current, name, mapping)
                if moved is None:
                    continue
                if test.is_wildcard or moved.position.element == test.name:
                    results.append(self._fork(moved))
                if len(results) > _MAX_BRANCHES:
                    raise self.scheme.unsupported(
                        "descendant step fans out too widely"
                    )
                explore(moved, chain)

        explore(branch, frozenset())
        return results

    def _fork(self, branch: _Branch) -> _Branch:
        """Deep-ish copy so sibling alternatives do not share a Select."""
        select = Select(
            columns=list(branch.select.columns),
            from_item=branch.select.from_item,
            joins=list(branch.select.joins),
            conditions=list(branch.select.conditions),
            order=list(branch.select.order),
            distinct=branch.select.distinct,
            limit_count=branch.select.limit_count,
        )
        return replace(branch, select=select)

    def _attribute_branches(
        self, branch: _Branch, step: StepPlan, doc_id: int
    ) -> list[_Branch]:
        if step.from_descendant:
            raise self.scheme.unsupported("//@attr (descendant attributes)")
        if not isinstance(step.test, NameTest):
            raise self.scheme.unsupported("non-name attribute tests")
        if step.predicates:
            raise self.scheme.unsupported("predicates on attribute steps")
        names = (
            list(branch.position.attr_columns)
            if step.test.is_wildcard
            else [step.test.name]
        )
        results = []
        for name in names:
            columns = branch.position.attr_columns.get(name)
            if columns is None:
                continue
            __, pre_column = columns
            moved = self._fork(branch)
            moved.select.where(
                Comparison(
                    "IS NOT", Col(pre_column, moved.alias), Raw("NULL")
                )
            )
            moved.result_expr = Col(pre_column, moved.alias)
            results.append(moved)
        return results

    def _text_branches(
        self, branch: _Branch, step: StepPlan
    ) -> list[_Branch]:
        if step.predicates:
            raise self.scheme.unsupported("predicates on text() steps")
        position = branch.position
        if position.content_pre_column is None:
            return []
        moved = self._fork(branch)
        moved.select.where(
            Comparison(
                "IS NOT",
                Col(position.content_pre_column, moved.alias),
                Raw("NULL"),
            )
        )
        moved.result_expr = Col(position.content_pre_column, moved.alias)
        return [moved]

    # -- predicates --------------------------------------------------------------------

    def _apply_predicates(
        self, branch: _Branch, step: StepPlan, doc_id: int
    ) -> None:
        for i, predicate in enumerate(step.predicates):
            passed = replace(step, predicates=step.predicates[:i])
            branch.select.where(
                self.predicate_condition(predicate, (branch, passed), doc_id)
            )

    # The shared walk's *ctx* is ``(branch, step)``: the branch the
    # predicate's step is on, and that step cut to the predicates
    # before this one.

    def position_condition(
        self, predicate: PositionPredicate, ctx, doc_id: int
    ) -> SqlExpr:
        """``[n]``: exactly n-1 earlier same-name siblings pass the
        step's earlier predicates, so counting stops at n."""
        branch, step = ctx
        if not isinstance(step.test, NameTest) or step.test.is_wildcard:
            # Each child name is its own branch; none sees the others.
            raise self.scheme.unsupported("positions on a wildcard step")
        position = branch.position
        if not position.is_root:
            # Inlined fields occur at most once: [1] holds, [n>1] cannot.
            return Raw("1") if predicate.position == 1 else Raw("0")
        sibling = self._new_alias()
        siblings = (
            Select()
            .select(Raw("1"))
            .from_table(branch.relation.table.name, sibling)
            .where(Col("doc_id", sibling).eq(DocParam()))
            .where(
                Col("parent_pre", sibling).eq(
                    Col("parent_pre", branch.alias)
                )
            )
            .where(
                Col("ordinal", sibling).lt(Col("ordinal", branch.alias))
            )
        )
        self._apply_predicates(
            _Branch(siblings, branch.relation, sibling, position,
                    Col("pre", sibling)),
            step, doc_id,
        )
        n = predicate.position
        return CountAtMost(siblings, n).eq(Raw(str(n - 1)))

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
        mapping = self.scheme.require_mapping()
        branch, _ = ctx
        # Walk inlined hops for free; open an EXISTS at the first relation
        # boundary and keep joining inside it afterwards.
        relation = branch.relation
        position = branch.position
        alias = branch.alias
        sub: Select | None = None
        conditions_outside: list[SqlExpr] = []

        def add_condition(condition: SqlExpr) -> None:
            if sub is None:
                conditions_outside.append(condition)
            else:
                sub.where(condition)

        for name in path.element_names:
            if name in position.inlined_children:
                position = relation.positions[
                    position.inlined_children[name]
                ]
                add_condition(
                    Comparison(
                        "IS NOT", Col(position.pre_column, alias), Raw("NULL")
                    )
                )
                continue
            child_relation = mapping.relation_of(name)
            allowed = name in position.relation_children or (
                child_relation is not None
                and mapping.dtd.elements[position.element].model.is_any
            )
            if child_relation is None or not allowed:
                return Raw("0")
            new_alias = self._new_alias()
            link = And((
                Col("doc_id", new_alias).eq(DocParam()),
                Col("parent_pre", new_alias).eq(
                    Col(position.pre_column, alias)
                ),
            ))
            if sub is None:
                sub = (
                    Select()
                    .select(Raw("1"))
                    .from_table(child_relation.table.name, new_alias)
                    .where(link)
                )
            else:
                sub.join(child_relation.table.name, new_alias, link)
            relation, position, alias = (
                child_relation, child_relation.root, new_alias
            )
        # Final target value column.
        is_existence = op is None and like_pattern is None
        final_conditions: list[SqlExpr] = []
        if path.target == "attribute":
            columns = position.attr_columns.get(path.target_name or "")
            if columns is None:
                return Raw("0")
            if is_existence:
                final_conditions.append(
                    Comparison("IS NOT", Col(columns[1], alias), Raw("NULL"))
                )
            else:
                comparison = compare_value(
                    Col(columns[0], alias), op, literal, numeric, like_pattern
                )
                assert comparison is not None
                final_conditions.append(comparison)
        elif is_existence and path.target == "content":
            # Bare existence of an element: the row/pre-column presence
            # established by the hops above is all that is needed.
            pass
        elif position.content_column is None:
            return Raw("0")  # a value test on an element-content element
        elif is_existence:  # text() existence
            final_conditions.append(
                Comparison(
                    "IS NOT",
                    Col(position.content_pre_column, alias),
                    Raw("NULL"),
                )
            )
        else:
            comparison = compare_value(
                Col(position.content_column, alias),
                op, literal, numeric, like_pattern,
            )
            assert comparison is not None
            final_conditions.append(comparison)
        if sub is None:
            combined = conditions_outside + final_conditions
            if not combined:
                return Raw("1")  # bare '.' is always true
            return And(tuple(combined))
        for condition in final_conditions:
            sub.where(condition)
        inner = Exists(sub)
        if conditions_outside:
            return And(tuple(conditions_outside + [inner]))
        return inner

    # -- finishing ----------------------------------------------------------------------

    def _finish(self, branches: list[_Branch]) -> WithQuery:
        statement = WithQuery()
        if not branches:
            empty = (
                Select()
                .select(Raw("NULL"), alias="pre")
                .from_table("inline_schema", "s")
                .where(Raw("0"))
            )
            statement.final = empty
            return statement
        selects = []
        for branch in branches:
            branch.select.select(branch.result_expr, alias="pre")
            selects.append(branch.select)
        if len(selects) == 1:
            only = selects[0]
            only.distinct = True
            only.order_by(Col("pre"))
            statement.final = only
            return statement
        statement.add_cte("results", Union(tuple(selects), all=True))
        final = (
            Select()
            .select(Col("pre", "results"))
            .from_table("results", "results")
            .order_by(Col("pre", "results"))
        )
        final.distinct = True
        statement.final = final
        return statement
