"""XPath→SQL for the edge mapping.

A k-step path becomes k self-joins of ``edge`` through
:meth:`~repro.query.translate_common.TableTranslator.translate`; each
axis is an equality on the parent link:

* ``child``/``attribute`` — ``n.source = p.target``
* ``self``                — ``n.target = p.target``
* ``parent``              — ``n.target = p.source``
* siblings                — ``n.source = p.source`` plus an ``ordinal``
  comparison

Two steps need the **transitive closure** of the edge relation instead: a
``//`` below the first step that the label-path catalog did not expand,
and the ancestor axes.  Each becomes one recursive CTE (``WITH
RECURSIVE``) seeded by the joined steps before it; the step then joins
it like any other context.  This is the published weakness of the
mapping (no order encoding to turn ``//`` into a range scan) and the
contrast experiment E4 quantifies.
"""

from __future__ import annotations

from dataclasses import replace

from repro.query.plan import (
    AXIS_ANCESTOR,
    AXIS_ANCESTOR_OR_SELF,
    AXIS_ATTRIBUTE,
    AXIS_CHILD,
    AXIS_FOLLOWING,
    AXIS_FOLLOWING_SIBLING,
    AXIS_PARENT,
    AXIS_PRECEDING,
    AXIS_SELF,
    EXTENDED_AXES,
    StepPlan,
)
from repro.query.translate_common import TableTranslator
from repro.relational.sql import Col, DocParam, Raw, Select, SqlExpr, Union


class EdgeTranslator(TableTranslator):
    """Edge-table translator (self-joins, recursive closures)."""

    table = "edge"
    pre_column = "target"
    name_column = "label"

    def axis_conditions(
        self, step: StepPlan, alias: str, prev: str | None
    ) -> list[SqlExpr]:
        if step.axis in (AXIS_FOLLOWING, AXIS_PRECEDING):
            # No order encoding: document order across subtrees is a
            # closure over every earlier sibling's subtree.
            raise self.scheme.unsupported(f"axis {step.axis}")
        if prev is None:
            # Context is the document node (target 0, not stored).
            if step.axis == AXIS_PARENT:
                raise self.scheme.unsupported("parent of the document root")
            if step.axis in EXTENDED_AXES:
                return [Raw("0")]  # the document has no such relatives
            if step.from_descendant:
                return []  # every stored node is below the document
            if step.axis in (AXIS_CHILD, AXIS_ATTRIBUTE):
                return [Col("source", alias).eq(Raw("0"))]
            return [Raw("0")]  # self:: of the document — empty
        target = Col("target", alias)
        if step.axis in (AXIS_CHILD, AXIS_ATTRIBUTE):
            return [self.child_link(prev, alias)]
        if step.axis == AXIS_SELF:
            return [target.eq(Col("target", prev))]
        if step.axis == AXIS_PARENT:
            return [target.eq(Col("source", prev))]
        ordinal = Col("ordinal", alias)
        later = step.axis == AXIS_FOLLOWING_SIBLING
        return [
            self.same_parent(alias, prev),
            (ordinal.gt if later else ordinal.lt)(Col("ordinal", prev)),
        ]

    def child_link(self, parent_alias: str, child_alias: str) -> SqlExpr:
        return Col("source", child_alias).eq(Col("target", parent_alias))

    def same_parent(self, alias_a: str, alias_b: str) -> SqlExpr:
        return Col("source", alias_a).eq(Col("source", alias_b))

    def link_columns(self) -> tuple[str, str]:
        return "source", "target"

    def expansion_pays(self, plan) -> bool:
        """A ``//`` after the first step is a recursive closure here
        (:meth:`closure`), so the label paths' child chains beat it; a
        leading ``//`` is one label scan and stays."""
        return any(step.from_descendant for step in plan.steps[1:])

    def closure(
        self, step: StepPlan, seed: Select, prev: str, name: str
    ) -> tuple[Union, StepPlan] | None:
        """A ``//`` step's descendant-or-self closure, joined by the
        step's own axis; an ancestor step's ancestor(-or-self) closure,
        whose members the step keeps by ``self``."""
        if step.from_descendant:
            if step.axis == AXIS_PARENT:
                raise self.scheme.unsupported(
                    f"axis {step.axis} after descendant-or-self"
                )
            return (
                self._closure_query(seed, prev, name),
                replace(step, from_descendant=False),
            )
        if step.axis in (AXIS_ANCESTOR, AXIS_ANCESTOR_OR_SELF):
            include_self = step.axis == AXIS_ANCESTOR_OR_SELF
            return (
                self._upward_closure(seed, prev, name, include_self),
                replace(step, axis=AXIS_SELF),
            )
        return None

    def _closure_query(self, seed: Select, prev: str, name: str) -> Union:
        """The descendant-or-self closure of *seed*'s ``prev`` nodes."""
        seed.select(Col("target", prev))
        recursive = (
            Select()
            .from_table(self.table, "e")
            .select(Col("target", "e"))
            .join(name, "r", Col("source", "e").eq(Col("target", "r")))
            .where(Col("doc_id", "e").eq(DocParam()))
        )
        return Union((seed, recursive), all=True)

    def _upward_closure(
        self, seed: Select, prev: str, name: str, include_self: bool
    ) -> Union:
        """Ancestor(-or-self) ids of *seed*'s ``prev`` nodes, by chasing
        source links upward."""
        if include_self:
            seed.select(Col("target", prev))
        else:
            seed.select(Col("source", prev), alias="target")
            seed.where(Col("source", prev).gt(Raw("0")))
        recursive = (
            Select()
            .from_table(self.table, "e")
            .select(Col("source", "e"))
            .join(name, "r", Col("target", "e").eq(Col("target", "r")))
            .where(Col("doc_id", "e").eq(DocParam()))
            .where(Col("source", "e").gt(Raw("0")))
        )
        return Union((seed, recursive), all=True)
