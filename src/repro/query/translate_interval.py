"""XPath→SQL for the interval (pre/size/level) mapping.

A k-step path becomes k self-joins of ``accel``; each axis is a range (or
equality) condition on the region encoding:

* ``child``       — ``n.parent_pre = p.pre``
* ``descendant``  — ``n.pre > p.pre AND n.pre <= p.pre + p.size``
* ``attribute``   — ``n.parent_pre = p.pre AND n.kind = ATTRIBUTE``
* ``parent``      — ``n.pre = p.parent_pre``

No recursion is ever needed — the property that makes this mapping the
published winner on descendant-heavy queries (experiment E4).
"""

from __future__ import annotations

from repro.query.plan import (
    AXIS_ANCESTOR,
    AXIS_ANCESTOR_OR_SELF,
    AXIS_ATTRIBUTE,
    AXIS_CHILD,
    AXIS_FOLLOWING,
    AXIS_FOLLOWING_SIBLING,
    AXIS_PARENT,
    AXIS_PRECEDING,
    AXIS_PRECEDING_SIBLING,
    AXIS_SELF,
    EXTENDED_AXES,
    StepPlan,
)
from repro.query.translate_common import TableTranslator
from repro.relational.sql import Arith, Col, Raw, SqlExpr


class IntervalTranslator(TableTranslator):
    """Region-encoding translator (table ``accel``)."""

    table = "accel"
    pre_column = "pre"

    def axis_conditions(
        self, step: StepPlan, alias: str, prev: str | None
    ) -> list[SqlExpr]:
        pre = Col("pre", alias)
        parent = Col("parent_pre", alias)
        if prev is None:
            # Context is the document node (pre 0, not stored).
            if step.axis == AXIS_PARENT:
                raise self.scheme.unsupported("parent of the document root")
            if step.axis in EXTENDED_AXES:
                return [Raw("0")]  # the document has no such relatives
            if step.from_descendant:
                return []  # every stored node is below the document
            if step.axis in (AXIS_CHILD, AXIS_ATTRIBUTE):
                return [parent.eq(Raw("0"))]
            return [pre.eq(Raw("0"))]  # self:: of the document — empty
        prev_pre = Col("pre", prev)
        region_end = Arith("+", prev_pre, Col("size", prev))
        own_end = Arith("+", pre, Col("size", alias))
        if step.axis == AXIS_ANCESTOR:
            # Region containment inverted: the context lies inside the
            # ancestor's window — the accelerator's signature trick.
            return [pre.lt(prev_pre), own_end.ge(prev_pre)]
        if step.axis == AXIS_ANCESTOR_OR_SELF:
            return [pre.le(prev_pre), own_end.ge(prev_pre)]
        if step.axis == AXIS_FOLLOWING:
            return [pre.gt(region_end)]
        if step.axis == AXIS_PRECEDING:
            # Before the context and not one of its ancestors.
            return [own_end.lt(prev_pre)]
        if step.axis == AXIS_FOLLOWING_SIBLING:
            return [parent.eq(Col("parent_pre", prev)), pre.gt(prev_pre)]
        if step.axis == AXIS_PRECEDING_SIBLING:
            return [parent.eq(Col("parent_pre", prev)), pre.lt(prev_pre)]
        if step.axis in (AXIS_CHILD, AXIS_ATTRIBUTE):
            if step.from_descendant:
                # Attributes live inside the region too, so descendant and
                # descendant-attribute steps share the window; the node
                # test separates them by kind.
                return [pre.gt(prev_pre), pre.le(region_end)]
            return [parent.eq(prev_pre)]
        if step.axis == AXIS_SELF:
            if step.from_descendant:
                return [pre.ge(prev_pre), pre.le(region_end)]
            return [pre.eq(prev_pre)]
        if step.axis == AXIS_PARENT:
            return [pre.eq(Col("parent_pre", prev))]
        raise self.scheme.unsupported(f"axis {step.axis}")

    def child_link(self, parent_alias: str, child_alias: str) -> SqlExpr:
        return Col("parent_pre", child_alias).eq(Col("pre", parent_alias))

    def same_parent(self, alias_a: str, alias_b: str) -> SqlExpr:
        return Col("parent_pre", alias_a).eq(Col("parent_pre", alias_b))
