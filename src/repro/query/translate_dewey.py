"""XPath→SQL for the Dewey order-label mapping.

Axis conditions are string operations on the length-prefixed labels
(:func:`~repro.storage.numbering.dewey_component`):

* ``child``       — ``n.parent_label = p.label``
* ``descendant``  — ``n.label > p.label || '.'  AND  n.label < p.label || '/'``
  (an index-usable string range: ``'/'`` is the successor of the
  component separator ``'.'`` in ASCII)
* ``attribute``   — child link plus ``kind = ATTRIBUTE`` (attributes carry
  labels below their element, like any child)
* ``parent``      — ``n.label = p.parent_label``

Results are ordered by the stored ``pre`` id (the labels would sort the
same way — that is the Dewey invariant the property tests check).
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
from repro.relational.sql import And, Arith, Col, Comparison, Not, Or, Raw, SqlExpr
from repro.storage.numbering import DEWEY_SEPARATOR

_SEPARATOR_LITERAL = f"'{DEWEY_SEPARATOR}'"
_RANGE_END_LITERAL = f"'{chr(ord(DEWEY_SEPARATOR) + 1)}'"


def _descendant_range(alias: str, prev: str) -> list[SqlExpr]:
    label = Col("label", alias)
    prev_label = Col("label", prev)
    lower = Arith("||", prev_label, Raw(_SEPARATOR_LITERAL))
    upper = Arith("||", prev_label, Raw(_RANGE_END_LITERAL))
    return [label.gt(lower), label.lt(upper)]


class DeweyTranslator(TableTranslator):
    """Order-label translator (table ``dewey``)."""

    table = "dewey"
    pre_column = "pre"

    def axis_conditions(
        self, step: StepPlan, alias: str, prev: str | None
    ) -> list[SqlExpr]:
        label = Col("label", alias)
        parent_label = Col("parent_label", alias)
        if prev is None:
            if step.axis == AXIS_PARENT:
                raise self.scheme.unsupported("parent of the document root")
            if step.axis in EXTENDED_AXES:
                return [Raw("0")]  # the document has no such relatives
            if step.from_descendant:
                return []
            if step.axis in (AXIS_CHILD, AXIS_ATTRIBUTE):
                # Root-level nodes have single-component labels.
                return [Comparison("IS", parent_label, Raw("NULL"))]
            return [Raw("0")]  # self:: of the document — empty
        if step.axis in EXTENDED_AXES:
            return self._extended_axis_conditions(step, alias, prev)
        if step.axis in (AXIS_CHILD, AXIS_ATTRIBUTE):
            if step.from_descendant:
                return _descendant_range(alias, prev)
            return [parent_label.eq(Col("label", prev))]
        if step.axis == AXIS_SELF:
            if step.from_descendant:
                return [label.ge(Col("label", prev))] + [
                    label.lt(
                        Arith("||", Col("label", prev),
                              Raw(_RANGE_END_LITERAL))
                    )
                ]
            return [label.eq(Col("label", prev))]
        if step.axis == AXIS_PARENT:
            return [label.eq(Col("parent_label", prev))]
        raise self.scheme.unsupported(f"axis {step.axis}")

    def _extended_axis_conditions(
        self, step: StepPlan, alias: str, prev: str
    ) -> list[SqlExpr]:
        """Extended axes as pure label comparisons.

        Ancestor-of is the inverted prefix range; following is
        "lexicographically past the context's subtree" — the upper bound
        ``label || '/'`` both closes the subtree and excludes ancestors
        (whose labels are proper prefixes, hence smaller).
        """
        label = Col("label", alias)
        prev_label = Col("label", prev)
        own_subtree_lo = Arith("||", label, Raw(_SEPARATOR_LITERAL))
        own_subtree_hi = Arith("||", label, Raw(_RANGE_END_LITERAL))
        is_ancestor = And((
            prev_label.gt(own_subtree_lo),
            prev_label.lt(own_subtree_hi),
        ))
        if step.axis == AXIS_ANCESTOR:
            return [is_ancestor]
        if step.axis == AXIS_ANCESTOR_OR_SELF:
            return [Or((label.eq(prev_label), is_ancestor))]
        if step.axis == AXIS_FOLLOWING:
            return [
                label.gt(Arith("||", prev_label, Raw(_RANGE_END_LITERAL)))
            ]
        if step.axis == AXIS_PRECEDING:
            return [label.lt(prev_label), Not(is_ancestor)]
        if step.axis == AXIS_FOLLOWING_SIBLING:
            return [
                Col("parent_label", alias).eq(Col("parent_label", prev)),
                label.gt(prev_label),
            ]
        if step.axis == AXIS_PRECEDING_SIBLING:
            return [
                Col("parent_label", alias).eq(Col("parent_label", prev)),
                label.lt(prev_label),
            ]
        raise self.scheme.unsupported(f"axis {step.axis}")

    def child_link(self, parent_alias: str, child_alias: str) -> SqlExpr:
        return Col("parent_label", child_alias).eq(Col("label", parent_alias))

    def same_parent(self, alias_a: str, alias_b: str) -> SqlExpr:
        # Root-level nodes have NULL parent_label; IS handles both cases.
        return Comparison(
            "IS", Col("parent_label", alias_a), Col("parent_label", alias_b)
        )

    def link_columns(self) -> tuple[str, str]:
        return "parent_label", "label"
