"""XPath→SQL for the universal-table mapping.

A linear path over named steps needs **no structural join**: the path
catalog (``universal_paths``, tens of rows) restricts ``pathexp``,
the wide relation is probed through its ``(doc_id, path_id)`` index, and
the answer is the final label's id column.  That is the whole published
appeal of the universal table (experiments E3/E8) — and its limits show
just as quickly:

* wildcards, ``node()``, ``self``/``parent`` axes and positional
  predicates are untranslatable (``UnsupportedQueryError``),
* a value predicate is a set-at-a-time semi-join of the wide relation
  with itself: the shared ancestor's id ``IN`` the ids of the rows whose
  path runs through the predicate's path and whose value qualifies —
  computed once per statement, not once per outer row,
* recursion is rejected at *storage* time already.
"""

from __future__ import annotations

from repro.query.plan import (
    AXIS_ATTRIBUTE,
    AXIS_CHILD,
    PathPlan,
    PositionPredicate,
    PredicatePlan,
    ValuePath,
)
from repro.query.translate_common import compare_value
from repro.query.translator import BaseTranslator
from repro.relational.sql import (
    And,
    Col,
    Comparison,
    DocParam,
    InSubquery,
    Like,
    Or,
    Param,
    Raw,
    Select,
    SqlExpr,
    like_escape,
)
from repro.storage.universal import PATH_SEP, UNIVERSAL
from repro.xpath.ast import NameTest, KindTest

_ALWAYS_FALSE = Raw("0")


class UniversalTranslator(BaseTranslator):
    """Path-catalog translator for the universal table."""

    def translate(self, doc_id: int, xpath) -> Select:
        plan = self.plan(xpath)
        segments = self._segments(plan)
        known = self.scheme.label_columns()
        query = (
            Select()
            .from_table(UNIVERSAL, "u")
            .join(
                "universal_paths",
                "p",
                And((
                    Col("doc_id", "p").eq(Col("doc_id", "u")),
                    Col("path_id", "p").eq(Col("path_id", "u")),
                )),
            )
            .where(Col("doc_id", "u").eq(DocParam()))
        )
        final_label = segments[-1][1]
        if final_label not in known:
            query.where(_ALWAYS_FALSE)
            query.select(Raw("NULL"), alias="pre")
            return query
        query.where(self._path_condition(segments))
        __, id_col, __ = self.scheme.column_triple(known[final_label])
        query.where(Comparison("IS NOT", Col(id_col, "u"), Raw("NULL")))
        # Predicates, anchored on the id column of the step they sit on.
        for index, (__, label, predicates) in enumerate(segments):
            for predicate in predicates:
                query.where(
                    self.predicate_condition(
                        predicate, (segments[: index + 1], known), doc_id
                    )
                )
        query.select(Col(id_col, "u"), alias="pre")
        query.distinct = True
        query.order_by(Col(id_col, "u"))
        return query

    # -- path handling --------------------------------------------------------------

    def _segments(
        self, plan: PathPlan
    ) -> list[tuple[str, str, tuple[PredicatePlan, ...]]]:
        """(separator, label, predicates) per step; raises on anything the
        universal table cannot express."""
        segments: list[tuple[str, str, tuple[PredicatePlan, ...]]] = []
        for i, step in enumerate(plan.steps):
            is_last = i == len(plan.steps) - 1
            separator = "#%/" if step.from_descendant else PATH_SEP
            if step.axis == AXIS_CHILD:
                if isinstance(step.test, NameTest) and not step.test.is_wildcard:
                    label = step.test.name
                elif isinstance(step.test, KindTest) and step.test.kind == "text":
                    if not is_last:
                        raise self.scheme.unsupported("text() mid-path")
                    label = "#text"
                else:
                    raise self.scheme.unsupported(
                        f"node test {step.test} (universal paths are by label)"
                    )
            elif step.axis == AXIS_ATTRIBUTE:
                if not is_last:
                    raise self.scheme.unsupported("attribute step mid-path")
                if not isinstance(step.test, NameTest) or step.test.is_wildcard:
                    raise self.scheme.unsupported("@* steps")
                label = f"@{step.test.name}"
            else:
                raise self.scheme.unsupported(f"axis {step.axis}")
            for predicate in step.predicates:
                if isinstance(predicate, PositionPredicate):
                    raise self.scheme.unsupported(
                        "positional predicates (no sibling ids in rows)"
                    )
            segments.append((separator, label, step.predicates))
        return segments

    def _path_condition(self, segments) -> SqlExpr:
        """Rows whose path *reaches* the steps (it may extend deeper)."""
        exact = all(sep == PATH_SEP for sep, __, __ in segments)
        pattern = "".join(
            (sep if sep == PATH_SEP else "#%/") + like_escape(label)
            for sep, label, __ in segments
        )
        path = Col("pathexp", "p")
        extended = Like(path, pattern + PATH_SEP + "%")
        if exact:
            exact_path = "".join(
                PATH_SEP + label for __, label, __ in segments
            )
            return Or((path.eq(Param(exact_path)), extended))
        return Or((Like(path, pattern), extended))

    # -- predicates -------------------------------------------------------------------

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
        """The anchor node's id is among those of the universal rows
        that carry a qualifying value below it.  *ctx* is
        ``(prefix_segments, known)``: the segments up to the predicate's
        step, and the stored label → column map."""
        prefix_segments, known = ctx
        anchor_label = prefix_segments[-1][1]
        if anchor_label not in known:
            return _ALWAYS_FALSE
        __, anchor_id, anchor_val = self.scheme.column_triple(
            known[anchor_label]
        )
        chain = [anchor_label] + list(path.element_names)
        if path.target == "attribute":
            chain.append(f"@{path.target_name}")
        elif path.target == "text":
            chain.append("#text")
        target_label = chain[-1]
        if target_label not in known or any(
            label not in known for label in chain
        ):
            return _ALWAYS_FALSE
        __, __, target_val = self.scheme.column_triple(known[target_label])
        if path.target == "content" and not path.element_names:
            # The anchor's own content, available on the current row.
            condition = compare_value(
                Col(anchor_val, "u"), op, literal, numeric, like_pattern
            )
            return condition if condition is not None else Raw("1")
        suffix = "".join(PATH_SEP + like_escape(label) for label in chain)
        # Uncorrelated, so it is evaluated once per statement.  Every
        # row it selects has the anchor label on its path (the suffix
        # starts with it), hence a non-NULL anchor id: the IN is never
        # NULL and ``not(...)`` around it stays two-valued.
        sub = (
            Select()
            .select(Col(anchor_id, "u2"))
            .from_table(UNIVERSAL, "u2")
            .join(
                "universal_paths",
                "p2",
                And((
                    Col("doc_id", "p2").eq(Col("doc_id", "u2")),
                    Col("path_id", "p2").eq(Col("path_id", "u2")),
                )),
            )
            .where(Col("doc_id", "u2").eq(DocParam()))
            .where(
                Or((
                    Like(Col("pathexp", "p2"), f"%{suffix}"),
                    Like(Col("pathexp", "p2"), f"%{suffix}{PATH_SEP}%"),
                ))
            )
        )
        condition = compare_value(
            Col(target_val, "u2"), op, literal, numeric, like_pattern
        )
        if condition is not None:
            sub.where(condition)
        return InSubquery(Col(anchor_id, "u"), sub)
