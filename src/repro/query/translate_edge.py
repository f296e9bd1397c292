"""XPath→SQL for the edge mapping.

Translation builds a *pipeline of CTEs*, one per location step: step i's
CTE selects the ``pre`` ids reachable from step i-1's CTE.

* A child step is a single join ``edge.source = prev.pre``.
* A descendant step needs the **transitive closure** of the edge relation
  — a recursive CTE (``WITH RECURSIVE``) computing the descendant-or-self
  set, from which children are taken.  This is the published weakness of
  the mapping (no order encoding to turn ``//`` into a range scan) and
  the contrast experiment E4 quantifies.

Predicates and value chains are shared with the other translators via
:class:`~repro.query.translate_common.TableTranslator`, using the edge
columns (``label`` for names, ``source`` as the parent link).
"""

from __future__ import annotations

from repro.query.plan import (
    AXIS_ANCESTOR,
    AXIS_ANCESTOR_OR_SELF,
    AXIS_ATTRIBUTE,
    AXIS_CHILD,
    AXIS_FOLLOWING_SIBLING,
    AXIS_PARENT,
    AXIS_PRECEDING_SIBLING,
    AXIS_SELF,
    StepPlan,
)
from repro.query.translate_common import ATTRIBUTE, TableTranslator
from repro.relational.sql import (
    And,
    Col,
    DocParam,
    Raw,
    Select,
    SqlExpr,
    Union,
    WithQuery,
)


class EdgeTranslator(TableTranslator):
    """Edge-table translator (CTE pipeline, recursive closures for //)."""

    table = "edge"
    pre_column = "pre"
    name_column = "label"

    # -- TableTranslator hooks (used by predicates/value chains) ---------------

    def axis_conditions(self, step, alias, prev):  # pragma: no cover
        raise AssertionError(
            "edge translation overrides translate(); axis_conditions unused"
        )

    def child_link(self, parent_alias: str, child_alias: str) -> SqlExpr:
        # Inside value chains the context alias exposes its node id as
        # `target`; CTE rows expose it as `pre`.  The context alias is
        # always an edge-table alias here, so `target` is correct.
        return Col("source", child_alias).eq(Col("target", parent_alias))

    def same_parent(self, alias_a: str, alias_b: str) -> SqlExpr:
        return Col("source", alias_a).eq(Col("source", alias_b))

    def link_columns(self) -> tuple[str, str]:
        return "source", "target"

    def step_table(self, step: StepPlan) -> str:
        """Relation scanned by one location step (hook for binary)."""
        return self.table

    def closure_table(self) -> str:
        """Relation traversed by descendant closures (hook for binary)."""
        return self.table

    # -- translation -------------------------------------------------------------

    def expansion_pays(self, plan) -> bool:
        """A ``//`` after the first step is a recursive closure here
        (:meth:`translate`), so the DTD's child chains beat it; a leading
        ``//`` is one label scan and stays."""
        return any(step.from_descendant for step in plan.steps[1:])

    def translate(self, doc_id: int, xpath) -> WithQuery:
        plan = self.plan(xpath)
        statement = WithQuery()
        prev_cte: str | None = None
        prev_step: StepPlan | None = None
        for i, step in enumerate(plan.steps):
            step_cte = f"s{i}"
            if step.axis in (
                AXIS_FOLLOWING_SIBLING, AXIS_PRECEDING_SIBLING,
            ) and prev_step is not None and (
                prev_step.axis == AXIS_ATTRIBUTE
            ):
                raise self.scheme.unsupported(
                    f"{step.axis} from an attribute context"
                )
            if step.from_descendant and prev_cte is not None:
                closure = f"c{i}"
                statement.recursive = True
                statement.add_cte(
                    closure, self._closure_query(doc_id, prev_cte, closure)
                )
                statement.add_cte(
                    step_cte,
                    self._step_from_closure(doc_id, step, closure),
                )
            elif step.axis in (AXIS_ANCESTOR, AXIS_ANCESTOR_OR_SELF):
                if prev_cte is None:
                    statement.add_cte(
                        step_cte, self._empty_step(doc_id)
                    )
                else:
                    closure = f"c{i}"
                    statement.recursive = True
                    statement.add_cte(
                        closure,
                        self._upward_closure(
                            doc_id, prev_cte, closure,
                            include_self=(
                                step.axis == AXIS_ANCESTOR_OR_SELF
                            ),
                        ),
                    )
                    statement.add_cte(
                        step_cte,
                        self._members_step(doc_id, step, closure),
                    )
            elif step.axis in (
                AXIS_FOLLOWING_SIBLING, AXIS_PRECEDING_SIBLING,
            ):
                if prev_cte is None:
                    statement.add_cte(
                        step_cte, self._empty_step(doc_id)
                    )
                else:
                    statement.add_cte(
                        step_cte,
                        self._sibling_step(doc_id, step, prev_cte),
                    )
            else:
                statement.add_cte(
                    step_cte, self._plain_step(doc_id, step, prev_cte)
                )
            prev_cte = step_cte
            prev_step = step
        assert prev_cte is not None
        final = (
            Select()
            .from_table(prev_cte, prev_cte)
            .select(Col("pre", prev_cte))
            .order_by(Col("pre", prev_cte))
        )
        final.distinct = True
        statement.final = final
        return statement

    def _empty_step(self, doc_id: int) -> Select:
        """An always-empty step (extended axes from the document node)."""
        return (
            Select()
            .from_table(self.step_table(StepPlan(AXIS_CHILD, None)), "e")
            .select(Col("target", "e"), alias="pre")
            .where(Raw("0"))
        )

    def _upward_closure(
        self, doc_id: int, prev_cte: str, closure: str, include_self: bool
    ) -> Union:
        """Ancestor(-or-self) ids by chasing source links upward."""
        if include_self:
            base = (
                Select().from_table(prev_cte, "p").select(Col("pre", "p"))
            )
        else:
            base = (
                Select()
                .from_table(self.closure_table(), "e")
                .select(Col("source", "e"), alias="pre")
                .join(prev_cte, "p", Col("target", "e").eq(Col("pre", "p")))
                .where(Col("doc_id", "e").eq(DocParam()))
                .where(Col("source", "e").gt(Raw("0")))
            )
        recursive = (
            Select()
            .from_table(self.closure_table(), "e")
            .select(Col("source", "e"), alias="pre")
            .join(closure, "r", Col("target", "e").eq(Col("pre", "r")))
            .where(Col("doc_id", "e").eq(DocParam()))
            .where(Col("source", "e").gt(Raw("0")))
        )
        return Union((base, recursive), all=True)

    def _members_step(
        self, doc_id: int, step: StepPlan, closure: str
    ) -> Select:
        """Filter a closure's members by the step's test/predicates."""
        query = (
            Select()
            .from_table(self.closure_table(), "e")
            .select(Col("target", "e"), alias="pre")
            .join(closure, "r", Col("target", "e").eq(Col("pre", "r")))
            .where(Col("doc_id", "e").eq(DocParam()))
        )
        self._apply_tests_and_predicates(query, step, "e", doc_id)
        return query

    def _sibling_step(
        self, doc_id: int, step: StepPlan, prev_cte: str
    ) -> Select:
        """Siblings via shared source plus ordinal comparison."""
        comparison_op = (
            "gt" if step.axis == AXIS_FOLLOWING_SIBLING else "lt"
        )
        query = (
            Select()
            .from_table(prev_cte, "p")
            .select(Col("target", "e"), alias="pre")
            .join(
                self.closure_table(),
                "prow",
                And((
                    Col("doc_id", "prow").eq(DocParam()),
                    Col("target", "prow").eq(Col("pre", "p")),
                )),
            )
            .join(
                self.closure_table(),
                "e",
                And((
                    Col("doc_id", "e").eq(DocParam()),
                    Col("source", "e").eq(Col("source", "prow")),
                    getattr(Col("ordinal", "e"), comparison_op)(
                        Col("ordinal", "prow")
                    ),
                )),
            )
        )
        self._apply_tests_and_predicates(query, step, "e", doc_id)
        return query

    def _closure_query(
        self, doc_id: int, prev_cte: str, closure: str
    ) -> Union:
        """The descendant-or-self closure of the previous step's set."""
        base = (
            Select()
            .from_table(prev_cte, "p")
            .select(Col("pre", "p"))
        )
        recursive = (
            Select()
            .from_table(self.closure_table(), "e")
            .select(Col("target", "e"))
            .join(closure, "r", Col("source", "e").eq(Col("pre", "r")))
            .where(Col("doc_id", "e").eq(DocParam()))
        )
        return Union((base, recursive), all=True)

    def _step_from_closure(
        self, doc_id: int, step: StepPlan, closure: str
    ) -> Select:
        """Apply one step against a descendant-or-self closure."""
        query = (
            Select()
            .from_table(self.step_table(step), "e")
            .select(Col("target", "e"), alias="pre")
            .where(Col("doc_id", "e").eq(DocParam()))
        )
        if step.axis in (AXIS_CHILD, AXIS_ATTRIBUTE):
            # Children of desc-or-self == proper descendants.
            query.join(
                closure, "r", Col("source", "e").eq(Col("pre", "r"))
            )
        elif step.axis == AXIS_SELF:
            query.join(
                closure, "r", Col("target", "e").eq(Col("pre", "r"))
            )
        else:
            raise self.scheme.unsupported(
                f"axis {step.axis} after descendant-or-self"
            )
        self._apply_tests_and_predicates(query, step, "e", doc_id)
        return query

    def _plain_step(
        self, doc_id: int, step: StepPlan, prev_cte: str | None
    ) -> Select:
        query = (
            Select()
            .from_table(self.step_table(step), "e")
            .where(Col("doc_id", "e").eq(DocParam()))
        )
        if step.axis == AXIS_PARENT:
            if prev_cte is None:
                raise self.scheme.unsupported("parent of the document root")
            # The parent's own edge row carries its label/kind for tests.
            query.select(Col("target", "e"), alias="pre")
            query.join(
                prev_cte,
                "p",
                Raw("1").eq(Raw("1")),
            )
            # e is the parent row: a child row c links them.
            query.join(
                self.closure_table(),
                "c",
                And((
                    Col("doc_id", "c").eq(DocParam()),
                    Col("target", "c").eq(Col("pre", "p")),
                    Col("source", "c").eq(Col("target", "e")),
                )),
            )
            self._apply_tests_and_predicates(query, step, "e", doc_id)
            return query
        query.select(Col("target", "e"), alias="pre")
        if step.axis in (AXIS_CHILD, AXIS_ATTRIBUTE):
            if step.from_descendant:
                # First step //x: descendants of the document = everything.
                pass
            elif prev_cte is None:
                query.where(Col("source", "e").eq(Raw("0")))
            else:
                query.join(
                    prev_cte, "p",
                    Col("source", "e").eq(Col("pre", "p")),
                )
        elif step.axis == AXIS_SELF:
            if prev_cte is None:
                # self:: of the document node — never a stored node.
                query.where(Raw("0"))
            else:
                query.join(
                    prev_cte, "p",
                    Col("target", "e").eq(Col("pre", "p")),
                )
        else:
            raise self.scheme.unsupported(f"axis {step.axis}")
        self._apply_tests_and_predicates(query, step, "e", doc_id)
        return query

    def _apply_tests_and_predicates(
        self, query: Select, step: StepPlan, alias: str, doc_id: int
    ) -> None:
        for condition in self.step_conditions(step, alias, doc_id):
            query.where(condition)
