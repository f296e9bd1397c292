"""Cardinality estimation of XPath queries over a path summary.

Structure-only queries (child/descendant steps, name tests) are estimated
*exactly* — the summary enumerates every occurring path, so the answer is
a sum of per-path counts.  Predicates multiply in per-predicate
selectivity factors:

* ``[path]`` existence      — min(1, child count / parent count)
* ``[path = 'v']``          — 1 / distinct values of the target path
* ``[path op number]``      — uniform-range fraction over [min, max]
* ``[contains(...)]``        — the classic 10% guess
* ``and``/``or``/``not``     — independence-assumption algebra
* positional ``[n]``         — min(1, parent count / count)

Experiment E10 reports estimated vs. actual cardinality per query class.
"""

from __future__ import annotations

from repro.errors import UnsupportedQueryError
from repro.query.plan import (
    AXIS_ATTRIBUTE,
    AXIS_CHILD,
    BooleanPredicate,
    ComparisonPredicate,
    ExistsPredicate,
    NotPredicate,
    PathPlan,
    PositionPredicate,
    PredicatePlan,
    StringMatchPredicate,
    ValuePath,
    plan_path,
)
from repro.stats.pathsummary import PathStatistics, PathSummary
from repro.xpath.ast import NameTest, KindTest

CONTAINS_SELECTIVITY = 0.1


def estimate_cardinality(summary: PathSummary, xpath: str) -> float:
    """Estimated number of nodes *xpath* selects."""
    plan = plan_path(xpath, scheme="estimator")
    steps = _step_patterns(plan)
    total = 0.0
    for statistics in summary.matching(steps):
        selectivity = 1.0
        # Predicates apply at the step whose depth they sit at; map each
        # plan step to its position in the matched path.
        positions = _step_positions(steps, statistics.path)
        if positions is None:
            continue
        for step, position in zip(plan.steps, positions):
            prefix = statistics.path[: position + 1]
            step_statistics = summary.get(prefix)
            if step_statistics is None:
                selectivity = 0.0
                break
            for predicate in step.predicates:
                selectivity *= _predicate_selectivity(
                    summary, step_statistics, predicate
                )
        total += statistics.count * selectivity
    return total


def _step_patterns(plan: PathPlan) -> list[tuple[str, bool]]:
    patterns: list[tuple[str, bool]] = []
    for step in plan.steps:
        if step.axis == AXIS_CHILD:
            if isinstance(step.test, NameTest):
                label = "*" if step.test.is_wildcard else step.test.name
            elif isinstance(step.test, KindTest) and step.test.kind == "text":
                label = "#text"
            else:
                raise UnsupportedQueryError(
                    f"estimation of node test {step.test}", "estimator"
                )
        elif step.axis == AXIS_ATTRIBUTE:
            if not isinstance(step.test, NameTest):
                raise UnsupportedQueryError(
                    "estimation of non-name attribute tests", "estimator"
                )
            label = "@*" if step.test.is_wildcard else f"@{step.test.name}"
        else:
            raise UnsupportedQueryError(
                f"estimation of axis {step.axis}", "estimator"
            )
        patterns.append((label, step.from_descendant))
    return patterns


def _step_positions(
    steps: list[tuple[str, bool]], path: tuple[str, ...]
) -> list[int] | None:
    """Positions in *path* each step matched at (first viable match)."""

    def solve(step_index: int, path_index: int) -> list[int] | None:
        if step_index == len(steps):
            return [] if path_index == len(path) else None
        label, from_descendant = steps[step_index]
        candidates = (
            range(path_index, len(path)) if from_descendant
            else [path_index]
        )
        for position in candidates:
            if position >= len(path):
                return None
            at_position = path[position]
            if label == "*":
                if at_position.startswith(("@", "#")):
                    continue
            elif label == "@*":
                if not at_position.startswith("@"):
                    continue
            elif at_position != label:
                continue
            rest = solve(step_index + 1, position + 1)
            if rest is not None:
                return [position] + rest
        return None

    return solve(0, 0)


def _predicate_selectivity(
    summary: PathSummary,
    context: PathStatistics,
    predicate: PredicatePlan,
) -> float:
    if isinstance(predicate, BooleanPredicate):
        factors = [
            _predicate_selectivity(summary, context, p)
            for p in predicate.operands
        ]
        if predicate.op == "and":
            product = 1.0
            for factor in factors:
                product *= factor
            return product
        # or: inclusion-exclusion under independence.
        complement = 1.0
        for factor in factors:
            complement *= 1.0 - factor
        return 1.0 - complement
    if isinstance(predicate, NotPredicate):
        return 1.0 - _predicate_selectivity(
            summary, context, predicate.operand
        )
    if isinstance(predicate, PositionPredicate):
        if not context.count:
            return 0.0
        return min(1.0, context.parent_count / context.count)
    if isinstance(predicate, ExistsPredicate):
        target = _target_statistics(summary, context, predicate.path)
        if target is None or not context.count:
            return 0.0
        return min(1.0, target.count / context.count)
    if isinstance(predicate, StringMatchPredicate):
        target = _target_statistics(summary, context, predicate.path)
        if target is None:
            return 0.0
        return CONTAINS_SELECTIVITY
    if isinstance(predicate, ComparisonPredicate):
        target = _target_statistics(summary, context, predicate.path)
        if target is None or not context.count:
            return 0.0
        exists = min(1.0, target.count / context.count)
        if predicate.numeric and predicate.op not in ("=", "!="):
            return exists * target.range_selectivity(
                predicate.op, float(predicate.literal)
            )
        if predicate.op == "!=":
            return exists * (1.0 - target.equality_selectivity())
        return exists * target.equality_selectivity()
    raise UnsupportedQueryError(
        f"estimation of predicate {type(predicate).__name__}", "estimator"
    )


def _target_statistics(
    summary: PathSummary,
    context: PathStatistics,
    value_path: ValuePath,
) -> PathStatistics | None:
    path = context.path + tuple(value_path.element_names)
    if value_path.target == "attribute":
        path = path + (f"@{value_path.target_name}",)
    elif value_path.target == "text":
        path = path + ("#text",)
    elif not value_path.element_names:
        # Comparison against the context node's own content.
        return context
    return summary.get(path)
