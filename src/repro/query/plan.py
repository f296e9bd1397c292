"""Normalization of parsed XPath into translator-ready plans.

A :class:`PathPlan` is a list of :class:`StepPlan` items.  Normalization

* folds the desugared ``descendant-or-self::node()`` steps into a
  ``from_descendant`` flag on the following step (so ``//b`` becomes one
  *descendant* step instead of two),
* rewrites explicit ``descendant::``/``descendant-or-self::`` axes into
  the same flag,
* classifies each predicate into one of the closed set of
  :class:`PredicatePlan` variants the SQL translators implement.

Anything outside the translatable subset raises
:class:`~repro.errors.UnsupportedQueryError` *at planning time*, so a
scheme never emits SQL with silently wrong semantics.  (The in-memory
evaluator still supports the wider surface.)
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import UnsupportedQueryError
from repro.xpath.ast import (
    AnyKindTest,
    BinaryOp,
    Expr,
    FunctionCall,
    LocationPath,
    NameTest,
    NodeTest,
    NumberLiteral,
    KindTest,
    Step,
    StringLiteral,
)
from repro.xpath.parser import parse_xpath

# Axes a StepPlan may carry after normalization.
AXIS_CHILD = "child"
AXIS_ATTRIBUTE = "attribute"
AXIS_SELF = "self"
AXIS_PARENT = "parent"
# Extended axes: only the order-encoding schemes translate these (the
# interval mapping makes them range predicates, dewey makes them label
# comparisons); the other translators reject them.
AXIS_ANCESTOR = "ancestor"
AXIS_ANCESTOR_OR_SELF = "ancestor-or-self"
AXIS_FOLLOWING_SIBLING = "following-sibling"
AXIS_PRECEDING_SIBLING = "preceding-sibling"
AXIS_FOLLOWING = "following"
AXIS_PRECEDING = "preceding"

EXTENDED_AXES = frozenset({
    AXIS_ANCESTOR,
    AXIS_ANCESTOR_OR_SELF,
    AXIS_FOLLOWING_SIBLING,
    AXIS_PRECEDING_SIBLING,
    AXIS_FOLLOWING,
    AXIS_PRECEDING,
})

_COMPARISON_OPS = frozenset({"=", "!=", "<", "<=", ">", ">="})

_SWAPPED_OP = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}

# A position ranks among the siblings that pass the step's earlier
# predicates, so its sibling probe repeats all of them, earlier
# positions and their probes included: each one doubles the SQL.
_MAX_POSITIONS_PER_STEP = 3


# ---------------------------------------------------------------------------
# Value paths (the relative paths inside predicates)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ValuePath:
    """A restricted relative path usable inside a translatable predicate.

    ``element_names`` is a chain of child element steps; ``target`` says
    what is finally compared:

    * ``"content"``   — the (text-only) content of the last element, or of
      the context node itself when ``element_names`` is empty,
    * ``"attribute"`` — the value of attribute ``target_name``,
    * ``"text"``      — a text-node child's data.
    """

    element_names: tuple[str, ...] = ()
    target: str = "content"
    target_name: str | None = None

    def __str__(self) -> str:
        parts = list(self.element_names)
        if self.target == "attribute":
            parts.append(f"@{self.target_name}")
        elif self.target == "text":
            parts.append("text()")
        return "/".join(parts) if parts else "."


# ---------------------------------------------------------------------------
# Predicate plans
# ---------------------------------------------------------------------------


class PredicatePlan:
    """Base class of the closed predicate-plan hierarchy."""

    __slots__ = ()


@dataclass(frozen=True)
class PositionPredicate(PredicatePlan):
    """``[n]`` or ``[position() = n]`` — n is 1-based."""

    position: int


@dataclass(frozen=True)
class ComparisonPredicate(PredicatePlan):
    """``[path op literal]``; ``numeric`` selects CAST-to-REAL compare."""

    path: ValuePath
    op: str
    literal: str
    numeric: bool


@dataclass(frozen=True)
class ExistsPredicate(PredicatePlan):
    """``[path]`` — existential."""

    path: ValuePath


@dataclass(frozen=True)
class StringMatchPredicate(PredicatePlan):
    """``[contains(path, 'x')]`` or ``[starts-with(path, 'x')]``."""

    path: ValuePath
    function: str
    literal: str


@dataclass(frozen=True)
class BooleanPredicate(PredicatePlan):
    """``and`` / ``or`` over sub-predicates."""

    op: str
    operands: tuple[PredicatePlan, ...]


@dataclass(frozen=True)
class NotPredicate(PredicatePlan):
    operand: PredicatePlan


@dataclass(frozen=True)
class CountPredicate(PredicatePlan):
    """``[count(path) op n]`` — an aggregate comparison."""

    path: ValuePath
    op: str
    value: float


@dataclass(frozen=True)
class LastPredicate(PredicatePlan):
    """``[last()]`` — the last node among its matching siblings."""


@dataclass(frozen=True)
class ConstantPredicate(PredicatePlan):
    """A predicate with a statically known truth value.

    Produced when a *number-valued* expression appears in a boolean
    context: XPath treats ``[2]`` as positional, but ``[not(2)]`` as
    ``not(boolean(2))`` — a constant."""

    value: bool


# ---------------------------------------------------------------------------
# Step plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StepPlan:
    """One normalized location step.

    ``from_descendant`` widens the context to descendant-or-self before
    applying the axis — i.e. ``child + from_descendant ≡ descendant``.
    """

    axis: str
    test: NodeTest
    predicates: tuple[PredicatePlan, ...] = ()
    from_descendant: bool = False

    @property
    def is_descendant(self) -> bool:
        return self.axis == AXIS_CHILD and self.from_descendant


@dataclass(frozen=True)
class PathPlan:
    """A fully normalized, translatable absolute location path."""

    steps: tuple[StepPlan, ...]
    source: str = ""


def union_arms(expr: Expr) -> list[Expr]:
    """The arms of a top-level ``|`` expression, or ``[expr]`` when it
    is not a union."""
    if not (isinstance(expr, BinaryOp) and expr.op == "|"):
        return [expr]
    arms: list[Expr] = []
    stack = [expr.left, expr.right]
    while stack:
        node = stack.pop()
        if isinstance(node, BinaryOp) and node.op == "|":
            stack.extend((node.left, node.right))
        else:
            arms.append(node)
    return arms


def plan_path(xpath: str | Expr, scheme: str | None = None) -> PathPlan:
    """Parse (if needed) and normalize *xpath* — a string or an already
    parsed expression — into a :class:`PathPlan`.

    Raises :class:`UnsupportedQueryError` for anything the SQL translators
    do not implement: relative paths, reverse axes other than ``parent``,
    positional predicates on descendant steps, non-literal comparisons...
    """
    path = parse_xpath(xpath) if isinstance(xpath, str) else xpath
    source = str(xpath)
    if not isinstance(path, LocationPath):
        raise UnsupportedQueryError(
            f"not a location path: {xpath}", scheme
        )
    if not path.absolute:
        raise UnsupportedQueryError(
            "relative paths (queries must start at the root)", scheme
        )
    steps: list[StepPlan] = []
    pending_descendant = False
    for step in path.steps:
        if _is_descendant_or_self_node(step):
            pending_descendant = True
            continue
        steps.append(_plan_step(step, pending_descendant, scheme))
        pending_descendant = False
    if pending_descendant:
        raise UnsupportedQueryError(
            "path ending in descendant-or-self::node()", scheme
        )
    if not steps:
        raise UnsupportedQueryError("the bare root path '/'", scheme)
    return PathPlan(tuple(steps), source)


def _is_descendant_or_self_node(step: Step) -> bool:
    return (
        step.axis == "descendant-or-self"
        and isinstance(step.test, AnyKindTest)
        and not step.predicates
    )


def _plan_step(
    step: Step, from_descendant: bool, scheme: str | None
) -> StepPlan:
    axis = step.axis
    if axis == "descendant":
        axis, from_descendant = AXIS_CHILD, True
    elif axis == "descendant-or-self":
        axis, from_descendant = AXIS_SELF, True
    if axis not in (AXIS_CHILD, AXIS_ATTRIBUTE, AXIS_SELF, AXIS_PARENT) and (
        axis not in EXTENDED_AXES
    ):
        raise UnsupportedQueryError(f"axis '{step.axis}' in SQL", scheme)
    if axis == AXIS_PARENT and step.predicates:
        raise UnsupportedQueryError("predicates on parent steps", scheme)
    if axis in EXTENDED_AXES and from_descendant:
        raise UnsupportedQueryError(
            f"'//' composed with the {axis} axis", scheme
        )
    predicates = tuple(
        classify_predicate(p, scheme) for p in step.predicates
    )
    positions = sum(
        isinstance(p, (PositionPredicate, LastPredicate)) for p in predicates
    )
    if positions and (
        (from_descendant and axis == AXIS_CHILD) or axis in EXTENDED_AXES
    ):
        raise UnsupportedQueryError(
            "positional predicate on a descendant/extended-axis "
            "step (positions there are proximity-based)",
            scheme,
        )
    if positions > _MAX_POSITIONS_PER_STEP:
        raise UnsupportedQueryError(
            f"more than {_MAX_POSITIONS_PER_STEP} positional predicates "
            "on one step",
            scheme,
        )
    return StepPlan(axis, step.test, predicates, from_descendant)


# ---------------------------------------------------------------------------
# Predicate classification
# ---------------------------------------------------------------------------


def classify_predicate(
    expr: Expr, scheme: str | None = None, boolean_context: bool = False
) -> PredicatePlan:
    """Map a predicate expression onto the translatable plan hierarchy.

    ``boolean_context`` is True inside ``not``/``and``/``or``, where
    XPath boolean-converts number-valued operands instead of comparing
    them against position().
    """
    if isinstance(expr, NumberLiteral):
        if boolean_context:
            return ConstantPredicate(bool(expr.value))
        position = int(expr.value)
        if position != expr.value or position < 1:
            raise UnsupportedQueryError(
                f"non-integer position [{expr.value}]", scheme
            )
        return PositionPredicate(position)
    if isinstance(expr, LocationPath):
        return ExistsPredicate(_value_path(expr, scheme))
    if isinstance(expr, BinaryOp):
        return _classify_binary(expr, scheme)
    if isinstance(expr, FunctionCall):
        return _classify_function(expr, scheme, boolean_context)
    raise UnsupportedQueryError(
        f"predicate expression {type(expr).__name__}", scheme
    )


def _classify_binary(expr: BinaryOp, scheme: str | None) -> PredicatePlan:
    if expr.op in ("and", "or"):
        return BooleanPredicate(
            expr.op,
            (
                classify_predicate(expr.left, scheme, boolean_context=True),
                classify_predicate(expr.right, scheme,
                                   boolean_context=True),
            ),
        )
    if expr.op not in _COMPARISON_OPS:
        raise UnsupportedQueryError(f"operator '{expr.op}'", scheme)
    # position() = n
    if (
        isinstance(expr.left, FunctionCall)
        and expr.left.name == "position"
        and expr.op == "="
        and isinstance(expr.right, NumberLiteral)
    ):
        return classify_predicate(expr.right, scheme)
    # position() = last()
    if (
        isinstance(expr.left, FunctionCall)
        and expr.left.name == "position"
        and expr.op == "="
        and isinstance(expr.right, FunctionCall)
        and expr.right.name == "last"
    ):
        return LastPredicate()
    # count(path) op n
    if (
        isinstance(expr.left, FunctionCall)
        and expr.left.name == "count"
        and len(expr.left.args) == 1
        and isinstance(expr.left.args[0], LocationPath)
        and isinstance(expr.right, NumberLiteral)
    ):
        return CountPredicate(
            _value_path(expr.left.args[0], scheme),
            expr.op,
            expr.right.value,
        )
    left, op, right = expr.left, expr.op, expr.right
    if isinstance(left, (StringLiteral, NumberLiteral)) and isinstance(
        right, LocationPath
    ):
        left, right = right, left
        op = _SWAPPED_OP.get(op, op)
    if not isinstance(left, LocationPath) or not isinstance(
        right, (StringLiteral, NumberLiteral)
    ):
        raise UnsupportedQueryError(
            "comparison must be between a relative path and a literal",
            scheme,
        )
    path = _value_path(left, scheme)
    if isinstance(right, NumberLiteral):
        literal = (
            str(int(right.value))
            if right.value == int(right.value)
            else str(right.value)
        )
        return ComparisonPredicate(path, op, literal, numeric=True)
    if op not in ("=", "!="):
        # String relational comparison is number-coerced in XPath; the
        # translators only implement it for numeric literals.
        raise UnsupportedQueryError(
            f"relational '{op}' against a string literal", scheme
        )
    return ComparisonPredicate(path, op, right.value, numeric=False)


def _classify_function(
    expr: FunctionCall, scheme: str | None, boolean_context: bool = False
) -> PredicatePlan:
    if expr.name == "not" and len(expr.args) == 1:
        return NotPredicate(
            classify_predicate(expr.args[0], scheme, boolean_context=True)
        )
    if expr.name == "last" and not expr.args:
        if boolean_context:
            # boolean(last()) is always true: positions start at 1.
            return ConstantPredicate(True)
        return LastPredicate()
    if expr.name in ("true", "false") and not expr.args:
        return ConstantPredicate(expr.name == "true")
    if expr.name in ("contains", "starts-with") and len(expr.args) == 2:
        target, literal = expr.args
        if not isinstance(literal, StringLiteral):
            raise UnsupportedQueryError(
                f"{expr.name}() needs a string literal", scheme
            )
        if isinstance(target, LocationPath):
            path = _value_path(target, scheme)
        else:
            raise UnsupportedQueryError(
                f"{expr.name}() target must be a relative path or '.'",
                scheme,
            )
        return StringMatchPredicate(path, expr.name, literal.value)
    raise UnsupportedQueryError(f"function {expr.name}()", scheme)


def _value_path(path: LocationPath, scheme: str | None) -> ValuePath:
    """Validate and convert a predicate's relative path."""
    if path.absolute:
        raise UnsupportedQueryError(
            "absolute paths inside predicates", scheme
        )
    names: list[str] = []
    steps = list(path.steps)
    for i, step in enumerate(steps):
        is_last = i == len(steps) - 1
        if step.predicates:
            raise UnsupportedQueryError(
                "nested predicates inside predicates", scheme
            )
        if step.axis == "self" and isinstance(step.test, AnyKindTest):
            if len(steps) == 1:
                return ValuePath((), "content", None)
            raise UnsupportedQueryError("'.' mid-path in predicate", scheme)
        if step.axis == "attribute":
            if not is_last or not isinstance(step.test, NameTest):
                raise UnsupportedQueryError(
                    "attribute step must end the predicate path", scheme
                )
            if step.test.is_wildcard:
                raise UnsupportedQueryError(
                    "@* inside predicates", scheme
                )
            return ValuePath(tuple(names), "attribute", step.test.name)
        if step.axis == "child":
            if isinstance(step.test, KindTest) and step.test.kind == "text":
                if not is_last:
                    raise UnsupportedQueryError(
                        "text() mid-path in predicate", scheme
                    )
                return ValuePath(tuple(names), "text", None)
            if isinstance(step.test, NameTest) and not step.test.is_wildcard:
                names.append(step.test.name)
                continue
            raise UnsupportedQueryError(
                "predicate paths support named child steps only", scheme
            )
        raise UnsupportedQueryError(
            f"axis '{step.axis}' inside predicates", scheme
        )
    return ValuePath(tuple(names), "content", None)
