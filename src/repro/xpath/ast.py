"""Abstract syntax tree for the XPath subset.

The AST is deliberately small and regular so that both the in-memory
evaluator and the per-scheme SQL translators can pattern-match on it.  All
nodes are frozen dataclasses: expression objects are safely shareable and
hashable (translator caches key on them).
"""

from __future__ import annotations

from dataclasses import dataclass, field


class Expr:
    """Base class of all expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class StringLiteral(Expr):
    """A quoted string, e.g. ``'Springer'``."""

    value: str

    def __str__(self) -> str:
        quote = '"' if "'" in self.value else "'"
        return f"{quote}{self.value}{quote}"


@dataclass(frozen=True)
class NumberLiteral(Expr):
    """A numeric literal, e.g. ``1999`` or ``1.5``."""

    value: float

    def __str__(self) -> str:
        if self.value == int(self.value):
            return str(int(self.value))
        return str(self.value)


@dataclass(frozen=True)
class BinaryOp(Expr):
    """A binary operation: ``or and = != < <= > >= + - * div mod |``."""

    op: str
    left: Expr
    right: Expr

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class Negate(Expr):
    """Unary minus."""

    operand: Expr

    def __str__(self) -> str:
        return f"-{self.operand}"


@dataclass(frozen=True)
class FunctionCall(Expr):
    """A core-library function call, e.g. ``contains(., 'x')``."""

    name: str
    args: tuple[Expr, ...] = ()

    def __str__(self) -> str:
        return f"{self.name}({', '.join(str(a) for a in self.args)})"


# -- node tests ---------------------------------------------------------------


class NodeTest:
    """Base class of node tests within a step."""

    __slots__ = ()


@dataclass(frozen=True)
class NameTest(NodeTest):
    """Match elements/attributes by name; ``name`` of ``*`` matches all."""

    name: str

    @property
    def is_wildcard(self) -> bool:
        return self.name == "*"

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class KindTest(NodeTest):
    """Match by node kind: ``text()``, ``comment()``,
    ``processing-instruction()``."""

    kind: str  # 'text' | 'comment' | 'processing-instruction'

    def __str__(self) -> str:
        return f"{self.kind}()"


@dataclass(frozen=True)
class AnyKindTest(NodeTest):
    """``node()`` — matches any principal-axis node."""

    def __str__(self) -> str:
        return "node()"


# -- paths ----------------------------------------------------------------------


@dataclass(frozen=True)
class Step(Expr):
    """One location step: ``axis::test[pred1][pred2]``."""

    axis: str
    test: NodeTest
    predicates: tuple[Expr, ...] = ()

    def __str__(self) -> str:
        preds = "".join(f"[{p}]" for p in self.predicates)
        if self.axis == "child":
            return f"{self.test}{preds}"
        if self.axis == "attribute":
            return f"@{self.test}{preds}"
        return f"{self.axis}::{self.test}{preds}"


@dataclass(frozen=True)
class LocationPath(Expr):
    """A location path: optionally absolute, a sequence of steps.

    The abbreviation ``//`` is desugared by the parser into an explicit
    ``descendant-or-self::node()`` step, so translators never see it.
    """

    absolute: bool
    steps: tuple[Step, ...] = field(default_factory=tuple)

    def __str__(self) -> str:
        parts: list[str] = []
        steps = list(self.steps)
        i = 0
        first = True
        while i < len(steps):
            step = steps[i]
            # Re-sugar descendant-or-self::node() followed by a step as //.
            if (
                step.axis == "descendant-or-self"
                and isinstance(step.test, AnyKindTest)
                and not step.predicates
                and i + 1 < len(steps)
            ):
                parts.append("//" + str(steps[i + 1]))
                i += 2
                first = False
                continue
            if first and not self.absolute:
                parts.append(str(step))
            else:
                parts.append("/" + str(step))
            first = False
            i += 1
        text = "".join(parts)
        if not text:
            return "/" if self.absolute else "."
        return text


@dataclass(frozen=True)
class FilterExpr(Expr):
    """A primary expression with predicates and an optional trailing path,
    e.g. ``(//a)[1]/b``.  Evaluator-only (not SQL-translatable)."""

    primary: Expr
    predicates: tuple[Expr, ...] = ()
    steps: tuple[Step, ...] = ()

    def __str__(self) -> str:
        preds = "".join(f"[{p}]" for p in self.predicates)
        tail = "".join("/" + str(s) for s in self.steps)
        return f"({self.primary}){preds}{tail}"


def path_of(*names: str, absolute: bool = True) -> LocationPath:
    """Convenience constructor: ``path_of('a', 'b')`` == ``/a/b``."""
    steps = tuple(Step("child", NameTest(n)) for n in names)
    return LocationPath(absolute=absolute, steps=steps)
