"""Recursive-descent parser for the XPath subset.

Grammar (XPath 1.0, minus variables and a few rarely used constructs):

.. code-block:: text

    Expr        := OrExpr
    OrExpr      := AndExpr ('or' AndExpr)*
    AndExpr     := EqExpr ('and' EqExpr)*
    EqExpr      := RelExpr (('=' | '!=') RelExpr)*
    RelExpr     := AddExpr (('<' | '<=' | '>' | '>=') AddExpr)*
    AddExpr     := MulExpr (('+' | '-') MulExpr)*
    MulExpr     := UnaryExpr (('*' | 'div' | 'mod') UnaryExpr)*
    UnaryExpr   := '-' UnaryExpr | UnionExpr
    UnionExpr   := PathExpr ('|' PathExpr)*
    PathExpr    := LocationPath
                 | FilterExpr (('/' | '//') RelativeLocationPath)?
    FilterExpr  := Primary Predicate*
    Primary     := '(' Expr ')' | Literal | Number | FunctionCall
    LocationPath:= '/' RelativeLocationPath?
                 | '//' RelativeLocationPath
                 | RelativeLocationPath
    RelativeLocationPath := Step (('/' | '//') Step)*
    Step        := '.' | '..'
                 | AxisSpecifier? NodeTest Predicate*
    AxisSpecifier := AxisName '::' | '@'
    NodeTest    := Name | '*' | 'node()' | 'text()' | 'comment()'
                 | 'processing-instruction()'

``//`` desugars to an explicit ``descendant-or-self::node()`` step; ``.``
to ``self::node()``; ``..`` to ``parent::node()``; ``@name`` to
``attribute::name`` — so downstream consumers see a fully explicit AST.

The classic ``*`` / operator-name ambiguity is resolved with the rule from
the XPath spec (section 3.7): a ``*`` or a name is an operator exactly when
the preceding token is an operand terminator.
"""

from __future__ import annotations

from functools import lru_cache

from repro.errors import XPathSyntaxError
from repro.xpath.ast import (
    AnyKindTest,
    BinaryOp,
    Expr,
    FilterExpr,
    FunctionCall,
    LocationPath,
    NameTest,
    Negate,
    NodeTest,
    NumberLiteral,
    KindTest,
    Step,
    StringLiteral,
)
from repro.xpath.lexer import tokenize
from repro.xpath.tokens import (
    AXIS_NAMES,
    NODE_TYPE_NAMES,
    Token,
    TokenKind,
)

_DESCENDANT_STEP = Step("descendant-or-self", AnyKindTest())

#: Distinct XPath strings whose AST the process remembers.
XPATH_PARSE_CACHE = 256


@lru_cache(maxsize=XPATH_PARSE_CACHE)
def parse_xpath(expression: str) -> Expr:
    """Parse *expression* and return its AST root.

    One parse per string per process: the result is memoized (AST nodes
    are frozen, so callers share them), and the gateway's early syntax
    check, the translators, the planner, the analyzer and the evaluator
    all read the one memo.  A syntax error raises and so is never
    cached."""
    parser = _Parser(tokenize(expression))
    expr = parser.parse_expr()
    parser.expect_end()
    return expr


def parse_path(expression: str) -> LocationPath:
    """Parse *expression*, requiring it to be a plain location path."""
    expr = parse_xpath(expression)
    if not isinstance(expr, LocationPath):
        raise XPathSyntaxError(
            f"expected a location path, got {type(expr).__name__}", 0
        )
    return expr


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.index = 0

    # -- token utilities --------------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.index]

    def advance(self) -> Token:
        token = self.tokens[self.index]
        if token.kind is not TokenKind.END:
            self.index += 1
        return token

    def match(self, kind: TokenKind, value: str | None = None) -> bool:
        token = self.current
        if token.kind is kind and (value is None or token.value == value):
            self.advance()
            return True
        return False

    def expect(self, kind: TokenKind, context: str) -> Token:
        token = self.current
        if token.kind is not kind:
            raise XPathSyntaxError(
                f"expected {kind.value!r} in {context}, "
                f"got {token.value or 'end of expression'!r}",
                token.position,
            )
        return self.advance()

    def expect_end(self) -> None:
        token = self.current
        if token.kind is not TokenKind.END:
            raise XPathSyntaxError(
                f"unexpected trailing token {token.value!r}", token.position
            )

    # -- expression levels --------------------------------------------------------

    def parse_expr(self) -> Expr:
        return self._parse_or()

    def _parse_or(self) -> Expr:
        left = self._parse_and()
        while self._at_operator_name("or"):
            self.advance()
            left = BinaryOp("or", left, self._parse_and())
        return left

    def _parse_and(self) -> Expr:
        left = self._parse_equality()
        while self._at_operator_name("and"):
            self.advance()
            left = BinaryOp("and", left, self._parse_equality())
        return left

    def _parse_equality(self) -> Expr:
        left = self._parse_relational()
        while self.current.kind in (TokenKind.EQ, TokenKind.NEQ):
            op = self.advance().value
            left = BinaryOp(op, left, self._parse_relational())
        return left

    def _parse_relational(self) -> Expr:
        left = self._parse_additive()
        while self.current.kind in (
            TokenKind.LT,
            TokenKind.LE,
            TokenKind.GT,
            TokenKind.GE,
        ):
            op = self.advance().value
            left = BinaryOp(op, left, self._parse_additive())
        return left

    def _parse_additive(self) -> Expr:
        left = self._parse_multiplicative()
        while self.current.kind in (TokenKind.PLUS, TokenKind.MINUS):
            op = self.advance().value
            left = BinaryOp(op, left, self._parse_multiplicative())
        return left

    def _parse_multiplicative(self) -> Expr:
        left = self._parse_unary()
        while True:
            if self.current.kind is TokenKind.STAR:
                self.advance()
                left = BinaryOp("*", left, self._parse_unary())
            elif self._at_operator_name("div") or self._at_operator_name("mod"):
                op = self.advance().value
                left = BinaryOp(op, left, self._parse_unary())
            else:
                return left

    def _at_operator_name(self, name: str) -> bool:
        """True if the current NAME token is the operator *name*.

        By the spec's rule the name is an operator when it sits in operator
        position — i.e. the *next* construct would otherwise start a new
        operand, which our recursive structure guarantees; we additionally
        require that it is not followed by ``(`` or ``::`` (function call or
        axis) to keep paths like ``div/mod`` meaning element names.
        """
        token = self.current
        if token.kind is not TokenKind.NAME or token.value != name:
            return False
        following = self.tokens[self.index + 1]
        return following.kind not in (
            TokenKind.LPAREN,
            TokenKind.AXIS_SEP,
            TokenKind.SLASH,
            TokenKind.DOUBLE_SLASH,
            TokenKind.LBRACKET,
        )

    def _parse_unary(self) -> Expr:
        if self.match(TokenKind.MINUS):
            return Negate(self._parse_unary())
        return self._parse_union()

    def _parse_union(self) -> Expr:
        left = self._parse_path_expr()
        while self.match(TokenKind.PIPE):
            left = BinaryOp("|", left, self._parse_path_expr())
        return left

    # -- paths ------------------------------------------------------------------

    def _parse_path_expr(self) -> Expr:
        token = self.current
        if token.kind in (TokenKind.LITERAL, TokenKind.NUMBER):
            return self._parse_filter_expr()
        if token.kind is TokenKind.LPAREN:
            return self._parse_filter_expr()
        if token.kind is TokenKind.NAME and self._is_function_call():
            return self._parse_filter_expr()
        return self._parse_location_path()

    def _is_function_call(self) -> bool:
        token = self.current
        following = self.tokens[self.index + 1]
        return (
            following.kind is TokenKind.LPAREN
            and token.value not in NODE_TYPE_NAMES
        )

    def _parse_filter_expr(self) -> Expr:
        primary = self._parse_primary()
        predicates: list[Expr] = []
        while self.current.kind is TokenKind.LBRACKET:
            predicates.append(self._parse_predicate())
        steps: list[Step] = []
        while True:
            if self.match(TokenKind.DOUBLE_SLASH):
                steps.append(_DESCENDANT_STEP)
                steps.append(self._parse_step())
            elif self.match(TokenKind.SLASH):
                steps.append(self._parse_step())
            else:
                break
        if not predicates and not steps:
            return primary
        return FilterExpr(primary, tuple(predicates), tuple(steps))

    def _parse_primary(self) -> Expr:
        token = self.current
        if token.kind is TokenKind.LITERAL:
            self.advance()
            return StringLiteral(token.value)
        if token.kind is TokenKind.NUMBER:
            self.advance()
            return NumberLiteral(float(token.value))
        if token.kind is TokenKind.LPAREN:
            self.advance()
            inner = self.parse_expr()
            self.expect(TokenKind.RPAREN, "parenthesized expression")
            return inner
        if token.kind is TokenKind.NAME:
            name = self.advance().value
            self.expect(TokenKind.LPAREN, f"function call {name}")
            args: list[Expr] = []
            if self.current.kind is not TokenKind.RPAREN:
                args.append(self.parse_expr())
                while self.match(TokenKind.COMMA):
                    args.append(self.parse_expr())
            self.expect(TokenKind.RPAREN, f"function call {name}")
            return FunctionCall(name, tuple(args))
        raise XPathSyntaxError(
            f"unexpected token {token.value!r}", token.position
        )

    def _parse_location_path(self) -> LocationPath:
        steps: list[Step] = []
        if self.match(TokenKind.DOUBLE_SLASH):
            absolute = True
            steps.append(_DESCENDANT_STEP)
            steps.append(self._parse_step())
        elif self.match(TokenKind.SLASH):
            absolute = True
            if self._at_step_start():
                steps.append(self._parse_step())
        else:
            absolute = False
            steps.append(self._parse_step())
        while True:
            if self.match(TokenKind.DOUBLE_SLASH):
                steps.append(_DESCENDANT_STEP)
                steps.append(self._parse_step())
            elif self.match(TokenKind.SLASH):
                steps.append(self._parse_step())
            else:
                return LocationPath(absolute, tuple(steps))

    def _at_step_start(self) -> bool:
        return self.current.kind in (
            TokenKind.NAME,
            TokenKind.STAR,
            TokenKind.AT,
            TokenKind.DOT,
            TokenKind.DOTDOT,
        )

    def _parse_step(self) -> Step:
        token = self.current
        if self.match(TokenKind.DOT):
            return Step("self", AnyKindTest())
        if self.match(TokenKind.DOTDOT):
            return Step("parent", AnyKindTest())
        if self.match(TokenKind.AT):
            axis = "attribute"
        elif (
            token.kind is TokenKind.NAME
            and self.tokens[self.index + 1].kind is TokenKind.AXIS_SEP
        ):
            if token.value not in AXIS_NAMES:
                raise XPathSyntaxError(
                    f"unknown axis {token.value!r}", token.position
                )
            axis = token.value
            self.advance()  # axis name
            self.advance()  # '::'
        else:
            axis = "child"
        test = self._parse_node_test()
        predicates: list[Expr] = []
        while self.current.kind is TokenKind.LBRACKET:
            predicates.append(self._parse_predicate())
        return Step(axis, test, tuple(predicates))

    def _parse_node_test(self) -> NodeTest:
        token = self.current
        if self.match(TokenKind.STAR):
            return NameTest("*")
        if token.kind is TokenKind.NAME:
            name = self.advance().value
            if (
                name in NODE_TYPE_NAMES
                and self.current.kind is TokenKind.LPAREN
            ):
                self.advance()
                self.expect(TokenKind.RPAREN, f"node test {name}()")
                if name == "node":
                    return AnyKindTest()
                return KindTest(name)
            return NameTest(name)
        raise XPathSyntaxError(
            f"expected node test, got {token.value or 'end of expression'!r}",
            token.position,
        )

    def _parse_predicate(self) -> Expr:
        self.expect(TokenKind.LBRACKET, "predicate")
        expr = self.parse_expr()
        self.expect(TokenKind.RBRACKET, "predicate")
        return expr
