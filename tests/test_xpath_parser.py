"""Unit tests for the XPath lexer and parser."""

import pytest

from repro.errors import XPathSyntaxError
from repro.xpath.ast import (
    AnyKindTest,
    BinaryOp,
    FilterExpr,
    FunctionCall,
    LocationPath,
    NameTest,
    Negate,
    NumberLiteral,
    KindTest,
    Step,
    StringLiteral,
)
from repro.xpath.lexer import tokenize
from repro.xpath.parser import parse_path, parse_xpath
from repro.xpath.tokens import TokenKind


class TestLexer:
    def test_simple_path_tokens(self):
        kinds = [t.kind for t in tokenize("/a/b")]
        assert kinds == [
            TokenKind.SLASH,
            TokenKind.NAME,
            TokenKind.SLASH,
            TokenKind.NAME,
            TokenKind.END,
        ]

    def test_double_slash(self):
        kinds = [t.kind for t in tokenize("//a")]
        assert kinds[0] == TokenKind.DOUBLE_SLASH

    def test_two_char_operators(self):
        values = [t.value for t in tokenize("a!=b <= >= ::")][:-1]
        assert "!=" in values and "<=" in values and ">=" in values

    def test_number_forms(self):
        tokens = tokenize("3 3.14 .5")
        values = [t.value for t in tokens if t.kind == TokenKind.NUMBER]
        assert values == ["3", "3.14", ".5"]

    def test_string_literals_both_quotes(self):
        tokens = tokenize("""'one' "two" """)
        values = [t.value for t in tokens if t.kind == TokenKind.LITERAL]
        assert values == ["one", "two"]

    def test_unterminated_literal_rejected(self):
        with pytest.raises(XPathSyntaxError, match="unterminated"):
            tokenize("'oops")

    def test_hyphenated_names(self):
        tokens = tokenize("descendant-or-self::node()")
        assert tokens[0].value == "descendant-or-self"

    def test_unexpected_character_rejected(self):
        with pytest.raises(XPathSyntaxError, match="unexpected character"):
            tokenize("a # b")

    def test_position_recorded(self):
        tokens = tokenize("  abc")
        assert tokens[0].position == 2


class TestPathParsing:
    def test_absolute_child_path(self):
        path = parse_path("/bib/book/title")
        assert path.absolute
        assert [s.axis for s in path.steps] == ["child"] * 3
        assert [s.test.name for s in path.steps] == ["bib", "book", "title"]

    def test_relative_path(self):
        path = parse_path("book/title")
        assert not path.absolute
        assert len(path.steps) == 2

    def test_root_only(self):
        path = parse_path("/")
        assert path.absolute
        assert path.steps == ()

    def test_double_slash_desugars(self):
        path = parse_path("//section")
        assert path.absolute
        assert path.steps[0].axis == "descendant-or-self"
        assert isinstance(path.steps[0].test, AnyKindTest)
        assert path.steps[1] == Step("child", NameTest("section"))

    def test_inner_double_slash(self):
        path = parse_path("/a//b")
        assert [s.axis for s in path.steps] == [
            "child", "descendant-or-self", "child",
        ]

    def test_attribute_abbreviation(self):
        path = parse_path("/a/@id")
        assert path.steps[1].axis == "attribute"
        assert path.steps[1].test.name == "id"

    def test_dot_and_dotdot(self):
        path = parse_path("./../x")
        assert path.steps[0].axis == "self"
        assert path.steps[1].axis == "parent"
        assert path.steps[2].test.name == "x"

    def test_explicit_axes(self):
        path = parse_path("ancestor::a/following-sibling::b")
        assert path.steps[0].axis == "ancestor"
        assert path.steps[1].axis == "following-sibling"

    def test_unknown_axis_rejected(self):
        with pytest.raises(XPathSyntaxError, match="unknown axis"):
            parse_path("sideways::a")

    def test_wildcard(self):
        path = parse_path("/a/*")
        assert path.steps[1].test.is_wildcard

    def test_kind_tests(self):
        path = parse_path("/a/text()")
        assert path.steps[1].test == KindTest("text")
        path = parse_path("/a/node()")
        assert isinstance(path.steps[1].test, AnyKindTest)
        path = parse_path("/a/comment()")
        assert path.steps[1].test == KindTest("comment")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(XPathSyntaxError, match="trailing"):
            parse_xpath("/a/b )")


class TestPredicates:
    def test_positional_predicate(self):
        path = parse_path("/a/b[3]")
        (pred,) = path.steps[1].predicates
        assert pred == NumberLiteral(3.0)

    def test_value_predicate(self):
        path = parse_path("/a/b[c = 'x']")
        (pred,) = path.steps[1].predicates
        assert isinstance(pred, BinaryOp)
        assert pred.op == "="
        assert isinstance(pred.left, LocationPath)
        assert pred.right == StringLiteral("x")

    def test_attribute_predicate(self):
        path = parse_path("/book[@year > 2000]")
        (pred,) = path.steps[0].predicates
        assert pred.left.steps[0].axis == "attribute"

    def test_multiple_predicates(self):
        path = parse_path("/a/b[@x][2]")
        assert len(path.steps[1].predicates) == 2

    def test_nested_path_in_predicate(self):
        path = parse_path("/a[b/c = 1]")
        (pred,) = path.steps[0].predicates
        assert len(pred.left.steps) == 2

    def test_function_in_predicate(self):
        path = parse_path("/a[contains(., 'x')]")
        (pred,) = path.steps[0].predicates
        assert isinstance(pred, FunctionCall)
        assert pred.name == "contains"
        assert len(pred.args) == 2

    def test_and_or_predicates(self):
        path = parse_path("/a[b = 1 and c = 2 or d]")
        (pred,) = path.steps[0].predicates
        assert pred.op == "or"
        assert pred.left.op == "and"


class TestExpressions:
    def test_precedence_arith(self):
        expr = parse_xpath("1 + 2 * 3")
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_div_mod_operators(self):
        expr = parse_xpath("10 div 2 mod 3")
        assert expr.op == "mod"
        assert expr.left.op == "div"

    def test_div_as_element_name(self):
        # In path position 'div' is an element name, not an operator.
        path = parse_path("/html/div")
        assert path.steps[1].test.name == "div"

    def test_star_as_multiply_vs_wildcard(self):
        expr = parse_xpath("2 * 3")
        assert isinstance(expr, BinaryOp) and expr.op == "*"
        path = parse_path("*")
        assert path.steps[0].test.is_wildcard

    def test_unary_minus(self):
        expr = parse_xpath("-5")
        assert isinstance(expr, Negate)

    def test_union(self):
        expr = parse_xpath("/a | /b")
        assert expr.op == "|"

    def test_comparison_chain(self):
        expr = parse_xpath("1 < 2 = true()")
        assert expr.op == "="
        assert expr.left.op == "<"

    def test_parenthesized_filter_with_predicate(self):
        expr = parse_xpath("(//a)[1]")
        assert isinstance(expr, FilterExpr)
        assert expr.predicates == (NumberLiteral(1.0),)

    def test_filter_with_trailing_path(self):
        expr = parse_xpath("(//a)[1]/b")
        assert isinstance(expr, FilterExpr)
        assert expr.steps[-1].test.name == "b"

    def test_function_call_no_args(self):
        expr = parse_xpath("true()")
        assert expr == FunctionCall("true")

    def test_parse_path_rejects_non_path(self):
        with pytest.raises(XPathSyntaxError, match="location path"):
            parse_path("1 + 2")


class TestRoundtripStr:
    """str(parse(x)) must re-parse to the same AST."""

    @pytest.mark.parametrize(
        "expression",
        [
            "/bib/book/title",
            "//section//title",
            "/a/b[@id = 'x']",
            "/a/b[3]",
            "book/author",
            "/a//b[c = 1][2]",
            "/",
            ".",
            "/a/@href",
            "/a/text()",
            "ancestor::x",
        ],
    )
    def test_roundtrip(self, expression):
        first = parse_xpath(expression)
        again = parse_xpath(str(first))
        assert first == again


class TestParseMemo:
    """One parse per XPath string per process."""

    def test_a_repeated_parse_returns_the_same_ast(self, tokenized):
        first = parse_xpath("/site/people/person[@id = 'person0']/name")
        assert parse_xpath("/site/people/person[@id = 'person0']/name") is first
        assert parse_path("/site/people/person[@id = 'person0']/name") is first
        assert tokenized == ["/site/people/person[@id = 'person0']/name"]

    def test_a_syntax_error_is_raised_every_time_and_never_cached(
        self, tokenized
    ):
        for _ in range(3):
            with pytest.raises(XPathSyntaxError):
                parse_xpath("/a/b[")
        assert tokenized == ["/a/b["] * 3
        assert parse_xpath.cache_info().currsize == 0

    def test_threads_share_the_memo(self):
        # The gateway's loop and the executor's threads parse through the
        # one memo at once: every result equals a fresh parse, and the
        # memo stays within its bound.
        import sys
        import threading

        from repro.xpath.parser import XPATH_PARSE_CACHE, _Parser

        def fresh(text):
            parser = _Parser(tokenize(text))
            expr = parser.parse_expr()
            parser.expect_end()
            return expr

        texts = [f"/a/b{i % 300}[@id = '{i}']/c" for i in range(600)]
        expected = {text: fresh(text) for text in texts}
        wrong: list[str] = []

        def worker(offset):
            for text in texts[offset:] + texts[:offset]:
                if parse_xpath(text) != expected[text]:
                    wrong.append(text)

        parse_xpath.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=worker, args=(n * 75,))
                for n in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert parse_xpath.cache_info().currsize <= XPATH_PARSE_CACHE
