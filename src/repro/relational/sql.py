"""A typed SQL AST for the SELECT statements the translators emit.

The XPath→SQL translators build queries as objects rather than strings so
that (a) user values are always bound parameters, never interpolated, and
(b) the plan-complexity experiment (E8) can *count joins* structurally
instead of parsing SQL text.  One render pass yields all three: the SQL
text, the parameters and a :class:`Rendering`'s join count and table
names, so nothing walks a statement a second time.

Only the SELECT surface the translators need is modelled: column refs,
parameters, comparison/boolean operators, LIKE as GLOB, IN, EXISTS subqueries,
bounded counts, scalar functions, joins (inner/left), DISTINCT, ORDER BY,
LIMIT.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import XmlRelError
from repro.relational.schema import quote_identifier


class Rendering(list):
    """One render pass: the bound parameters in render order (the list
    itself), plus what the pass saw on the way — every table a ``FROM``
    or ``JOIN`` item names at any depth (CTE names included) and the
    join count, the E8 plan-complexity metric: one per ``JOIN`` clause,
    plus one per subquery (its ``FROM`` costs a join at execution time)
    and that subquery's own joins."""

    __slots__ = ("tables", "joins")

    def __init__(self) -> None:
        super().__init__()
        self.tables: set[str] = set()
        self.joins = 0


def _subquery(query: "Select", params: list) -> str:
    """*query* rendered inside an expression: its parameters, tables and
    joins (plus one for its ``FROM``) go to the enclosing render."""
    if isinstance(params, Rendering):
        params.joins += 1
        return query.render_into(params)
    sql, sub_params = query.render()  # an expression rendered on its own
    params.extend(sub_params)
    return sql


class SqlExpr:
    """Base class of scalar/boolean SQL expressions."""

    __slots__ = ()

    def render(self, params: list) -> str:
        raise NotImplementedError

    # Convenience builders so translators read naturally.

    def eq(self, other: "SqlExpr") -> "Comparison":
        return Comparison("=", self, other)

    def ne(self, other: "SqlExpr") -> "Comparison":
        return Comparison("<>", self, other)

    def lt(self, other: "SqlExpr") -> "Comparison":
        return Comparison("<", self, other)

    def le(self, other: "SqlExpr") -> "Comparison":
        return Comparison("<=", self, other)

    def gt(self, other: "SqlExpr") -> "Comparison":
        return Comparison(">", self, other)

    def ge(self, other: "SqlExpr") -> "Comparison":
        return Comparison(">=", self, other)


@dataclass(frozen=True)
class Col(SqlExpr):
    """A column reference ``alias.name`` (alias optional)."""

    name: str
    table: str | None = None

    def render(self, params: list) -> str:
        col = quote_identifier(self.name)
        if self.table is None:
            return col
        return f"{quote_identifier(self.table)}.{col}"


@dataclass(frozen=True)
class Param(SqlExpr):
    """A bound parameter (rendered as ``?``)."""

    value: object

    def render(self, params: list) -> str:
        params.append(self.value)
        return "?"


class _DocIdSentinel:
    """The placeholder value :class:`DocParam` leaves in a rendered
    parameter list.  :func:`bind_doc_id` swaps it for a concrete id."""

    __slots__ = ()

    def __repr__(self) -> str:  # readable in cached plan dumps
        return "<doc_id>"


#: Singleton placeholder for the document id in rendered parameter lists.
DOC_ID = _DocIdSentinel()


@dataclass(frozen=True)
class DocParam(SqlExpr):
    """The document-id bind parameter.

    Translators emit ``DocParam()`` instead of ``Param(doc_id)`` so a
    rendered ``(sql, params)`` pair is a reusable *template*: the SQL text
    and parameter shape depend only on the XPath (and scheme), never on
    which document is queried.  That is what makes the translation cache
    sound — one cached plan serves every document.  The rendered
    parameter slot holds the :data:`DOC_ID` sentinel until
    :func:`bind_doc_id` substitutes the real id at execution time.
    """

    def render(self, params: list) -> str:
        params.append(DOC_ID)
        return "?"


def bind_doc_id(params: list | tuple, doc_id: int) -> list:
    """A copy of *params* with every :data:`DOC_ID` placeholder replaced
    by the concrete *doc_id*."""
    return [doc_id if p is DOC_ID else p for p in params]


@dataclass(frozen=True)
class Raw(SqlExpr):
    """A raw SQL fragment — for constants like ``1`` or ``NULL``.

    Never used with user-supplied values (those go through :class:`Param`).
    """

    sql: str

    def render(self, params: list) -> str:
        return self.sql


@dataclass(frozen=True)
class Comparison(SqlExpr):
    op: str
    left: SqlExpr
    right: SqlExpr

    def render(self, params: list) -> str:
        return f"{self.left.render(params)} {self.op} {self.right.render(params)}"


@dataclass(frozen=True)
class Arith(SqlExpr):
    """Arithmetic: ``left op right`` with parentheses."""

    op: str
    left: SqlExpr
    right: SqlExpr

    def render(self, params: list) -> str:
        return f"({self.left.render(params)} {self.op} {self.right.render(params)})"


@dataclass(frozen=True)
class And(SqlExpr):
    operands: tuple[SqlExpr, ...]

    def render(self, params: list) -> str:
        if not self.operands:
            return "1"
        if len(self.operands) == 1:
            return self.operands[0].render(params)
        inner = " AND ".join(op.render(params) for op in self.operands)
        return f"({inner})"


@dataclass(frozen=True)
class Or(SqlExpr):
    operands: tuple[SqlExpr, ...]

    def render(self, params: list) -> str:
        if not self.operands:
            return "0"
        if len(self.operands) == 1:
            return self.operands[0].render(params)
        inner = " OR ".join(op.render(params) for op in self.operands)
        return f"({inner})"


@dataclass(frozen=True)
class Not(SqlExpr):
    operand: SqlExpr

    def render(self, params: list) -> str:
        return f"NOT ({self.operand.render(params)})"


#: GLOB metacharacters as one-character classes matching only themselves.
_GLOB_LITERALS = {"*": "[*]", "?": "[?]", "[": "[[]"}


def glob_pattern(like: str) -> str:
    """The GLOB spelling of a LIKE pattern with ``\\`` escapes: ``%`` and
    ``_`` become ``*`` and ``?``, an escaped character is itself, and
    GLOB's own metacharacters are bracketed."""
    out = []
    chars = iter(like)
    for char in chars:
        if char == "\\":
            char = next(chars, char)
        elif char in "%_":
            out.append("*" if char == "%" else "?")
            continue
        out.append(_GLOB_LITERALS.get(char, char))
    return "".join(out)


@dataclass(frozen=True)
class Like(SqlExpr):
    """A LIKE-pattern match that respects case, as XPath and XML names
    do (sqlite's ``LIKE`` folds ASCII case): ``expr GLOB ?``, the
    pattern translated by :func:`glob_pattern`, always a parameter."""

    operand: SqlExpr
    pattern: str

    def render(self, params: list) -> str:
        left = self.operand.render(params)
        params.append(glob_pattern(self.pattern))
        return f"{left} GLOB ?"


@dataclass(frozen=True)
class InList(SqlExpr):
    operand: SqlExpr
    values: tuple[object, ...]

    def render(self, params: list) -> str:
        left = self.operand.render(params)
        marks = ", ".join("?" for _ in self.values)
        params.extend(self.values)
        return f"{left} IN ({marks})"


@dataclass(frozen=True)
class Func(SqlExpr):
    """A scalar function call, e.g. ``xpath_num(x)`` or ``SUBSTR(...)``."""

    name: str
    args: tuple[SqlExpr, ...]

    def render(self, params: list) -> str:
        inner = ", ".join(a.render(params) for a in self.args)
        return f"{self.name}({inner})"


@dataclass(frozen=True)
class Exists(SqlExpr):
    """``EXISTS (subquery)`` — used for existential predicates."""

    query: "Select"

    def render(self, params: list) -> str:
        return f"EXISTS ({_subquery(self.query, params)})"


@dataclass(frozen=True)
class CountAtMost(SqlExpr):
    """How many rows *query* yields, counted no further than *bound*:
    ``(SELECT COUNT(*) FROM (<query> LIMIT bound))``.  A predicate that
    only asks whether the count is below, at or past a threshold reads
    at most *bound* rows instead of all of them.  *bound* may be any
    number: the LIMIT is ⌊bound⌋ held to 0..2^62, since sqlite reads a
    larger literal as REAL and refuses it."""

    query: "Select"
    bound: float

    def render(self, params: list) -> str:
        sql = _subquery(self.query, params)
        limit = int(min(max(self.bound, 0), 2**62))
        return f"(SELECT COUNT(*) FROM ({sql}\nLIMIT {limit}))"


@dataclass(frozen=True)
class InSubquery(SqlExpr):
    operand: SqlExpr
    query: "Select"

    def render(self, params: list) -> str:
        left = self.operand.render(params)
        return f"{left} IN ({_subquery(self.query, params)})"


# -- FROM items --------------------------------------------------------------


@dataclass(frozen=True)
class TableRef:
    """``table AS alias`` in a FROM clause."""

    table: str
    alias: str

    def render(self, params: Rendering) -> str:
        params.tables.add(self.table)
        if self.table == self.alias:
            return quote_identifier(self.table)
        return f"{quote_identifier(self.table)} AS {quote_identifier(self.alias)}"


@dataclass(frozen=True)
class Join:
    """A join clause appended after the first FROM item."""

    table: TableRef
    condition: SqlExpr
    kind: str = "JOIN"  # or "LEFT JOIN"


class _Statement:
    """A whole statement (SELECT, UNION or WITH), rendered in one pass."""

    __slots__ = ()

    def render(self) -> tuple[str, Rendering]:
        """Produce ``(sql_text, parameters)``; the parameters are a
        :class:`Rendering`, which also carries the tables and joins."""
        params = Rendering()
        return self.render_into(params), params

    def render_into(self, params: Rendering) -> str:
        """This statement's text; its parameters, tables and joins are
        added to *params*."""
        raise NotImplementedError

    @property
    def join_count(self) -> int:
        """The E8 plan-complexity metric, as :class:`Rendering` counts it."""
        return self.render()[1].joins


@dataclass
class Select(_Statement):
    """A SELECT statement under construction.

    ``select(...)`` / ``where(...)`` / ``join(...)`` mutate and return self
    so translators can chain.  :meth:`render` produces ``(sql, params)``.
    """

    columns: list[tuple[SqlExpr, str | None]] = field(default_factory=list)
    from_item: TableRef | None = None
    joins: list[Join] = field(default_factory=list)
    conditions: list[SqlExpr] = field(default_factory=list)
    order: list[tuple[SqlExpr, bool]] = field(default_factory=list)
    distinct: bool = False
    limit_count: int | None = None

    def select(self, expr: SqlExpr, alias: str | None = None) -> "Select":
        self.columns.append((expr, alias))
        return self

    def from_table(self, table: str, alias: str | None = None) -> "Select":
        if self.from_item is not None:
            raise XmlRelError("FROM already set; use join()")
        self.from_item = TableRef(table, alias or table)
        return self

    def join(
        self,
        table: str,
        alias: str,
        condition: SqlExpr,
        kind: str = "JOIN",
    ) -> "Select":
        self.joins.append(Join(TableRef(table, alias), condition, kind))
        return self

    def where(self, condition: SqlExpr) -> "Select":
        self.conditions.append(condition)
        return self

    def order_by(self, expr: SqlExpr, ascending: bool = True) -> "Select":
        self.order.append((expr, ascending))
        return self

    def limit(self, count: int) -> "Select":
        self.limit_count = count
        return self

    def render_into(self, params: Rendering) -> str:
        if self.from_item is None:
            raise XmlRelError("SELECT without FROM")
        params.joins += len(self.joins)
        cols = []
        for expr, alias in self.columns or [(Raw("*"), None)]:
            text = expr.render(params)
            if alias:
                text += f" AS {quote_identifier(alias)}"
            cols.append(text)
        parts = [
            ("SELECT DISTINCT " if self.distinct else "SELECT ")
            + ", ".join(cols)
        ]
        parts.append(f"FROM {self.from_item.render(params)}")
        for join in self.joins:
            parts.append(
                f"{join.kind} {join.table.render(params)} "
                f"ON {join.condition.render(params)}"
            )
        if self.conditions:
            parts.append(
                "WHERE " + " AND ".join(
                    c.render(params) for c in self.conditions
                )
            )
        if self.order:
            order_parts = [
                expr.render(params) + ("" if asc else " DESC")
                for expr, asc in self.order
            ]
            parts.append("ORDER BY " + ", ".join(order_parts))
        if self.limit_count is not None:
            parts.append(f"LIMIT {int(self.limit_count)}")
        return "\n".join(parts)


@dataclass(frozen=True)
class Union(_Statement):
    """``UNION ALL`` (or ``UNION``) of several SELECTs."""

    selects: tuple[Select, ...]
    all: bool = True

    def render_into(self, params: Rendering) -> str:
        keyword = "\nUNION ALL\n" if self.all else "\nUNION\n"
        return keyword.join(
            select.render_into(params) for select in self.selects
        )


@dataclass
class WithQuery(_Statement):
    """A ``WITH [RECURSIVE] name AS (...), ... <final select>`` statement.

    The edge/binary translators add one recursive CTE per closure step
    (the transitive closure that makes ``//`` expensive on those
    mappings — experiment E4's subject); the inlining translator one
    CTE holding the union of its branches.
    """

    ctes: list[tuple[str, "Select | Union"]] = field(default_factory=list)
    final: Select | None = None
    recursive: bool = False

    def add_cte(self, name: str, query: "Select | Union") -> "WithQuery":
        self.ctes.append((name, query))
        return self

    def render_into(self, params: Rendering) -> str:
        if self.final is None:
            raise XmlRelError("WITH query without a final SELECT")
        if not self.ctes:
            return self.final.render_into(params)
        # Parameters are collected in render order: CTEs first.
        rendered_ctes = []
        for name, query in self.ctes:
            sql = query.render_into(params)
            indented = "\n".join("  " + line for line in sql.splitlines())
            rendered_ctes.append(f"{quote_identifier(name)} AS (\n{indented}\n)")
        final_sql = self.final.render_into(params)
        keyword = "WITH RECURSIVE " if self.recursive else "WITH "
        return keyword + ",\n".join(rendered_ctes) + "\n" + final_sql


def like_escape(text: str) -> str:
    """Escape LIKE wildcards in a user-supplied fragment."""
    return (
        text.replace("\\", "\\\\").replace("%", "\\%").replace("_", "\\_")
    )
