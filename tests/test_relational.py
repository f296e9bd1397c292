"""Unit tests for the relational substrate (schema, SQL builder, db)."""

import math

import pytest

from repro.errors import DocumentNotFoundError, StorageError
from repro.relational.catalog import Catalog
from repro.relational.database import Database
from repro.relational.schema import (
    Column,
    ForeignKey,
    INTEGER,
    Index,
    REAL,
    Table,
    TEXT,
    quote_identifier,
)
from repro.relational.sql import (
    And,
    Arith,
    Col,
    Comparison,
    Exists,
    Func,
    InList,
    Like,
    Not,
    Or,
    Param,
    Raw,
    ScalarSubquery,
    Select,
    Union,
    WithQuery,
    like_escape,
)


@pytest.fixture()
def db():
    with Database() as database:
        yield database


SAMPLE = Table(
    name="sample",
    columns=[
        Column("id", INTEGER, primary_key=True),
        Column("name", TEXT, nullable=False),
        Column("score", REAL),
    ],
    indexes=[Index("sample_name", "sample", ("name",))],
)


class TestSchema:
    def test_ddl_shape(self):
        ddl = SAMPLE.ddl()
        assert "CREATE TABLE IF NOT EXISTS sample" in ddl
        assert "id INTEGER PRIMARY KEY" in ddl
        assert "name TEXT NOT NULL" in ddl

    def test_create_and_insert(self, db):
        db.create_table(SAMPLE)
        db.insert_rows(SAMPLE, [(1, "a", 0.5), (2, "b", None)])
        assert db.row_count("sample") == 2

    def test_composite_primary_key(self, db):
        table = Table(
            "pair",
            [Column("x", INTEGER), Column("y", INTEGER)],
            primary_key=("x", "y"),
        )
        db.create_table(table)
        db.insert_rows(table, [(1, 2)])
        with pytest.raises(StorageError):
            db.insert_rows(table, [(1, 2)])

    def test_foreign_key_ddl(self):
        table = Table(
            "child",
            [Column("id", INTEGER), Column("parent", INTEGER)],
            foreign_keys=[ForeignKey(("parent",), "sample", ("id",))],
        )
        assert "FOREIGN KEY (parent) REFERENCES sample (id)" in table.ddl()

    def test_duplicate_columns_rejected(self):
        with pytest.raises(StorageError, match="duplicate column"):
            Table("t", [Column("a"), Column("a")])

    def test_bad_pk_column_rejected(self):
        with pytest.raises(StorageError, match="primary key"):
            Table("t", [Column("a")], primary_key=("b",))

    def test_unknown_type_rejected(self):
        with pytest.raises(StorageError, match="unknown column type"):
            Column("x", "BLOB8")

    def test_quote_identifier(self):
        assert quote_identifier("plain_name") == "plain_name"
        assert quote_identifier("weird name") == '"weird name"'
        assert quote_identifier('with"quote') == '"with""quote"'

    def test_insert_sql(self):
        assert SAMPLE.insert_sql() == (
            "INSERT INTO sample (id, name, score) VALUES (?, ?, ?)"
        )


class TestDatabase:
    def test_scalar_and_query_one(self, db):
        assert db.scalar("SELECT 1 + 1") == 2
        assert db.query_one("SELECT 1 WHERE 0") is None

    def test_transaction_commit(self, db):
        db.create_table(SAMPLE)
        with db.transaction():
            db.insert_rows(SAMPLE, [(1, "a", None)])
        assert db.row_count("sample") == 1

    def test_transaction_rollback(self, db):
        db.create_table(SAMPLE)
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.insert_rows(SAMPLE, [(1, "a", None)])
                raise RuntimeError("boom")
        assert db.row_count("sample") == 0

    def test_table_names_and_exists(self, db):
        db.create_table(SAMPLE)
        assert "sample" in db.table_names()
        assert db.table_exists("sample")
        assert not db.table_exists("nope")

    def test_table_bytes(self, db):
        db.create_table(SAMPLE)
        db.insert_rows(SAMPLE, [(1, "abcd", None)])
        # '1' + 'abcd' + nothing for NULL = 5 logical bytes.
        assert db.table_bytes("sample") == 5

    def test_table_bytes_missing_table(self, db):
        with pytest.raises(StorageError, match="no such table"):
            db.table_bytes("ghost")

    def test_sql_error_carries_statement(self, db):
        with pytest.raises(StorageError, match="SELECT nonsense"):
            db.execute("SELECT nonsense FROM nothing")

    def test_xpath_num_udf(self, db):
        assert db.scalar("SELECT xpath_num(' 42 ')") == 42.0
        assert db.scalar("SELECT xpath_num('4.5')") == 4.5
        assert db.scalar("SELECT xpath_num('abc')") is None
        assert db.scalar("SELECT xpath_num(NULL)") is None

    def test_explain_plan(self, db):
        db.create_table(SAMPLE)
        lines = db.explain_plan("SELECT * FROM sample WHERE name = ?", ("x",))
        assert any("sample" in line for line in lines)


class TestSqlBuilder:
    def test_basic_select(self):
        query = (
            Select()
            .from_table("t", "a")
            .select(Col("x", "a"))
            .where(Col("y", "a").eq(Param(3)))
            .order_by(Col("x", "a"))
        )
        sql, params = query.render()
        assert sql == "SELECT a.x\nFROM t AS a\nWHERE a.y = ?\nORDER BY a.x"
        assert params == [3]

    def test_join_and_distinct(self):
        query = (
            Select()
            .from_table("t", "a")
            .join("t", "b", Col("p", "b").eq(Col("q", "a")))
            .select(Col("x", "b"))
        )
        query.distinct = True
        sql, params = query.render()
        assert "SELECT DISTINCT b.x" in sql
        assert "JOIN t AS b ON b.p = a.q" in sql

    def test_param_order_across_clauses(self):
        query = (
            Select()
            .from_table("t", "a")
            .join("t", "b", Col("p", "b").eq(Param("join-param")))
            .select(Col("x", "a"))
            .where(Col("y", "a").eq(Param("where-param")))
        )
        __, params = query.render()
        assert params == ["join-param", "where-param"]

    def test_boolean_composition(self):
        expr = Or((
            And((Raw("1"), Raw("2"))),
            Not(Raw("3")),
        ))
        assert expr.render([]) == "((1 AND 2) OR NOT (3))"

    def test_empty_and_or(self):
        assert And(()).render([]) == "1"
        assert Or(()).render([]) == "0"

    def test_like_with_escape(self):
        # Rendered as a case-sensitive GLOB: wildcards translated,
        # escaped ones literal, GLOB's own metacharacters bracketed.
        params: list = []
        text = Like(Col("v"), "%abc\\%_*?[\\\\%").render(params)
        assert text == "v GLOB ?"
        assert params == ["*abc%?[*][?][[]\\*"]

    def test_like_respects_case_and_metacharacters(self, db):
        db.execute("CREATE TABLE t (v TEXT)")
        db.executemany(
            "INSERT INTO t VALUES (?)",
            [("Abc",), ("abc",), ("a*c",), ("a[b]c",), ("50%",)],
        )

        def matches(pattern):
            params: list = []
            where = Like(Col("v"), pattern).render(params)
            return sorted(
                v for (v,) in db.query(f"SELECT v FROM t WHERE {where}", params)
            )

        assert matches("a%") == ["a*c", "a[b]c", "abc"]
        assert matches("%" + like_escape("*") + "%") == ["a*c"]
        assert matches("%" + like_escape("[b]") + "%") == ["a[b]c"]
        assert matches(like_escape("50%")) == ["50%"]
        assert matches("a_c") == ["a*c", "abc"]

    def test_like_escape_helper(self):
        assert like_escape("50%_done\\x") == "50\\%\\_done\\\\x"

    def test_in_list(self):
        params: list = []
        text = InList(Col("v"), (1, 2, 3)).render(params)
        assert text == "v IN (?, ?, ?)"
        assert params == [1, 2, 3]

    def test_exists_subquery(self):
        sub = (
            Select().from_table("t", "s").select(Raw("1"))
            .where(Col("k", "s").eq(Param(9)))
        )
        params: list = []
        text = Exists(sub).render(params)
        assert text.startswith("EXISTS (SELECT 1")
        assert params == [9]

    def test_scalar_subquery(self):
        sub = Select().from_table("t", "s").select(Raw("COUNT(*)"))
        text = ScalarSubquery(sub).eq(Raw("0")).render([])
        assert text == "(SELECT COUNT(*)\nFROM t AS s) = 0"

    def test_func_and_cast_and_arith(self):
        expr = Func("xpath_num", (Arith("||", Col("a"), Col("b")),))
        assert expr.render([]) == "xpath_num((a || b))"

    def test_limit(self):
        sql, __ = (
            Select().from_table("t").select(Raw("*")).limit(5).render()
        )
        assert sql.endswith("LIMIT 5")

    def test_join_count_with_subqueries(self):
        sub = Select().from_table("t", "s").select(Raw("1"))
        query = (
            Select()
            .from_table("t", "a")
            .join("t", "b", Raw("1"))
            .select(Col("x", "a"))
            .where(Exists(sub))
        )
        assert query.join_count == 2  # one JOIN + one subquery FROM

    def test_union(self):
        one = Select().from_table("t", "a").select(Col("x", "a"))
        two = Select().from_table("u", "b").select(Col("y", "b"))
        sql, __ = Union((one, two)).render()
        assert "UNION ALL" in sql

    def test_with_query_renders_ctes_in_order(self):
        base = (
            Select().from_table("t", "a").select(Col("x", "a"))
            .where(Col("k", "a").eq(Param("first")))
        )
        final = (
            Select().from_table("c0", "c0").select(Col("x", "c0"))
            .where(Col("x", "c0").eq(Param("second")))
        )
        statement = WithQuery()
        statement.add_cte("c0", base)
        statement.final = final
        sql, params = statement.render()
        assert sql.startswith("WITH c0 AS (")
        assert params == ["first", "second"]

    def test_recursive_with_executes(self, db):
        links = Table(
            "links", [Column("src", INTEGER), Column("dst", INTEGER)]
        )
        db.create_table(links)
        db.insert_rows(links, [(1, 2), (2, 3), (3, 4), (9, 10)])
        statement = WithQuery(recursive=True)
        closure = Union((
            Select().from_table("links", "l").select(Col("dst", "l"))
            .where(Col("src", "l").eq(Param(1))),
            Select().from_table("links", "l").select(Col("dst", "l"))
            .join("reach", "r", Col("src", "l").eq(Col("dst", "r"))),
        ))
        statement.add_cte("reach", closure)
        statement.final = (
            Select().from_table("reach", "reach").select(Raw("COUNT(*)"))
        )
        sql, params = statement.render()
        assert db.scalar(sql, params) == 3  # nodes 2, 3, 4


class TestCatalog:
    def test_register_and_get(self, db):
        catalog = Catalog(db)
        doc_id = catalog.register("doc.xml", "edge", "root", 10)
        record = catalog.get(doc_id)
        assert record.name == "doc.xml"
        assert record.scheme == "edge"
        assert record.node_count == 10

    def test_missing_document(self, db):
        catalog = Catalog(db)
        with pytest.raises(DocumentNotFoundError):
            catalog.get(99)

    def test_list_filter_by_scheme(self, db):
        catalog = Catalog(db)
        catalog.register("a", "edge", "r", 1)
        catalog.register("b", "dewey", "r", 1)
        assert [r.name for r in catalog.list()] == ["a", "b"]
        assert [r.name for r in catalog.list("edge")] == ["a"]

    def test_remove(self, db):
        catalog = Catalog(db)
        doc_id = catalog.register("a", "edge", "r", 1)
        catalog.remove(doc_id)
        with pytest.raises(DocumentNotFoundError):
            catalog.get(doc_id)

    def test_update_node_count(self, db):
        catalog = Catalog(db)
        doc_id = catalog.register("a", "edge", "r", 1)
        catalog.update_node_count(doc_id, 5)
        assert catalog.get(doc_id).node_count == 5
