"""Unit tests for the relational substrate (schema, SQL builder, db)."""

import math
import os
import sqlite3
import time

import pytest

from repro import Tracer, XmlRelStore
from repro.core.registry import available_schemes
from repro.errors import (
    DocumentNotFoundError,
    ShardError,
    StorageError,
    UnsupportedQueryError,
)
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
    CountAtMost,
    Exists,
    Func,
    InList,
    Like,
    Not,
    Or,
    Param,
    Raw,
    Select,
    Union,
    WithQuery,
    like_escape,
)
from repro.serve import ShardedStore
from repro.workloads import AUCTION_QUERIES, auction_dtd, generate_auction

from tests.test_query_translation import expected_pres, generated_probes


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

    def test_partial_index_ddl(self):
        index = Index("sample_score", "sample", ("name", "score"),
                      where="score")
        assert index.ddl() == (
            "CREATE INDEX IF NOT EXISTS sample_score ON sample "
            "(name, score) WHERE score IS NOT NULL"
        )

    def test_partial_column_must_be_indexed(self):
        with pytest.raises(StorageError, match="partial column"):
            Index("sample_name", "sample", ("name",), where="score")

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

    @pytest.mark.parametrize("traced", (False, True), ids=("plain", "traced"))
    def test_an_error_while_stepping_is_a_storage_error(self, traced):
        """The third row overflows ``abs``: sqlite raises while
        ``fetchall`` steps, after the first row came back from the
        execute — still typed, and the traced span records it."""
        tracer = Tracer() if traced else None
        db = Database(":memory:", tracer=tracer)
        db.execute("CREATE TABLE t (x INTEGER)")
        db.executemany("INSERT INTO t VALUES (?)", [(1,), (2,), (3,)])
        sql = (
            "SELECT CASE WHEN x = 3 THEN abs(-9223372036854775808) "
            "ELSE x END FROM t"
        )
        with pytest.raises(StorageError, match="integer overflow"):
            db.query(sql)
        if traced:
            (span,) = [
                s for s in tracer.spans_named("sql.statement")
                if s.attributes["sql"].startswith("SELECT CASE")
            ]
            assert "integer overflow" in span.attributes["error"]
        db.close()

    def test_the_traced_statement_span_covers_the_fetch(self):
        tracer = Tracer()
        db = Database(":memory:", tracer=tracer)
        db.execute("CREATE TABLE t (x INTEGER)")
        db.executemany("INSERT INTO t VALUES (?)", [(n,) for n in range(5)])
        stepped = []
        db.create_function(
            "stamp", 1,
            lambda x: stepped.append(time.perf_counter()) or x,
            deterministic=False,
        )
        assert db.query("SELECT stamp(x) FROM t") == [
            (n,) for n in range(5)
        ]
        (span,) = [
            s for s in tracer.spans_named("sql.statement")
            if s.attributes["sql"].startswith("SELECT stamp")
        ]
        assert len(stepped) == 5
        assert span.start <= min(stepped) and max(stepped) <= span.end
        assert span.attributes["rows"] == 5
        assert tracer.metrics.counter("db.rows_fetched").value == 5
        db.close()

    def test_xpath_num_udf(self, db):
        assert db.scalar("SELECT xpath_num(' 42 ')") == 42.0
        assert db.scalar("SELECT xpath_num('4.5')") == 4.5
        assert db.scalar("SELECT xpath_num('abc')") is None
        assert db.scalar("SELECT xpath_num(NULL)") is None

    def test_explain_plan(self, db):
        db.create_table(SAMPLE)
        lines = db.explain_plan("SELECT * FROM sample WHERE name = ?", ("x",))
        assert any("sample" in line for line in lines)

    def test_unopenable_path_raises_storage_error(self, tmp_path):
        # One exception type for callers: a missing directory or a file
        # that is no database is a StorageError naming the path.
        missing = str(tmp_path / "no" / "such" / "dir" / "x.db")
        garbage = tmp_path / "garbage.db"
        garbage.write_bytes(b"not a database " * 512)
        for path in (missing, str(garbage)):
            for profile in ("bulk_load", "durable"):
                with pytest.raises(StorageError, match="garbage|x.db"):
                    Database(path, profile=profile)


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

    def test_count_at_most(self, db):
        sub = (
            Select().from_table("t", "s").select(Raw("1"))
            .where(Col("k", "s").gt(Param(1)))
        )
        params: list = []
        text = CountAtMost(sub, 3).eq(Raw("0")).render(params)
        assert text == (
            "(SELECT COUNT(*) FROM (SELECT 1\nFROM t AS s\n"
            "WHERE s.k > ?\nLIMIT 3)) = 0"
        )
        assert params == [1]
        # E8 counts the subquery's FROM like any other subquery's.
        outer = Select().from_table("t").where(CountAtMost(sub, 1))
        assert outer.join_count == 1
        db.execute("CREATE TABLE t (k INTEGER)")
        db.execute("INSERT INTO t VALUES (1), (2), (3), (4), (5), (6)")
        params = []
        counted = CountAtMost(sub, 3).render(params)
        assert db.scalar(f"SELECT {counted}", params) == 3  # of 5 rows
        # The LIMIT is ⌊bound⌋ held to what sqlite takes as an integer.
        for bound, limit in [(2.5, 2), (-3, 0), (10**20, 2**62),
                             (float("inf"), 2**62)]:
            assert f"LIMIT {limit})" in CountAtMost(sub, bound).render([])

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
        # An ON condition's subquery costs what a WHERE one does.
        on_query = (
            Select()
            .from_table("t", "a")
            .join("t", "b", And((Raw("1"), Exists(sub))))
            .select(Col("x", "a"))
        )
        assert on_query.join_count == 2

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


# -- partial indexes on the mappings' files ------------------------------------------

#: The mappings that declare ``Index.where`` on some index.
PARTIAL_SCHEMES = ["edge", "binary", "interval", "dewey", "xrel"]


def index_sql(db):
    """``{index name: stored CREATE INDEX}`` of every declared index."""
    return dict(db.query(
        "SELECT name, sql FROM sqlite_master "
        "WHERE type = 'index' AND sql IS NOT NULL"
    ))


def drop_index_predicates(path):
    """Rewrite the file at *path* the way files made before partial
    indexes hold them: every index over the same columns, no WHERE."""
    conn = sqlite3.connect(path)
    with conn:
        for name, sql in conn.execute(
            "SELECT name, sql FROM sqlite_master "
            "WHERE type = 'index' AND sql LIKE '% WHERE %'"
        ).fetchall():
            conn.execute(f"DROP INDEX {quote_identifier(name)}")
            conn.execute(sql.split(" WHERE ")[0])
        conn.execute("ANALYZE")
    conn.close()


class TestPartialIndexes:
    @pytest.mark.parametrize("scheme", available_schemes())
    def test_a_bulk_session_rebuilds_what_a_store_creates(self, scheme):
        document = generate_auction(0.02, seed=1)
        kwargs = {"dtd": auction_dtd()} if scheme == "inlining" else {}
        with XmlRelStore.open(scheme=scheme, **kwargs) as single, \
                XmlRelStore.open(scheme=scheme, **kwargs) as bulk:
            single.store(document, "auction")
            with bulk.bulk_session() as session:
                session.store(document, "auction")
            expected = index_sql(single.db)
            assert index_sql(bulk.db) == expected
        partial = [sql for sql in expected.values() if " WHERE " in sql]
        assert bool(partial) == (scheme in PARTIAL_SCHEMES)
        assert all(sql.endswith(" IS NOT NULL") for sql in partial)

    @pytest.mark.parametrize("scheme", PARTIAL_SCHEMES)
    def test_a_file_with_full_indexes_still_answers(self, tmp_path, scheme):
        document = generate_auction(0.02, seed=1)
        queries = [spec.xpath for spec in AUCTION_QUERIES]
        queries += generated_probes(document, pairs=1)
        assert len(queries) == 16 + 46
        directory = str(tmp_path / scheme)
        answers = {}
        with ShardedStore.open(directory, scheme=scheme, shards=1) as store:
            doc_id = store.store(document, "auction")
            for xpath in queries:
                try:
                    answers[xpath] = store.query_pres(doc_id, xpath)
                except ShardError as error:
                    assert isinstance(error.__cause__, UnsupportedQueryError)
        drop_index_predicates(os.path.join(directory, "shard-00.db"))

        with ShardedStore.open(directory, scheme=scheme, shards=1) as store:
            writer = store.writers[0]
            full = index_sql(writer.db)
            # CREATE INDEX IF NOT EXISTS leaves the full indexes in place.
            assert full and not any(" WHERE " in sql for sql in full.values())
            for xpath, pres in answers.items():
                assert store.query_pres(doc_id, xpath) == pres, xpath
                assert pres == expected_pres(document, xpath), xpath
            assert store.verify_ok()

            # The next bulk session rebuilds the mapping's own tables'
            # indexes as declared; binary's partitions are not among
            # them, so a partition keeps the indexes it was made with.
            store.store_many([generate_auction(0.01, seed=2)], ["more"])
            rebuilt = index_sql(writer.db)
            for table in writer.scheme.tables():
                for index in table.indexes:
                    assert rebuilt[index.name] == index.ddl().replace(
                        " IF NOT EXISTS", ""
                    )
            if scheme == "binary":
                assert rebuilt == full
            else:
                assert any(" WHERE " in sql for sql in rebuilt.values())
            assert store.verify_ok()
