"""Binary's subtree fetch against edge's, row for row.

Binary reads a subtree level by level, each level only from the
partitions that ``binary_child_labels`` says its parents' labels can
reach (DESIGN §6).  A (parent label, child label) pair the relation
lacks silently drops that child's subtree, so every case here stores
one document under both mappings and demands binary's publish rows —
per root runs, run order, nested roots repeated — equal edge's, whose
recursive CTE over one table needs no such relation.  Each case puts a
pair in a different place: an inserted fragment, a label under one
parent only, comments and PIs, nested/duplicate/missing roots, the
whole document, and generated documents.
"""

import pytest
from hypothesis import given, settings

from repro.core.registry import create_scheme
from repro.errors import StorageError
from repro.relational.database import Database
from repro.updates import insert_subtree
from repro.xml import parse_document, parse_fragment, serialize

from tests.test_property import xml_sources


class Pair:
    """One document stored under edge and under binary."""

    def __init__(self, text: str) -> None:
        self.schemes = {}
        for name in ("edge", "binary"):
            scheme = create_scheme(name, Database())
            doc_id = scheme.store(parse_document(text), "doc").doc_id
            self.schemes[name] = scheme
        self.doc_id = doc_id
        self.binary = self.schemes["binary"]

    def pres(self, xpath: str) -> list[int]:
        pres = self.binary.query_pres(self.doc_id, xpath)
        assert pres == self.schemes["edge"].query_pres(self.doc_id, xpath)
        return pres

    def assert_same(self, roots: list[int] | None) -> list[tuple]:
        """Binary's rows equal edge's for *roots* (None: the whole
        document); returns them."""
        fetched = {
            name: scheme.fetch_records(self.doc_id) if roots is None
            else scheme.fetch_records_many(self.doc_id, roots)
            for name, scheme in self.schemes.items()
        }
        assert fetched["binary"] == fetched["edge"], roots
        return fetched["binary"]

    def insert(self, parent_xpath: str, fragment: str, index=0) -> None:
        for scheme in self.schemes.values():
            (parent,) = scheme.query_pres(self.doc_id, parent_xpath)
            insert_subtree(
                scheme, self.doc_id, parent, parse_fragment(fragment), index
            )

    def child_labels(self) -> set[tuple[str, str]]:
        return set(self.binary.db.query(
            "SELECT parent_label, child_label FROM binary_child_labels"
        ))


def test_inserted_fragment_adds_its_pairs():
    pair = Pair("<r><a><b>x</b></a><a><b/></a><c/></r>")
    # A new attribute and a new element child under the existing <b>,
    # and a fragment root <d> that no <c> ever had.
    pair.insert("/r/a[1]", '<b z="1"><new>y</new></b>', index=1)
    pair.insert("/r/c", "<d><!--n--></d>")
    assert {("b", "z"), ("b", "new"), ("new", "#text"), ("c", "d"),
            ("d", "#comment")} <= pair.child_labels()
    rows = pair.assert_same(pair.pres("/r/a | /r/c"))
    assert {row[4] for row in rows} >= {"z", "new", "d"}
    pair.assert_same(None)
    assert pair.binary.verify_document(pair.doc_id).ok


def test_label_under_one_parent_label_only():
    pair = Pair(
        "<r><a><x>1</x><x>2</x></a><b><y>3</y></b>"
        "<a><z><x>4</x></z></a></r>"
    )
    assert ("b", "x") not in pair.child_labels()
    for xpath in ("/r/a", "/r/b", "//x", "/r/a | /r/b"):
        pair.assert_same(pair.pres(xpath))


def test_comments_and_processing_instructions():
    pair = Pair(
        "<?top go?><!--head--><r><!--c--><?pi d?><a k='v'>"
        "<?inner x?>t<!--in--></a></r><!--tail-->"
    )
    assert {("r", "#comment"), ("r", "#pi:pi"), ("a", "#pi:inner"),
            ("a", "k")} <= pair.child_labels()
    pair.assert_same(pair.pres("/r | //a"))
    pair.assert_same(pair.pres("//comment() | //processing-instruction()"))
    rows = pair.assert_same(None)
    assert [row[4] for row in rows[:2]] == ["top", None]


def test_nested_duplicate_and_missing_roots():
    pair = Pair("<r><a><b><c>x</c></b></a><a><b/></a></r>")
    outer, inner = pair.pres("/r/a[1]")[0], pair.pres("/r/a[1]/b")[0]
    rows = pair.assert_same([inner, outer, inner, 999_999])
    # The inner subtree comes out under both roots.
    assert sum(row[1] == inner for row in rows) == 2
    with pytest.raises(StorageError, match="no stored node"):
        pair.binary.reconstruct_subtrees(pair.doc_id, [outer, 999_999])


def test_whole_document():
    text = "<r><a x='1'>t<b/></a><!--c--><a><b><a/></b></a></r>"
    pair = Pair(text)
    pair.assert_same(None)
    assert pair.binary.reconstruct_xml(pair.doc_id) == (
        text.replace("'", '"')
    )


def test_relation_filled_for_files_written_before_it(tmp_path):
    path = str(tmp_path / "old.db")
    db = Database(path)
    scheme = create_scheme("binary", db)
    doc_id = scheme.store(parse_document("<r><a>x</a></r>"), "doc").doc_id
    expected = scheme.fetch_records(doc_id)
    db.execute("DROP TABLE binary_child_labels")
    db.close()
    db = Database(path)
    scheme = create_scheme("binary", db)
    assert scheme.fetch_records(doc_id) == expected
    assert scheme.verify_document(doc_id).ok
    db.close()


@given(xml_sources())
@settings(max_examples=150, derandomize=True, deadline=None)
def test_runs_equal_edges_on_generated_documents(source):
    pair = Pair(serialize(source.document))
    pair.assert_same(None)
    pair.assert_same(pair.pres("//node()"))
    pair.assert_same(pair.pres("//*"))
