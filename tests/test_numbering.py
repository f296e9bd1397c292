"""Unit tests for node numbering (pre/post/size/level/dewey)."""

import re

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import StorageError, XmlRelError
from repro.xml import parse_document
from repro.xml.dom import Document, Element, NodeKind
from repro.storage.numbering import (
    DEWEY_MAX_ORDINAL,
    DEWEY_SEPARATOR,
    dewey_component,
    dewey_depth,
    dewey_is_ancestor,
    dewey_parent,
    records_to_events,
    write_records,
)
from repro.xml.events import (
    Event,
    EventKind,
    build_fragment,
    build_tree,
    parse_events,
    stream_events,
)
from repro.xml.serialize import serialize

from tests.conftest import shred_records
from tests.numbering_oracle import number_document

SRC = '<r a="1"><x><y>t</y></x><z b="2"/><!--c--></r>'


def number_by_dom_walk(xml):
    return number_document(parse_document(xml))


def number_by_event_stack(xml):
    return shred_records(parse_events(xml))[0]


def by_name(records, name):
    return next(r for r in records if r.name == name)


class TestNumbering:
    """Numbering properties, on the recursive DOM walk (the reference
    the shredder is tested against, and what updates number fragments
    with)."""

    number = staticmethod(number_by_dom_walk)

    @pytest.fixture()
    def records(self):
        return self.number(SRC)

    def test_pre_matches_document_order(self, records):
        assert [r.pre for r in records] == list(range(1, len(records) + 1))

    def test_every_stored_node_present(self, records):
        doc = parse_document(SRC)
        doc.assign_order()
        kinds = [r.kind for r in records]
        assert kinds.count(int(NodeKind.ELEMENT)) == 4
        assert kinds.count(int(NodeKind.ATTRIBUTE)) == 2
        assert kinds.count(int(NodeKind.TEXT)) == 1
        assert kinds.count(int(NodeKind.COMMENT)) == 1

    def test_size_counts_subtree(self, records):
        root = by_name(records, "r")
        assert root.size == len(records) - 1
        x = by_name(records, "x")
        assert x.size == 2  # y and its text

    def test_descendant_window(self, records):
        x = by_name(records, "x")
        inside = [
            r.pre for r in records if x.pre < r.pre <= x.pre + x.size
        ]
        names = {r.name for r in records if r.pre in inside}
        assert "y" in names

    def test_post_order(self, records):
        # A parent's post number is larger than all its descendants'.
        x = by_name(records, "x")
        y = by_name(records, "y")
        assert x.post > y.post

    def test_levels(self, records):
        assert by_name(records, "r").level == 1
        assert by_name(records, "a").level == 2  # attribute of root
        assert by_name(records, "y").level == 3

    def test_parent_links(self, records):
        root = by_name(records, "r")
        assert root.parent_pre == 0
        assert by_name(records, "x").parent_pre == root.pre

    def test_ordinals_attributes_first(self, records):
        root = by_name(records, "r")
        a = by_name(records, "a")
        x = by_name(records, "x")
        assert a.ordinal == 1          # attribute occupies the first slot
        assert x.ordinal == 2

    def test_dewey_labels(self, records):
        root = by_name(records, "r")
        y = by_name(records, "y")
        assert root.dewey == dewey_component(1)
        assert y.dewey.startswith(root.dewey + DEWEY_SEPARATOR)
        assert dewey_depth(y.dewey) == 3

    def test_dewey_lexicographic_is_document_order(self, records):
        labels = [r.dewey for r in records]
        assert labels == sorted(labels)

    def test_dewey_prefix_is_ancestor(self, records):
        root = by_name(records, "r")
        for record in records:
            if record.pre == root.pre:
                continue
            assert dewey_is_ancestor(root.dewey, record.dewey)

    def test_multiple_root_level_nodes(self):
        records = self.number("<!--before--><r/>")
        assert [r.kind for r in records] == [
            int(NodeKind.COMMENT), int(NodeKind.ELEMENT),
        ]
        assert records[0].ordinal == 1
        assert records[1].ordinal == 2


class TestEventStackNumbering(TestNumbering):
    """Every property above, on the numbering the store path uses."""

    number = staticmethod(number_by_event_stack)


class TestDeweyHelpers:
    def test_component_length_prefix(self):
        assert dewey_component(7) == "17"
        assert dewey_component(12) == "212"
        assert dewey_component(250) == "3250"

    def test_component_bounds(self):
        assert dewey_component(10 ** 6) == "71000000"
        assert dewey_component(DEWEY_MAX_ORDINAL) == "9" + "9" * 9
        with pytest.raises(StorageError):
            dewey_component(0)
        with pytest.raises(StorageError):
            dewey_component(10 ** 9)

    @given(st.integers(1, DEWEY_MAX_ORDINAL),
           st.integers(1, DEWEY_MAX_ORDINAL))
    @example(9, 10)
    @example(99, 100)
    @example(999_999, 1_000_000)
    def test_component_order_is_ordinal_order(self, a, b):
        assert (a < b) == (dewey_component(a) < dewey_component(b))

    def test_parent(self):
        assert dewey_parent("000001.000002") == "000001"
        assert dewey_parent("000001") is None

    def test_is_ancestor_is_proper(self):
        assert not dewey_is_ancestor("000001", "000001")
        assert not dewey_is_ancestor("000001", "000010")  # not a prefix


@st.composite
def wide_trees(draw, depth=3):
    """An element whose sibling runs cross the one-, two- and
    three-digit ordinal widths, attributes (which take the first
    ordinals) and text mixed in; a few children get subtrees of their
    own."""
    element = Element("n")
    if draw(st.booleans()):
        element.set_attribute("a", "1")
    if depth == 0:
        return element
    width = draw(st.one_of(
        st.integers(0, 3), st.sampled_from((8, 9, 10, 98, 99, 100))
    ))
    deep = draw(st.sets(st.integers(0, max(width - 1, 0)), max_size=2))
    for index in range(width):
        if index in deep:
            element.append_child(draw(wide_trees(depth - 1)))
        elif index % 7 == 3:
            element.append_text("t")
        else:
            element.append_child(Element("n"))
    return element


class TestMixedWidthLabels:
    @given(wide_trees())
    @settings(max_examples=25, deadline=None)
    def test_label_order_and_ancestry(self, root):
        document = Document()
        document.append_child(root)
        records = shred_records(stream_events(document))[0]
        labels = [r.dewey for r in records]      # pre order
        assert labels == sorted(labels)
        by_pre = {r.pre: r for r in records}
        ancestors = {}
        for record in records:
            parent = by_pre.get(record.parent_pre)
            ancestors[record.pre] = (
                ancestors[parent.pre] | {parent.dewey} if parent else set()
            )
        for record in records:
            for other in records:
                assert dewey_is_ancestor(other.dewey, record.dewey) == (
                    other.dewey in ancestors[record.pre]
                )


#: The two walks of a run of stored rows, which reject the same rows
#: with the same message.
WALKERS = [lambda rows: list(records_to_events(rows)), write_records]
WALKER_IDS = ["records_to_events", "write_records"]


def exactly(message):
    return f"^{re.escape(message)}$"


def publish_rows(records, root=0):
    """NodeRecords as the slim rows a scheme's fetch yields."""
    return [
        (root, r.pre, r.parent_pre, r.kind, r.name, r.value)
        for r in records
    ]


def subtree_rows(records, name):
    top = by_name(records, name)
    return publish_rows(
        [r for r in records if top.pre <= r.pre <= top.pre + top.size],
        root=top.pre,
    )


class TestRebuild:
    """``records_to_events`` is ``shred_into`` in reverse."""

    def test_build_document_roundtrip(self):
        from repro.xml.dom import deep_equal

        doc = parse_document(SRC)
        events = list(records_to_events(publish_rows(number_document(doc))))
        assert deep_equal(doc, build_tree(events))
        # the stream itself, not just the tree it builds
        assert events == [
            e for e in stream_events(doc)
            if e.kind not in (
                EventKind.START_DOCUMENT, EventKind.END_DOCUMENT
            )
        ]
        assert all(type(e) is Event for e in events)

    def test_build_subtree(self):
        records = number_document(parse_document(SRC))
        node = build_fragment(records_to_events(subtree_rows(records, "x")))
        assert node.tag == "x" and node.parent is None
        assert node.find("y").text == "t"

    def test_build_empty_rejected(self):
        assert list(records_to_events([])) == []
        with pytest.raises(XmlRelError, match="0 top-level nodes"):
            build_fragment(records_to_events([]))

    @pytest.mark.parametrize("walk", WALKERS, ids=WALKER_IDS)
    def test_build_missing_parent_rejected(self, walk):
        doc = parse_document(SRC)
        records = number_document(doc)
        # Drop an intermediate node: its child's parent is missing.
        y = by_name(records, "y")
        broken = [r for r in records if r.name != "y"]
        text = next(r for r in broken if r.parent_pre == y.pre)
        with pytest.raises(StorageError, match=exactly(
            f"record {text.pre} references missing parent {y.pre}"
        )):
            walk(publish_rows(broken))

    @pytest.mark.parametrize(
        ("walk", "nothing"), list(zip(WALKERS, ([], ""))), ids=WALKER_IDS
    )
    def test_an_empty_run_walks_to_nothing(self, walk, nothing):
        assert walk([]) == nothing

    def test_leaf_roots_publish_as_single_events(self):
        records = number_document(parse_document(SRC))
        attr = by_name(records, "a")
        assert list(
            records_to_events(publish_rows([attr], root=attr.pre))
        ) == [Event(EventKind.ATTRIBUTE, "a", "1")]
        text = next(r for r in records if r.kind == NodeKind.TEXT)
        assert list(
            records_to_events(publish_rows([text], root=text.pre))
        ) == [Event(EventKind.TEXT, None, "t")]

    @pytest.mark.parametrize("walk", WALKERS, ids=WALKER_IDS)
    def test_rows_no_shredder_wrote_are_typed_errors(self, walk):
        records = number_document(parse_document(SRC))
        rows = publish_rows(records)
        text = next(r for r in records if r.kind == NodeKind.TEXT)
        y = by_name(records, "y")

        def corrupt(pre, **changes):
            fields = ("root", "pre", "parent_pre", "kind", "name", "value")
            return [
                tuple(
                    changes.get(field, value)
                    for field, value in zip(fields, row)
                ) if row[1] == pre else row
                for row in rows
            ]

        comment = next(r for r in records if r.kind == NodeKind.COMMENT)
        b = by_name(records, "b")
        cases = [
            # a parent that was never stored
            (f"record {y.pre} references missing parent 999",
             corrupt(y.pre, parent_pre=999)),
            # a parent that is a leaf: nothing can be under a text node
            (f"record {b.pre} references missing parent {text.pre}",
             corrupt(b.pre, parent_pre=text.pre)),
            # an attribute after its element's first child
            (f"attribute record {comment.pre} outside a start tag",
             corrupt(comment.pre, kind=int(NodeKind.ATTRIBUTE), name="late")),
            ("cannot rebuild node of kind 99", corrupt(text.pre, kind=99)),
        ]
        for message, broken in cases:
            with pytest.raises(StorageError, match=exactly(message)):
                walk(broken)

    @pytest.mark.parametrize("walk", WALKERS, ids=WALKER_IDS)
    def test_a_node_beside_the_subtree_root_is_rejected(self, walk):
        records = number_document(parse_document(SRC))
        x = by_name(records, "x").pre
        beside = subtree_rows(records, "x") + [
            (x, 900, 1, int(NodeKind.TEXT), None, "?")
        ]
        message = f"record 900 lies beside subtree root {x}, not under it"
        with pytest.raises(StorageError, match=exactly(message)):
            walk(beside)
        # beside a leaf root too: nothing closes before the second row
        a = by_name(records, "a")
        with pytest.raises(StorageError, match="beside subtree root"):
            walk(publish_rows([a], root=a.pre) + [
                (a.pre, 900, a.parent_pre, int(NodeKind.TEXT), None, "?")
            ])

    def test_write_records_is_serialize_of_every_subtree(self):
        """The text walker writes what the tree writer writes, for the
        whole document and for a run rooted at every stored node."""
        source = (
            '<r a="1&amp;&quot;" b="x&#9;y"><?p?><?q d?><!--c-->'
            '<e/><f k="v"/>x&lt;y&gt;&amp;z&#13;<g><h>t</h></g></r>'
        )
        doc = parse_document(source)
        records = number_document(doc)
        assert write_records(publish_rows(records)) == serialize(doc)
        nodes = {node.order_key: node for node in doc.iter_with_attributes()}
        for record in records:
            run = publish_rows(
                [r for r in records
                 if record.pre <= r.pre <= record.pre + record.size],
                root=record.pre,
            )
            assert write_records(run) == serialize(nodes[record.pre])
