"""Randomized update-sequence integration tests.

A seeded sequence of inserts and deletes is applied in parallel to an
in-memory DOM and to each updatable scheme's database; after every
operation the database must reconstruct to exactly the mutated DOM and
publish (``reconstruct_xml`` / ``query_xml``) exactly its
``serialize()``, and at the end a query battery must agree with the
evaluator.

Node ids and document-order stamps deliberately diverge after updates
(only the interval scheme renumbers), so DOM nodes are matched to their
database rows through unique marker attributes, never through order
stamps.

Results are compared twice: as multisets (the answer set) and as
sequences (document order).  Edge, binary and dewey answer in node-id
order after an insert, so their sequence comparisons are strict xfails
(EXPERIMENTS deviation 9) and the multiset ones stand beside them.
"""

import random

import pytest

from repro.core.registry import create_scheme
from repro.relational.database import Database
from repro.stats.pathsummary import build_summary
from repro.updates import delete_subtree, insert_subtree
from repro.xml import parse_document, parse_fragment
from repro.xml.dom import Element, deep_equal
from repro.xml.serialize import serialize
from repro.xpath import evaluate_nodes

UPDATABLE = ("edge", "binary", "interval", "dewey")

#: After an insert, node ids stop being document order on these, and
#: results follow ids.
ID_ORDERED = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="deviation 9: results follow node ids, not document order, "
    "after an insert",
)
IN_DOCUMENT_ORDER = [
    pytest.param(name, marks=() if name == "interval" else ID_ORDERED)
    for name in UPDATABLE
]

START = (
    "<inventory>"
    "<shelf m='s1'><box m='b1'><item m='i1'>one</item></box></shelf>"
    "<shelf m='s2'><box m='b2'><item m='i2'>two</item>"
    "<item m='i3'>three</item></box></shelf>"
    "</inventory>"
)

FINAL_QUERIES = [
    "//item",
    "//box/item",
    "/inventory/shelf/box",
    "//item[@m = 'i2']",
    "//box[item]/@m",
    "//shelf[not(box)]",
]


#: Checked after *every* operation: nested roots, leaves, attributes.
PUBLISHED_QUERIES = [
    "//shelf | //box",
    "//item",
    "//item/text()",
    "//box/@m",
    "/inventory//box//item",  # edge/binary: a label-path expansion
]


def _db_id_of(scheme, doc_id, element):
    """Resolve a DOM element's database id via its unique marker."""
    marker = element.get_attribute("m")
    ids = scheme.query_pres(
        doc_id, f"//{element.tag}[@m = '{marker}']"
    )
    assert len(ids) == 1, (element.tag, marker, ids)
    return ids[0]


def _element_children(parent):
    return [c for c in parent.children if isinstance(c, Element)]


def _dom_index(parent, element_index):
    """Convert an index among element children to a DOM child index."""
    seen = 0
    for position, child in enumerate(parent.children):
        if isinstance(child, Element):
            if seen == element_index:
                return position
            seen += 1
    return len(parent.children)


class _Mutator:
    """Applies the same random operations to DOM and database."""

    def __init__(self, scheme, doc_id, document, rng, ordered):
        self.scheme = scheme
        self.doc_id = doc_id
        self.document = document
        self.rng = rng
        self.ordered = ordered  # compare sequences, not only multisets
        self.counter = 0

    def fragment_source(self) -> str:
        self.counter += 1
        token = f"n{self.counter}"
        kind = self.rng.choice(("item", "box", "shelf"))
        if kind == "item":
            return f"<item m='{token}'>value-{token}</item>"
        if kind == "box":
            return (
                f"<box m='{token}'><item m='{token}x'>v</item></box>"
            )
        return f"<shelf m='{token}'><box m='{token}x'/></shelf>"

    def eligible_parents(self):
        return [
            e for e in self.document.iter_elements()
            if e.tag in ("inventory", "shelf", "box")
        ]

    def deletable(self):
        return [
            e for e in self.document.iter_elements()
            if e.tag != "inventory"
        ]

    def step(self):
        candidates = self.deletable()
        if len(candidates) > 2 and self.rng.random() < 0.4:
            victim = self.rng.choice(candidates)
            db_id = _db_id_of(self.scheme, self.doc_id, victim)
            victim.parent.remove_child(victim)
            delete_subtree(self.scheme, self.doc_id, db_id)
        else:
            parent = self.rng.choice(self.eligible_parents())
            index = self.rng.randint(0, len(_element_children(parent)))
            source = self.fragment_source()
            if parent.tag == "inventory":
                parent_id = self.scheme.query_pres(
                    self.doc_id, "/inventory"
                )[0]
            else:
                parent_id = _db_id_of(self.scheme, self.doc_id, parent)
            parent.insert_child(
                _dom_index(parent, index), parse_fragment(source)
            )
            insert_subtree(
                self.scheme, self.doc_id, parent_id,
                parse_fragment(source), index=index,
            )
        rebuilt = self.scheme.reconstruct(self.doc_id)
        assert deep_equal(self.document, rebuilt), (
            f"divergence after an operation:\n"
            f"dom: {serialize(self.document)}\ndb:  {serialize(rebuilt)}"
        )
        self.check_published_text()
        self.check_label_paths()

    def check_label_paths(self):
        """Edge's and binary's label-path catalog holds every element
        path of the document after every step (it may hold more: a
        deleted subtree leaves its paths behind)."""
        catalog = self.scheme.label_paths
        if catalog is None:
            return
        _version, recorded = catalog.snapshot()
        element_paths = {
            path for path in build_summary(self.document).paths
            if not path[-1].startswith(("@", "#"))
        }
        assert element_paths <= set(recorded), element_paths - set(recorded)

    def check_published_text(self):
        """``write_records`` writes text from rows in one loop over a
        stack of open elements; edge and binary ids stop being document
        order at the first insert, which is exactly where such a walk
        can go wrong.  ``reconstruct_xml`` must equal ``serialize`` of
        the document, and each ``query_xml`` the evaluator's fragments:
        as a multiset always, as a sequence when ``ordered``."""
        assert self.scheme.reconstruct_xml(self.doc_id) == serialize(
            self.document
        )
        for query in PUBLISHED_QUERIES:
            assert_same_results(
                self.scheme.query_xml(self.doc_id, query),
                [
                    serialize(node)
                    for node in evaluate_nodes(self.document, query)
                ],
                self.ordered,
                query,
            )


def assert_same_results(got, expected, ordered, query):
    """*got* holds what *expected* holds; in its order if *ordered*."""
    assert sorted(got) == sorted(expected), query
    if ordered:
        assert got == expected, query


def run_update_sequence(scheme_name, seed, ordered):
    rng = random.Random(seed * 31 + 7)
    with Database() as db:
        scheme = create_scheme(scheme_name, db)
        document = parse_document(START)
        doc_id = scheme.store(document, "inventory").doc_id
        mutator = _Mutator(scheme, doc_id, document, rng, ordered)
        for __ in range(12):
            mutator.step()
        # Queries agree with the evaluator on the mutated document,
        # compared by serialized results (ids are no longer order stamps).
        for query in FINAL_QUERIES:
            assert_same_results(
                [
                    serialize(scheme.reconstruct_subtree(doc_id, pre))
                    for pre in scheme.query_pres(doc_id, query)
                ],
                [serialize(node) for node in evaluate_nodes(document, query)],
                ordered,
                (scheme_name, query),
            )


@pytest.mark.parametrize("scheme_name", UPDATABLE)
@pytest.mark.parametrize("seed", range(3))
def test_random_update_sequence(scheme_name, seed):
    run_update_sequence(scheme_name, seed, ordered=False)


@pytest.mark.parametrize("scheme_name", IN_DOCUMENT_ORDER)
@pytest.mark.parametrize("seed", range(3))
def test_random_update_sequence_in_document_order(scheme_name, seed):
    run_update_sequence(scheme_name, seed, ordered=True)


FRONT = "<r><c><v>1</v></c><c><v>2</v></c></r>"


def front_insert(scheme_name):
    """``/r/c/v`` after ``<c><v>new</v></c>`` goes in first: what the
    store answers and what the evaluator does."""
    with Database() as db:
        scheme = create_scheme(scheme_name, db)
        document = parse_document(FRONT)
        doc_id = scheme.store(document, "r").doc_id
        source = "<c><v>new</v></c>"
        insert_subtree(
            scheme, doc_id, scheme.query_pres(doc_id, "/r")[0],
            parse_fragment(source), index=0,
        )
        document.root_element.insert_child(0, parse_fragment(source))
        assert scheme.reconstruct_xml(doc_id) == serialize(document)
        return (
            scheme.query_xml(doc_id, "/r/c/v"),
            [serialize(n) for n in evaluate_nodes(document, "/r/c/v")],
        )


@pytest.mark.parametrize("scheme_name", UPDATABLE)
def test_front_insert_answers_every_node(scheme_name):
    got, expected = front_insert(scheme_name)
    assert sorted(got) == sorted(expected)


@pytest.mark.parametrize("scheme_name", IN_DOCUMENT_ORDER)
def test_front_insert_answers_in_document_order(scheme_name):
    got, expected = front_insert(scheme_name)
    assert expected == ["<v>new</v>", "<v>1</v>", "<v>2</v>"]
    assert got == expected


@pytest.mark.parametrize("scheme_name", UPDATABLE)
def test_interleaved_insert_delete_same_parent(scheme_name):
    """A tight loop of insert/delete on one parent must keep sibling
    order exact (ordinal bookkeeping is the fiddly part)."""
    with Database() as db:
        scheme = create_scheme(scheme_name, db)
        document = parse_document(
            "<r><a m='0'/><a m='1'/><a m='2'/></r>"
        )
        doc_id = scheme.store(document, "r").doc_id
        root = document.root_element

        def insert(index, marker):
            source = f"<a m='{marker}'/>"
            root_id = scheme.query_pres(doc_id, "/r")[0]
            insert_subtree(
                scheme, doc_id, root_id, parse_fragment(source),
                index=index,
            )
            root.insert_child(index, parse_fragment(source))

        def delete(index):
            victim = root.child_elements()[index]
            db_id = _db_id_of(scheme, doc_id, victim)
            delete_subtree(scheme, doc_id, db_id)
            root.remove_child(victim)

        insert(0, "front")
        insert(4, "back")
        delete(2)
        insert(2, "mid")
        delete(0)
        assert deep_equal(document, scheme.reconstruct(doc_id))
        assert scheme.reconstruct_xml(doc_id) == serialize(document)
        assert scheme.query_xml(doc_id, "/r") == [serialize(root)]
        markers = [
            node.get_attribute("m")
            for node in scheme.reconstruct(doc_id).root_element
            .child_elements()
        ]
        assert markers == ["0", "mid", "2", "back"]
