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

    def __init__(self, scheme, doc_id, document, rng):
        self.scheme = scheme
        self.doc_id = doc_id
        self.document = document
        self.rng = rng
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
        """The rows → events → text lane walks a stack of open
        elements; edge and binary ids stop being document order at the
        first insert, which is exactly where such a walk can go wrong.
        Result order follows ids, so fragments compare as multisets."""
        assert self.scheme.reconstruct_xml(self.doc_id) == serialize(
            self.document
        )
        for query in PUBLISHED_QUERIES:
            assert sorted(self.scheme.query_xml(self.doc_id, query)) == sorted(
                serialize(node)
                for node in evaluate_nodes(self.document, query)
            ), query


@pytest.mark.parametrize("scheme_name", UPDATABLE)
@pytest.mark.parametrize("seed", range(3))
def test_random_update_sequence(scheme_name, seed):
    rng = random.Random(seed * 31 + 7)
    with Database() as db:
        scheme = create_scheme(scheme_name, db)
        document = parse_document(START)
        doc_id = scheme.store(document, "inventory").doc_id
        mutator = _Mutator(scheme, doc_id, document, rng)
        for __ in range(12):
            mutator.step()
        # Queries agree with the evaluator on the mutated document,
        # compared by serialized results (ids are no longer order stamps).
        for query in FINAL_QUERIES:
            got_xml = sorted(
                serialize(scheme.reconstruct_subtree(doc_id, pre))
                for pre in scheme.query_pres(doc_id, query)
            )
            expected_xml = sorted(
                serialize(node) for node in evaluate_nodes(document, query)
            )
            assert got_xml == expected_xml, (scheme_name, query)


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
