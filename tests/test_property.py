"""Property-based tests (hypothesis) on the core invariants.

* parse → serialize → parse is the identity on trees,
* the event stream is a lossless linearization,
* Dewey labels: lexicographic order == document order, prefix == ancestor,
* interval encoding: the pre/size window is exactly the descendant set,
* content-model simplification only generalizes,
* all SQL translators agree with the reference evaluator on random
  documents × a pool of queries.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.registry import available_schemes
from repro.relational.database import Database
from repro.storage.numbering import (
    dewey_is_ancestor,
    number_document,
)
from repro.workloads.treegen import TreeProfile, generate_tree
from repro.xml import parse_document, serialize
from repro.xml.contentmodel import (
    ChoiceParticle,
    ContentModel,
    NameParticle,
    SequenceParticle,
    fields_accept,
    simplify,
)
from repro.xml.dom import (
    Document,
    Element,
    NodeKind,
    Text,
    deep_equal,
)
from repro.storage.interval import element_content
from repro.xml.events import build_tree, parse_events, stream_events
from repro.xpath import evaluate_nodes

from tests.conftest import make_scheme, shred_records

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

LABELS = ("a", "b", "c")
SAFE_TEXT = st.text(
    alphabet=st.characters(
        min_codepoint=0x20, max_codepoint=0xD7FF, exclude_characters="\r"
    ),
    min_size=1,
    max_size=12,
)


@st.composite
def elements(draw, depth: int):
    element = Element(draw(st.sampled_from(LABELS)))
    for name in ("k", "m"):
        if draw(st.booleans()):
            element.set_attribute(name, draw(SAFE_TEXT))
    if depth > 0 and draw(st.booleans()):
        for __ in range(draw(st.integers(0, 3))):
            element.append_child(draw(elements(depth=depth - 1)))
    elif draw(st.booleans()):
        element.append_text(draw(SAFE_TEXT))
    return element


@st.composite
def documents(draw):
    document = Document()
    document.append_child(draw(elements(depth=3)))
    return document


# ---------------------------------------------------------------------------
# Parser / serializer / events
# ---------------------------------------------------------------------------


class TestRoundtrips:
    @given(documents())
    @settings(max_examples=60, deadline=None)
    def test_serialize_parse_identity(self, document):
        assert deep_equal(document, parse_document(serialize(document)))

    @given(documents())
    @settings(max_examples=60, deadline=None)
    def test_event_stream_lossless(self, document):
        assert deep_equal(document, build_tree(stream_events(document)))

    @given(documents())
    @settings(max_examples=30, deadline=None)
    def test_double_serialize_stable(self, document):
        once = serialize(document)
        assert serialize(parse_document(once)) == once


# ---------------------------------------------------------------------------
# Numbering invariants
# ---------------------------------------------------------------------------


class TestNumberingInvariants:
    @given(documents())
    @settings(max_examples=40, deadline=None)
    def test_dewey_order_and_prefix(self, document):
        records = number_document(document)
        labels = [r.dewey for r in records]
        assert labels == sorted(labels)
        by_pre = {r.pre: r for r in records}
        for record in records:
            if record.parent_pre == 0:
                continue
            parent = by_pre[record.parent_pre]
            assert dewey_is_ancestor(parent.dewey, record.dewey)

    @given(documents())
    @settings(max_examples=40, deadline=None)
    def test_interval_window_is_descendant_set(self, document):
        records = number_document(document)
        by_pre = {r.pre: r for r in records}
        for record in records:
            window = {
                r.pre for r in records
                if record.pre < r.pre <= record.pre + record.size
            }
            # Compute true descendants via parent links.
            descendants = set()
            for other in records:
                current = other
                while current.parent_pre:
                    if current.parent_pre == record.pre:
                        descendants.add(other.pre)
                        break
                    current = by_pre[current.parent_pre]
            assert window == descendants

    @given(documents())
    @settings(max_examples=40, deadline=None)
    def test_event_stack_matches_dom_walk(self, document):
        """The store path's numbering (an event stack, content cached
        at close time) against the recursive walk + second content
        pass — from the tree's own events and from its re-parsed text."""
        reference = number_document(document)
        contents = element_content(reference)
        for events in (
            stream_events(document),
            parse_events(serialize(document)),
        ):
            records, shredded_contents, count, root = shred_records(events)
            assert records == reference
            assert shredded_contents == contents
            assert count == len(reference)
            assert root == document.root_element.tag

    @given(documents())
    @settings(max_examples=40, deadline=None)
    def test_post_order_consistent(self, document):
        records = number_document(document)
        by_pre = {r.pre: r for r in records}
        for record in records:
            if record.parent_pre:
                assert record.post < by_pre[record.parent_pre].post


# ---------------------------------------------------------------------------
# Content-model simplification
# ---------------------------------------------------------------------------


@st.composite
def particles(draw, depth: int):
    occurrence = draw(st.sampled_from(["", "?", "*", "+"]))
    if depth == 0 or draw(st.booleans()):
        return NameParticle(draw(st.sampled_from(LABELS)), occurrence)
    children = [
        draw(particles(depth=depth - 1))
        for __ in range(draw(st.integers(1, 3)))
    ]
    cls = SequenceParticle if draw(st.booleans()) else ChoiceParticle
    return cls(children, occurrence)


@st.composite
def words(draw):
    return [
        draw(st.sampled_from(LABELS))
        for __ in range(draw(st.integers(0, 6)))
    ]


class TestSimplificationProperty:
    @given(particles(depth=3), st.lists(words(), max_size=8))
    @settings(max_examples=80, deadline=None)
    def test_simplified_accepts_everything_original_accepts(
        self, particle, candidates
    ):
        model = ContentModel.children(particle)
        fields = simplify(model)
        for word in candidates:
            if model.matches(word):
                assert fields_accept(fields, word), (
                    f"{model} accepts {word} but {fields} rejects it"
                )

    @given(particles(depth=3))
    @settings(max_examples=60, deadline=None)
    def test_simplification_quantifiers_valid(self, particle):
        fields = simplify(ContentModel.children(particle))
        names = [name for name, __ in fields]
        assert len(set(names)) == len(names)  # merged duplicates
        assert all(q in ("1", "?", "*") for __, q in fields)


# ---------------------------------------------------------------------------
# Differential: random documents × query pool × all schemes
# ---------------------------------------------------------------------------

QUERY_POOL = [
    "/root/a",
    "/root/*",
    "//a",
    "//b/c",
    "/root//c",
    "//a/@k",
    "//b/text()",
    "/root/a[b]",
    "//a[@k = 'v1']",
    "//b[c/text() = 'v2']",
    "//a[not(@m)]",
    "//c[contains(text(), 'v')]",
    "//a[@k and @m]",
]

SQL_SCHEMES = [n for n in available_schemes() if n != "inlining"]


@pytest.mark.parametrize("seed", range(8))
def test_differential_random_documents(seed):
    profile = TreeProfile(
        depth=4, min_fanout=1, max_fanout=3,
        labels=("a", "b", "c"), value_domain=4,
    )
    document = generate_tree(profile, seed=seed)
    expected = {
        q: sorted(
            n.order_key for n in evaluate_nodes(document, q)
            if n.order_key > 0
        )
        for q in QUERY_POOL
    }
    for scheme_name in SQL_SCHEMES:
        if scheme_name == "universal":
            continue  # wildcard/kind steps unsupported; covered elsewhere
        with Database() as db:
            scheme = make_scheme(scheme_name, db)
            doc_id = scheme.store(document, f"rand{seed}").doc_id
            for query, answer in expected.items():
                got = scheme.query_pres(doc_id, query)
                assert got == answer, (scheme_name, query)


@pytest.mark.parametrize("seed", range(4))
def test_differential_reconstruction(seed):
    profile = TreeProfile(depth=5, min_fanout=1, max_fanout=4)
    document = generate_tree(profile, seed=seed)
    for scheme_name in SQL_SCHEMES:
        if scheme_name == "universal":
            continue  # random trees are recursive; universal rejects them
        with Database() as db:
            scheme = make_scheme(scheme_name, db)
            doc_id = scheme.store(document, f"rand{seed}").doc_id
            assert deep_equal(document, scheme.reconstruct(doc_id)), (
                scheme_name
            )
