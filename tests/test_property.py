"""Property-based tests (hypothesis) on the core invariants.

* parse → serialize → parse is the identity on trees,
* the event stream is a lossless linearization,
* Dewey labels: lexicographic order == document order, prefix == ancestor,
* interval encoding: the pre/size window is exactly the descendant set,
* content-model simplification only generalizes,
* all SQL translators agree with the reference evaluator on random
  documents × a pool of queries.
"""

from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.registry import available_schemes
from repro.relational.database import Database
from repro.storage.numbering import dewey_is_ancestor
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
    Comment,
    Document,
    Element,
    NodeKind,
    ProcessingInstruction,
    Text,
    deep_equal,
)
from repro.xml.events import build_tree, parse_events, stream_events
from repro.xpath import evaluate_nodes

from tests.conftest import make_scheme, shred_records
from tests.numbering_oracle import element_content, number_document

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

LABELS = ("a", "b", "c")
#: Names outside ASCII (and ASCII ones with every legal punctuation)
#: that both name tables — ours (Fifth Edition) and expat's (Fourth) —
#: accept.
NAMES = LABELS + ("é", "данные", "名前", "ns:t", "_u.v-1")
SAFE_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from("<>&'\"]-? \t\n\r"),
        st.characters(
            min_codepoint=0x20, exclude_categories=("Cs",),
            exclude_characters="\ufffe\uffff",
        ),
    ),
    min_size=1,
    max_size=12,
)
WHITESPACE_RUN = st.text(alphabet=" \t\n", min_size=1, max_size=4)
# Comments and PIs have no escape mechanism, so no way to carry a \r.
COMMENT_DATA = SAFE_TEXT.filter(
    lambda data: "--" not in data and not data.endswith("-")
    and "\r" not in data
)
# PI data starts in ASCII: run into the target by a deleted space, any
# other letter may be a name character to us and not to expat (the
# `fifth-edition-name` deviation).
PI_DATA = SAFE_TEXT.map(lambda data: data.lstrip(" \t\n")).filter(
    lambda data: "?>" not in data and "\r" not in data
    and data[:1].isascii()
)


@st.composite
def misc_nodes(draw):
    """A comment or a processing instruction."""
    if draw(st.booleans()):
        return Comment(draw(COMMENT_DATA))
    return ProcessingInstruction(
        draw(st.sampled_from(("pi", "xml-style", "é"))),
        draw(st.one_of(st.just(""), PI_DATA)),
    )


@st.composite
def elements(draw, depth: int):
    element = Element(draw(st.sampled_from(NAMES)))
    for name in ("k", "m", "é"):
        if draw(st.booleans()):
            element.set_attribute(name, draw(st.one_of(st.just(""), SAFE_TEXT)))
    if depth > 0 and draw(st.booleans()):
        # Mixed content: elements, whitespace runs, text, comments, PIs.
        for __ in range(draw(st.integers(0, 4))):
            kind = draw(st.integers(0, 5))
            if kind <= 2:
                element.append_child(draw(elements(depth=depth - 1)))
            elif kind == 3:
                element.append_text(draw(WHITESPACE_RUN))
            elif kind == 4:
                element.append_text(draw(SAFE_TEXT))
            else:
                element.append_child(draw(misc_nodes()))
    elif draw(st.booleans()):
        element.append_text(draw(SAFE_TEXT))
    return element


@st.composite
def documents(draw):
    document = Document()
    for __ in range(draw(st.integers(0, 2))):
        document.append_child(draw(misc_nodes()))
    document.append_child(draw(elements(depth=3)))
    for __ in range(draw(st.integers(0, 1))):
        document.append_child(draw(misc_nodes()))
    return document


# One tree has many spellings.  ``xml_sources`` writes a generated
# document the way a hostile-but-conforming author might: either quote
# style, every legal way to escape a character, CDATA sections, entities
# declared in an internal subset, optional whitespace wherever the
# grammar allows it, all three line-end conventions.

_TAG_SPACE = st.sampled_from((" ", "\n", "\t ", "\r\n", " \r"))
_TAG_SPACE_ONE_LINE = st.sampled_from((" ", "\t ", "  "))
#: Characters an entity's replacement text may hold and still mean the
#: same thing to expat, which re-parses it (markup), and to us, who
#: insert it as text: no markup, no quotes, no line ends.
_ENTITY_SAFE = frozenset(
    "abcdefghijklmnopqrstuvwxyz0123456789 .,;:!?-_()/éжя名"
)


class _Writer:
    def __init__(self, draw, tag_space):
        self.draw = draw
        self.tag_space = tag_space
        self.optional_space = st.one_of(st.just(""), tag_space)
        self.entities: list[tuple[str, str]] = []

    def _character(self, ch: str, quote: str | None, following: str) -> str:
        """One character of text (*quote* None) or of an attribute value
        delimited by *quote*, in one of its legal spellings; *following*
        is the character written next, if any."""
        draw = self.draw
        predefined = {"<": "&lt;", ">": "&gt;", "&": "&amp;",
                      "'": "&apos;", '"': "&quot;"}
        must_escape = ch in "<&" or ch == quote or (
            # Literal whitespace in a value is normalized away, a
            # literal \r anywhere is a line end: only a reference
            # carries them through.  '>' stays out of text so no
            # spelling can form a ']]>'.
            ch in "\t\n\r" if quote else ch in "\r>"
        )
        choice = draw(st.integers(0, 9))
        if not must_escape and choice < 8:
            # In text a newline may be any of the three line ends (a
            # lone \r only where it cannot pair up with a \n).
            if ch == "\n" and quote is None:
                ends = ("\n", "\r\n") if following == "\n" else (
                    "\n", "\r\n", "\r"
                )
                return draw(st.sampled_from(ends))
            return ch
        if ch in predefined and choice % 2:
            return predefined[ch]
        if choice % 3:
            return f"&#{ord(ch)};"
        return f"&#x{ord(ch):{draw(st.sampled_from(('x', 'X', '04x')))}};"

    def _run(self, data: str, quote: str | None) -> str:
        """*data* spelled out, parts of it through declared entities
        and (in text) CDATA sections."""
        draw = self.draw
        out = []
        index = 0
        while index < len(data):
            choice = draw(st.integers(0, 11))
            end = min(len(data), index + draw(st.integers(1, 4)))
            piece = data[index:end]
            if choice == 0 and set(piece) <= _ENTITY_SAFE:
                name = f"e{len(self.entities)}"
                self.entities.append((name, piece))
                if draw(st.booleans()):
                    # One level of nesting: an entity naming the first.
                    self.entities.append((name + "n", f"&{name};"))
                    name += "n"
                out.append(f"&{name};")
            elif choice == 1 and quote is None and "]]>" not in piece \
                    and "\r" not in piece:
                out.append(f"<![CDATA[{piece}]]>")
            else:
                out.append("".join(
                    self._character(ch, quote, data[at + 1:at + 2])
                    for at, ch in enumerate(piece, index)
                ))
            index = end
        return "".join(out)

    def node(self, node) -> str:
        draw, space, optional = self.draw, self.tag_space, self.optional_space
        if isinstance(node, Text):
            return self._run(node.data, None)
        if isinstance(node, Comment):
            return f"<!--{node.data}-->"
        if isinstance(node, ProcessingInstruction):
            if node.data:
                return f"<?{node.target}{draw(space)}{node.data}?>"
            return f"<?{node.target}{draw(optional)}?>"
        out = [f"<{node.tag}"]
        for attribute in node.attributes:
            quote = draw(st.sampled_from("'\""))
            out.append(
                f"{draw(space)}{attribute.name}{draw(optional)}="
                f"{draw(optional)}{quote}"
                f"{self._run(attribute.value, quote)}{quote}"
            )
        out.append(draw(optional))
        if not node.children and draw(st.booleans()):
            out.append("/>")
        else:
            out.append(">")
            out.extend(self.node(child) for child in node.children)
            out.append(f"</{node.tag}{draw(optional)}>")
        return "".join(out)


class XmlSource(NamedTuple):
    document: Document
    text: str                      #: one spelling of *document*
    doctype_span: tuple[int, int]  #: its DOCTYPE declaration, or (0, 0)
    root_span: tuple[int, int]     #: its root element


_HEADS = (
    "", "", "\ufeff", '<?xml version="1.0"?>',
    "<?xml version='1.0' encoding='UTF-8' standalone='yes' ?>\r\n",
    '\ufeff<?xml version="1.1"\nencoding="utf-8"?>',
)
#: Declarations the internal subset may hold besides the entities in use.
_SUBSET_EXTRAS = (
    "<!ELEMENT {root} ANY>", "<!-- ] '>' -->", "<?pi ]>?>",
    "<!ATTLIST {root} k CDATA #IMPLIED>", "\n", " ",
    '<!ENTITY unused "]>">',
)


@st.composite
def xml_sources(draw, one_line_tags: bool = False):
    """An :class:`XmlSource`.  With *one_line_tags* no start tag, end
    tag or PI target is broken across lines (content still is)."""
    document = draw(documents())
    space = _TAG_SPACE_ONE_LINE if one_line_tags else _TAG_SPACE
    optional = st.one_of(st.just(""), space)
    writer = _Writer(draw, space)
    between = st.one_of(st.just(""), WHITESPACE_RUN, _TAG_SPACE)
    root_at = document.children.index(document.root_element)
    nodes = [writer.node(child) for child in document.children]
    doctype = ""
    if writer.entities or draw(st.booleans()):
        root = document.root_element.tag
        subset = [
            f"<!ENTITY{draw(space)}{name}{draw(space)}"
            f"{quote}{value}{quote}{draw(optional)}>"
            for name, value in writer.entities
            for quote in (draw(st.sampled_from("'\"")),)
        ]
        subset += [
            extra.format(root=root) for extra in draw(st.lists(
                st.sampled_from(_SUBSET_EXTRAS), max_size=3, unique=True
            ))
        ]
        bracketed = (
            f"[{''.join(subset)}]" if subset or draw(st.booleans()) else ""
        )
        doctype = (
            f"<!DOCTYPE{draw(space)}{root}{draw(optional)}{bracketed}"
            f"{draw(optional)}>"
        )
    # The DOCTYPE may come before the prolog's comments and PIs, after
    # them, or anywhere between.
    prolog = [node + draw(between) for node in nodes[:root_at]]
    doctype_index = draw(st.integers(0, len(prolog)))
    head = draw(st.sampled_from(_HEADS))
    if not head or head.endswith(">"):
        head += draw(between)
    before = head + "".join(prolog[:doctype_index])
    after = (draw(between) if doctype else "") + "".join(
        prolog[doctype_index:]
    )
    root_start = len(before) + len(doctype) + len(after)
    # The last character is never a lone \r (nor one deletion away
    # from it): see the `trailing-cr-at-eof` deviation.
    epilog = "".join(
        draw(between) + node for node in nodes[root_at + 1:]
    ) + draw(st.sampled_from(("", " ", "\n", "\t\n")))
    text = before + doctype + after + nodes[root_at] + epilog
    return XmlSource(
        document, text,
        (len(before), len(before) + len(doctype)) if doctype else (0, 0),
        (root_start, root_start + len(nodes[root_at])),
    )


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
