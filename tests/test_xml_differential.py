"""The one XML parser against parsers that share no code with it.

The subject is :mod:`repro.xml.stream`; the oracle is stdlib expat
behind ``tests/xml_oracle.py``.  Hypothesis writes documents in every
legal spelling (``tests/test_property.py::xml_sources``) and then
damages them one character at a time; the two parsers must agree on
the event sequence, on accept/reject, and — for a reject — on the
line, and ours may fail only with :class:`XmlSyntaxError`.  Where we
differ from expat on purpose, the case is a named row of
:data:`DEVIATIONS`: a closed list, each row its own test.

The same generated documents then check the ground truth of every
storage scheme, the in-memory XPath evaluator, against
``xml.etree.ElementTree.findall`` (which parses with expat, so the
comparison also cross-checks ``build_tree``).

The profile is fixed (``derandomize=True``) so a CI failure reproduces
bit for bit; shrunk counterexamples found while building the parser are
pinned as ``@example``\\ s.
"""

import xml.etree.ElementTree as ET
from xml.parsers import expat

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import XmlSyntaxError
from repro.workloads import generate_auction, generate_dblp
from repro.xml import parse_document, serialize
from repro.xml.events import EventKind, stream_events
from repro.xml.parser import MAX_ELEMENT_DEPTH, ParseOptions
from repro.xpath import evaluate_nodes

from tests.test_property import NAMES, XmlSource, xml_sources
from tests.xml_oracle import (
    CHUNKS,
    OracleReject,
    assert_agree,
    chunked_reader,
    expat_events,
    expat_outcome,
    parser_outcome,
)

#: 500 documents per run, each also parsed with whitespace dropped and
#: damaged :data:`MUTATIONS_PER_DOCUMENT` times.
DIFFERENTIAL = settings(max_examples=500, derandomize=True, deadline=None)
MUTATIONS_PER_DOCUMENT = 6

#: What a single-character insert or replace may put in: every
#: delimiter of the grammar, the line ends, legal and illegal controls,
#: a non-ASCII letter.
MUTATION_ALPHABET = "<>&;\"'/=!?-[]#%x: \n\r\t\x00\x0b\x7f\ufffeé"


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    return tmp_path_factory.mktemp("differential") / "doc.xml"


# -- generated documents -------------------------------------------------------


def _pinned(text):
    """An :class:`XmlSource` for a counterexample kept as text."""
    return XmlSource(parse_document(text), text, (0, 0), (0, 0))


@given(xml_sources())
# Shrunk counterexamples from building the parser: a ']' inside a PI
# ended the internal subset; \r\n survived into text and, doubled,
# into attribute values; a reference to U+000D is not a line end.
@example(_pinned("<!DOCTYPE a[<?pi ]>?>]><a></a>"))
@example(_pinned('<r a="x\r\ny">l1\r\nl2\r</r>'))
@example(_pinned("<a é=''><![CDATA[  ]]>\r\n\t &#13;\n<a></a></a>"))
@DIFFERENTIAL
def test_generated_documents_match_expat(scratch_file, source):
    document, text = source.document, source.text
    expected = expat_events(text)
    # The tree the text was written from, expat, and us: one answer.
    assert list(stream_events(document)) == expected, text
    assert parser_outcome(text) == expected, text
    for chunk in CHUNKS:
        assert parser_outcome(chunked_reader(text, chunk)) == expected, (
            text, chunk
        )
    # newline="": the bytes as written, \r included, as a caller's own
    # file object may deliver them.
    with open(scratch_file, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    assert parser_outcome(scratch_file) == expected, text
    with open(scratch_file, encoding="utf-8", newline="") as handle:
        assert parser_outcome(handle) == expected, text
    dropped = ParseOptions(keep_whitespace=False)
    assert parser_outcome(text, dropped) == expat_events(
        text, keep_whitespace=False
    ), text


def _mutate(text, kind, index, ch):
    if kind == "delete":
        return text[:index] + text[index + 1:]
    if kind == "insert":
        return text[:index] + ch + text[index:]
    return text[:index] + ch + text[index + 1:]


@given(xml_sources(one_line_tags=True), st.data())
@DIFFERENTIAL
def test_mutated_documents_match_expat(source, data):
    """One character deleted, inserted or replaced, and still: the same
    verdict, the same events, no exception but :class:`XmlSyntaxError`,
    the same error text at any chunk size.  What else is compared
    depends on where the damage is:

    * inside the root element, the error line too (tags are kept on one
      line: see the ``error-line-inside-tag`` deviation);
    * in the prolog or epilog, not the line — expat runs its DTD
      tokenizer there, and where *that* gives up is its own business
      (``stray-quote-outside-root``);
    * inside the DOCTYPE declaration, only the error class: that text
      belongs to :mod:`repro.xml.dtd`, a parser with its own suite and
      a validating parser's strictness.
    """
    text = source.text
    for _ in range(MUTATIONS_PER_DOCUMENT):
        kind = data.draw(st.sampled_from(("delete", "insert", "replace")))
        index = data.draw(st.integers(0, len(text) - 1))
        ch = data.draw(st.sampled_from(MUTATION_ALPHABET))
        mutated = _mutate(text, kind, index, ch)
        ours = parser_outcome(mutated)
        small = parser_outcome(chunked_reader(mutated, CHUNKS[0]))
        assert str(small) == str(ours) and type(small) is type(ours), (
            mutated
        )
        if _within(source.doctype_span, kind, index):
            continue
        assert_agree(
            ours, expat_outcome(mutated), mutated,
            compare_line=_within(source.root_span, kind, index),
        )


def _within(span, kind, index):
    """Is the mutated character inside *span*?  (An insert at the
    span's first index lands before it.)"""
    return span[0] + (kind == "insert") <= index < span[1]


# -- where we differ on purpose -------------------------------------------------

#: name → (document, what we do, what expat does): "reject", or the
#: value of the first TEXT/ATTRIBUTE event of an accepted document
#: (None if it has none) — the event that shows the difference.
DEVIATIONS = {
    # Replacement text is inserted as text, never re-parsed as markup.
    "entity-with-markup": (
        '<!DOCTYPE a [<!ENTITY e "x<b/>y">]><a>&e;</a>', "x<b/>y", "x",
    ),
    # The DTD is read for entities and content models, not applied to
    # attributes: no defaults, no tokenized-type normalization.
    "attlist-default": (
        '<!DOCTYPE a [<!ATTLIST a k CDATA "d">]><a/>', None, "d",
    ),
    "attlist-tokenized": (
        '<!DOCTYPE a [<!ATTLIST a k NMTOKENS #IMPLIED>]><a k=" x  y "/>',
        " x  y ", "x y",
    ),
    # No external subset is ever read, so an undeclared entity is
    # always an error; expat lets it pass when a subset it did not
    # read might have declared it.
    "external-subset-entity": (
        '<!DOCTYPE a SYSTEM "a.dtd"><a>&e;</a>', "reject", None,
    ),
    # Names follow XML 1.0 Fifth Edition, expat the Fourth: U+0220 is
    # a letter only in the newer table.
    "fifth-edition-name": ("<Ƞ/>", None, "reject"),
    # Resource bounds expat does not have.
    "nesting-bound": (
        "<n>" * (MAX_ELEMENT_DEPTH + 1) + "</n>" * (MAX_ELEMENT_DEPTH + 1),
        "reject", None,
    ),
    "entity-depth-bound": (
        "<!DOCTYPE a [<!ENTITY e0 'x'>"
        + "".join(f"<!ENTITY e{i + 1} '&e{i};'>" for i in range(40))
        + "]><a>&e40;</a>",
        "reject", "x",
    ),
}


def _shown(outcome):
    if isinstance(outcome, (XmlSyntaxError, OracleReject)):
        return "reject"
    values = [
        event.value for event in outcome
        if event.kind in (EventKind.TEXT, EventKind.ATTRIBUTE)
    ]
    return values[0] if values else None


@pytest.mark.parametrize("name", DEVIATIONS)
def test_named_deviation(name):
    text, ours, theirs = DEVIATIONS[name]
    assert _shown(parser_outcome(text)) == ours
    assert _shown(expat_outcome(text)) == theirs


#: name → (document, our error line, expat's).  Both parsers reject;
#: they point at different lines, each by its own consistent rule.
LINE_DEVIATIONS = {
    # An error inside a start tag: we point at the offending character,
    # expat at the line the tag starts on.
    "error-line-inside-tag": ('<a\n\nk="&nope;"/>', 3, 1),
    # Outside the root element expat runs its DTD tokenizer, to which
    # a quote opens a literal; it gives up after the matching quote.
    # We point at the stray character itself.
    "stray-quote-outside-root": ('"\n<a k="v"/>', 1, 2),
    # Input that ends in a lone \r inside an open element: the \r is a
    # line end to us (end of input is on the next line); expat has not
    # yet counted it.
    "trailing-cr-at-eof": ("<a>\r", 2, 1),
}


@pytest.mark.parametrize("name", LINE_DEVIATIONS)
def test_named_line_deviation(name):
    text, ours, theirs = LINE_DEVIATIONS[name]
    assert parser_outcome(text).line == ours
    assert expat_outcome(text).line == theirs


def test_declared_encoding_is_ignored():
    """Input is already text, so the declaration's ``encoding`` is
    checked for syntax and otherwise ignored — as pyexpat does for a
    ``str``, and unlike expat on the same characters as bytes."""
    text = '<?xml version="1.0" encoding="no-such-encoding"?><a>é</a>'
    assert parser_outcome(text) == expat_events(text)
    with pytest.raises(LookupError, match="unknown encoding"):
        expat_events(text.encode("utf-8"))


def test_lxml_second_opinion():
    pytest.importorskip("lxml")
    from tests.test_streaming import WELL_FORMED
    from tests.xml_oracle import lxml_events

    for text in WELL_FORMED:
        assert parser_outcome(text) == lxml_events(text), text


# -- the evaluator against ElementTree ------------------------------------------

#: The subset of XPath that ``ElementTree.findall`` implements with
#: XPath's meaning.  (Its positions count same-tag siblings, which is
#: XPath's count only after a name test — so no ``*[n]``.)
ET_PATHS = [
    "./*",
    ".//*",
    ".//a",
    "./a/b",
    ".//b/*",
    ".//*[@k]",
    ".//a[@k='v']",
    ".//*[b]",
    ".//a[1]",
    ".//b[last()]",
    ".//c[last()-1]",
    ".//b/c[2]",
]


def _et_root(text):
    """*text* as an ElementTree, built by expat without namespace
    processing (``ET.fromstring`` would reject the ``ns:t`` tags)."""
    builder = ET.TreeBuilder()
    parser = expat.ParserCreate()
    parser.buffer_text = True
    parser.StartElementHandler = builder.start
    parser.EndElementHandler = builder.end
    parser.CharacterDataHandler = builder.data
    parser.Parse(text, True)
    return builder.close()


def _assert_findall_agrees(text, paths):
    """``evaluate_nodes`` on our tree of *text* and ``findall`` on
    ElementTree's select the same elements — compared as (tag,
    document-order rank), the one identity the two trees share."""
    document = parse_document(text)
    top = document.root_element
    root = _et_root(text)
    ours = [top] + evaluate_nodes(top, "descendant::*")
    theirs = list(root.iter())
    assert [node.tag for node in ours] == [node.tag for node in theirs]
    rank = {id(node): index for index, node in enumerate(ours)}
    et_rank = {id(node): index for index, node in enumerate(theirs)}
    for path in paths:
        expected = [
            (node.tag, et_rank[id(node)]) for node in root.findall(path)
        ]
        got = [
            (node.tag, rank[id(node)]) for node in evaluate_nodes(top, path)
        ]
        assert got == expected, (path, text)


@given(xml_sources())
@settings(max_examples=150, derandomize=True, deadline=None)
def test_evaluator_matches_elementtree_on_generated(source):
    names = [name for name in NAMES if ":" not in name]
    _assert_findall_agrees(
        source.text, ET_PATHS + [f".//{name}" for name in names[3:]]
    )


@pytest.mark.parametrize("corpus", ["auction", "dblp"])
def test_evaluator_matches_elementtree_on_corpora(corpus):
    if corpus == "auction":
        document = generate_auction(0.01, seed=42)
        paths = [
            "./regions/*/item", ".//item[@id]", ".//item/name",
            ".//person[1]", ".//bidder[last()]", ".//*[location]",
            ".//open_auction/bidder[2]", ".//item[@featured='yes']",
        ]
    else:
        document = generate_dblp(record_count=40, seed=7)
        paths = [
            "./*", ".//author", ".//article/title", ".//*[@key]",
            ".//inproceedings[1]", ".//author[last()]", ".//*[year]",
            ".//article[@mdate='2002-01-03']",
        ]
    _assert_findall_agrees(serialize(document), paths + ET_PATHS)
