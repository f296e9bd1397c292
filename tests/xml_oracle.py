"""Independent XML oracles for the pull parser (test-only).

:func:`expat_events` drives stdlib ``xml.parsers.expat`` — a parser
that shares no code with :mod:`repro.xml.stream` — and reports what it
saw in our :class:`~repro.xml.events.Event` vocabulary, so a test can
compare the two event for event.  A rejected document comes back as
:class:`OracleReject` carrying expat's error line.

:func:`lxml_events` is the same adapter over lxml (libxml2), a second
opinion when lxml is importable; callers ``pytest.importorskip`` it.
"""

from xml.parsers import expat

from repro.errors import XmlSyntaxError
from repro.xml.events import Event, EventKind
from repro.xml.stream import iter_events

_XML_WHITESPACE = " \t\r\n"

#: Chunk sizes that land refills mid-tag, mid-text and beyond EOF.
CHUNKS = (7, 64, 8192)


class OracleReject(Exception):
    """The oracle found the document not well formed."""

    def __init__(self, message, line):
        super().__init__(f"{message} (line {line})")
        self.line = line


def _merge_text(events, keep_whitespace):
    """Adjacent TEXT events become one (expat splits long runs at its
    buffer size); whitespace-only runs are dropped on request — the
    ``ParseOptions.keep_whitespace=False`` contract."""
    merged = []
    for event in events:
        if (event.kind is EventKind.TEXT and merged
                and merged[-1].kind is EventKind.TEXT):
            merged[-1] = Event(
                EventKind.TEXT, None, merged[-1].value + event.value
            )
        else:
            merged.append(event)
    if keep_whitespace:
        return merged
    return [
        event for event in merged
        if event.kind is not EventKind.TEXT
        or event.value.strip(_XML_WHITESPACE)
    ]


def expat_events(text, keep_whitespace=True):
    """The event sequence expat reports for *text* (a ``str``).

    pyexpat encodes a ``str`` as UTF-8 and overrides whatever encoding
    the XML declaration names, which is also our contract: input is
    already text.
    """
    events = [Event(EventKind.START_DOCUMENT)]
    parser = expat.ParserCreate()
    parser.buffer_text = True
    parser.ordered_attributes = True

    def start(name, attributes):
        events.append(Event(EventKind.START_ELEMENT, name))
        for index in range(0, len(attributes), 2):
            events.append(Event(
                EventKind.ATTRIBUTE, attributes[index], attributes[index + 1]
            ))

    parser.StartElementHandler = start
    parser.EndElementHandler = lambda name: events.append(
        Event(EventKind.END_ELEMENT, name)
    )
    parser.CharacterDataHandler = lambda data: events.append(
        Event(EventKind.TEXT, None, data)
    )
    # Comments and PIs inside the DOCTYPE belong to the DTD, not to the
    # document's event stream.
    in_doctype = []
    parser.StartDoctypeDeclHandler = lambda *_: in_doctype.append(True)
    parser.EndDoctypeDeclHandler = in_doctype.clear

    def comment(data):
        if not in_doctype:
            events.append(Event(EventKind.COMMENT, None, data))

    def instruction(target, data):
        if not in_doctype:
            events.append(
                Event(EventKind.PROCESSING_INSTRUCTION, target, data)
            )

    parser.CommentHandler = comment
    parser.ProcessingInstructionHandler = instruction
    try:
        parser.Parse(text, True)
    except expat.ExpatError as error:
        raise OracleReject(
            expat.ErrorString(error.code), error.lineno
        ) from None
    events.append(Event(EventKind.END_DOCUMENT))
    return _merge_text(events, keep_whitespace)


def expat_outcome(text, keep_whitespace=True):
    """:func:`expat_events`, with a rejection returned, not raised."""
    try:
        return expat_events(text, keep_whitespace)
    except OracleReject as reject:
        return reject


def chunked_reader(text, chunk):
    """A file-like over *text* that returns *chunk* chars per read."""
    state = {"pos": 0}

    class _Reader:
        def read(self, count):
            start = state["pos"]
            state["pos"] = start + chunk
            return text[start:start + chunk]

    return _Reader()


def parser_outcome(source, options=None):
    """Our events for *source*, or the :class:`XmlSyntaxError` it ends
    in.  Anything else the parser raises is a defect and propagates."""
    try:
        return list(iter_events(source, options))
    except XmlSyntaxError as error:
        return error


def assert_agree(ours, oracle, context, compare_line=True):
    """Same verdict; same events if accepted, same line if rejected."""
    if isinstance(oracle, OracleReject):
        assert isinstance(ours, XmlSyntaxError), (
            f"accepted what the oracle rejects ({oracle})", context
        )
        if compare_line:
            assert ours.line == oracle.line, (
                str(ours), str(oracle), context
            )
    else:
        assert not isinstance(ours, XmlSyntaxError), (
            f"rejected what the oracle accepts: {ours}", context
        )
        assert ours == oracle, context


def lxml_events(text, keep_whitespace=True):
    """The event sequence lxml reports for *text* (requires lxml)."""
    from lxml import etree

    parser = etree.XMLParser(
        resolve_entities=True, remove_blank_text=False, strip_cdata=True,
        load_dtd=False, no_network=True,
    )
    try:
        root = etree.fromstring(text.encode("utf-8"), parser)
    except etree.XMLSyntaxError as error:
        raise OracleReject(error.msg, error.lineno) from None
    events = [Event(EventKind.START_DOCUMENT)]

    def misc(node):
        if node.tag is etree.Comment:
            events.append(Event(EventKind.COMMENT, None, node.text or ""))
        else:
            events.append(Event(
                EventKind.PROCESSING_INSTRUCTION, node.target,
                node.text or "",
            ))

    def walk(node):
        if not isinstance(node.tag, str):
            misc(node)
        else:
            events.append(Event(EventKind.START_ELEMENT, node.tag))
            for name, value in node.attrib.items():
                events.append(Event(EventKind.ATTRIBUTE, name, value))
            if node.text:
                events.append(Event(EventKind.TEXT, None, node.text))
            for child in node:
                walk(child)
            events.append(Event(EventKind.END_ELEMENT, node.tag))
        if node.tail and node.getparent() is not None:
            events.append(Event(EventKind.TEXT, None, node.tail))

    before = []
    sibling = root.getprevious()
    while sibling is not None:
        before.append(sibling)
        sibling = sibling.getprevious()
    for node in reversed(before):
        misc(node)
    walk(root)
    sibling = root.getnext()
    while sibling is not None:
        misc(sibling)
        sibling = sibling.getnext()
    events.append(Event(EventKind.END_DOCUMENT))
    return _merge_text(events, keep_whitespace)
