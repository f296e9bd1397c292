"""The XML 1.0 parser: a streaming pull parser with O(depth) memory.

:func:`iter_events` turns an XML source — a text string, a file object,
or anything with ``read(n)`` — into an
:class:`~repro.xml.events.Event` stream *without materializing a tree*.
The working set is the open-element stack plus one ~64 KiB read buffer,
so documents far larger than memory shred fine; this is what
:meth:`~repro.core.store.XmlRelStore.store_stream` and the sharded
corpus loader are built on, and :func:`~repro.xml.parser.parse_document`
is :func:`~repro.xml.events.build_tree` over the same events.

Two pieces:

* :class:`ChunkedScanner` — a :class:`~repro.xml.lexer.Scanner` whose
  buffer refills from a reader on demand and compacts consumed text,
  so every scanning primitive (``peek``/``looking_at``/``read_name``/
  ``read_until``/…) works across chunk boundaries.  Text enters it
  with XML 1.0 §2.11 line ends (``\\r\\n`` and lone ``\\r`` → ``\\n``),
  and line/column error positions stay exact across compaction.
* :class:`PullParser` — prolog, DOCTYPE (internal DTD → entity table),
  attributes, entity expansion, comments, PIs, and an explicit-stack
  element loop that *yields* events as tags open and close, so nothing
  above the current path is retained.  Adjacent character data, CDATA
  sections and entity expansions merge into one TEXT event — one text
  node of the XPath data model.

The independent check of all this is stdlib expat, event for event
(``tests/xml_oracle.py``, ``tests/test_xml_differential.py``).
"""

from __future__ import annotations

import os
import re
from collections.abc import Iterator
from contextlib import contextmanager

from repro.xml import dtd as dtd_module
from repro.xml.chars import (
    WHITESPACE,
    is_name_char,
    is_name_start_char,
    is_whitespace,
    is_xml_char,
)
from repro.xml.events import Event, EventKind
from repro.xml.lexer import Scanner
from repro.xml.parser import MAX_ELEMENT_DEPTH, ParseOptions

#: Bytes of source text pulled per refill.
CHUNK_SIZE = 64 * 1024

#: Consumed prefix beyond which the buffer is compacted on refill.
COMPACT_THRESHOLD = 64 * 1024

#: Buffered lookahead guaranteed before trying a fast-path tag match.
_FAST_LOOKAHEAD = 4096

_PREDEFINED_ENTITIES = {
    "lt": "<",
    "gt": ">",
    "amp": "&",
    "apos": "'",
    "quot": '"',
}

_MAX_ENTITY_DEPTH = 32

# What the XML ``Char`` production excludes: the C0 controls other than
# tab/newline/return, surrogates, U+FFFE and U+FFFF.
_NOT_CHAR = "\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff"
_ILLEGAL_CHAR = re.compile("[" + _NOT_CHAR + "]")

# Attribute-value normalization of literal whitespace (the scanner has
# already turned every literal ``\r`` into ``\n``).
_ATTR_WHITESPACE = str.maketrans("\t\n", "  ")

# C-speed fast paths for the two hottest productions.  The character
# classes are the ASCII subsets of NameStartChar/NameChar; attribute
# values additionally exclude ``&`` (entities), ``<`` (illegal), and
# tab/newline (attribute-value normalization), and neither values nor
# text may hold a non-``Char`` — any tag these regexes cannot match
# falls back to the general scanner-primitive path, so they are pure
# accelerators, never semantics.
_ASCII_NAME = r"[A-Za-z_:][A-Za-z0-9_:.\-]*"
_FAST_VALUE = (
    "(?:\"[^\"&<\t\n" + _NOT_CHAR + "]*\"|'[^'&<\t\n" + _NOT_CHAR + "]*')"
)
_FAST_ATTRS = (
    "((?:[ \t\n]+" + _ASCII_NAME + "[ \t\n]*=[ \t\n]*" + _FAST_VALUE + ")*)"
)
_FAST_START_TAG = re.compile(
    "<(" + _ASCII_NAME + ")" + _FAST_ATTRS + "[ \t\n]*(/?)>"
)
_FAST_ATTR = re.compile(
    "(" + _ASCII_NAME + ")[ \t\n]*=[ \t\n]*"
    "(?:\"([^\"]*)\"|'([^']*)')"
)
_FAST_END_TAG = re.compile("</(" + _ASCII_NAME + ")[ \t\n]*>")
# A whole leaf element — ``<tag a="v">plain text</tag>`` — in one match.
# The backreference pins the end tag to the start tag; the text may not
# contain markup or entities.  Data-oriented XML is mostly such leaves,
# so this skips the per-element content loop for the common case.
_FAST_LEAF = re.compile(
    "<(" + _ASCII_NAME + ")" + _FAST_ATTRS + "[ \t\n]*>"
    "([^<&" + _NOT_CHAR + "]*)"
    "</\\1[ \t\n]*>"
)

# XMLDecl after ``<?xml``: version, then optional encoding, then
# optional standalone.  VersionNum is any token of name-ish characters
# (XML 1.0 second edition; also what expat reads): "1.1", "2.0" pass.
_S, _EQ = "[ \t\n]+", "[ \t\n]*=[ \t\n]*"


def _quoted(pattern: str) -> str:
    return f"(?:\"{pattern}\"|'{pattern}')"


_XML_DECLARATION = re.compile(
    _S + "version" + _EQ + _quoted(r"[A-Za-z0-9._\-]+")
    + "(?:" + _S + "encoding" + _EQ + _quoted(r"[A-Za-z][A-Za-z0-9._\-]*")
    + ")?(?:" + _S + "standalone" + _EQ + _quoted("(?:yes|no)")
    + ")?[ \t\n]*"
)

# Where a run of plain characters ends: in content, in an attribute
# value (by its quote), in the internal DTD subset.
_TEXT_STOP = re.compile("[<&]")
_VALUE_STOP = {'"': re.compile('["&<]'), "'": re.compile("['&<]")}
_SUBSET_STOP = re.compile("[]'\"<]")
# Sections of the internal subset that may hold a ']' (or anything
# else) without ending it; a bare '<' opens a declaration.
_SUBSET_SECTIONS = (
    ("'", "'"), ('"', '"'), ("<!--", "-->"), ("<?", "?>"), ("<", ""),
)


class ChunkedScanner(Scanner):
    """A :class:`Scanner` over an incrementally-read source.

    The buffer holds a sliding window of the source; ``_refill`` appends
    the next chunk and drops the consumed prefix once it exceeds
    :data:`COMPACT_THRESHOLD` (remembering how many lines, and how many
    columns of the current line, went with it, so :meth:`line_column`
    stays exact; the start of a markup token still open is kept, so an
    error can point back at it).  All multi-character reads accumulate
    parts across refills instead of slicing the buffer afterwards — a
    refill may move ``pos`` — and check what they read against the
    ``Char`` production.
    """

    __slots__ = ("_read", "_eof", "_held_cr", "lines_before",
                 "columns_before", "token_start")

    def __init__(self, read) -> None:
        super().__init__("")
        self._read = read
        self._eof = False
        self._held_cr = False    # a chunk ended in '\r': is '\n' next?
        self.lines_before = 0    # newlines dropped before source[0]
        self.columns_before = 0  # chars dropped since the last of them
        self.token_start: int | None = None  # offset of the open token

    # -- buffer management ----------------------------------------------------

    def _next_chunk(self) -> str:
        """The next non-empty chunk, line ends normalized per XML 1.0
        §2.11 (``\\r\\n`` and lone ``\\r`` become ``\\n``); '' at end of
        input.  A trailing ``\\r`` is held back until the next read
        shows whether a ``\\n`` follows it."""
        while not self._eof:
            chunk = self._read(CHUNK_SIZE)
            if not chunk:
                self._eof = True
            if self._held_cr:
                chunk = "\r" + chunk
            self._held_cr = not self._eof and chunk.endswith("\r")
            if self._held_cr:
                chunk = chunk[:-1]
            if "\r" in chunk:
                chunk = chunk.replace("\r\n", "\n").replace("\r", "\n")
            if chunk:
                return chunk
        return ""

    def _refill(self) -> bool:
        """Append one chunk; returns False at end of input."""
        chunk = self._next_chunk()
        if not chunk:
            return False
        cut = self.pos if self.token_start is None else self.token_start
        if cut > COMPACT_THRESHOLD:
            line, column = self.line_column(cut)
            self.lines_before, self.columns_before = line - 1, column - 1
            self.source = self.source[cut:] + chunk
            self.pos -= cut
            if self.token_start is not None:
                self.token_start = 0
        else:
            self.source = self.source + chunk
        self.length = len(self.source)
        return True

    def _ensure(self, count: int) -> None:
        """Buffer at least *count* chars past the cursor (or hit EOF)."""
        while self.length - self.pos < count:
            if not self._refill():
                return

    # -- refill-aware primitives ----------------------------------------------

    @property
    def at_end(self) -> bool:
        if self.pos < self.length:
            return False
        return not self._refill()

    def peek(self, offset: int = 0) -> str:
        if self.pos + offset >= self.length:
            self._ensure(offset + 1)
        i = self.pos + offset
        return self.source[i] if i < self.length else ""

    def looking_at(self, literal: str) -> bool:
        if self.pos + len(literal) > self.length:
            self._ensure(len(literal))
        return self.source.startswith(literal, self.pos)

    def skip_whitespace(self) -> bool:
        skipped = False
        while True:
            src, n = self.source, self.length
            pos = self.pos
            while pos < n and src[pos] in WHITESPACE:
                pos += 1
            if pos > self.pos:
                skipped = True
                self.pos = pos
            if pos < n or not self._refill():
                return skipped

    def read_name(self, context: str = "name") -> str:
        ch = self.peek()
        if not ch or not is_name_start_char(ch):
            self.error(f"expected {context}, found {ch or '<end of input>'!r}")
        parts: list[str] = []
        self.pos += 1
        parts.append(ch)
        while True:
            src, n = self.source, self.length
            start = self.pos
            pos = start
            while pos < n and is_name_char(src[pos]):
                pos += 1
            if pos > start:
                parts.append(src[start:pos])
                self.pos = pos
            if pos < n or not self._refill():
                return "".join(parts)

    def _take(self, end: int, parts: list[str]) -> None:
        """Move ``source[pos:end]`` into *parts*, rejecting a non-``Char``
        in it — one regex search, made while the run is still in the
        buffer so the error lands on the character itself."""
        illegal = _ILLEGAL_CHAR.search(self.source, self.pos, end)
        if illegal is not None:
            self.error(
                f"illegal character U+{ord(illegal.group()):04X}",
                illegal.start(),
            )
        parts.append(self.source[self.pos:end])
        self.pos = end

    def read_run(self, stop: re.Pattern) -> str:
        """The text up to the next match of *stop* (left unconsumed) or
        the end of input."""
        parts: list[str] = []
        while True:
            found = stop.search(self.source, self.pos)
            self._take(found.start() if found else self.length, parts)
            if found or not self._refill():
                return "".join(parts)

    def read_until(self, terminator: str, context: str) -> str:
        parts: list[str] = []
        keep = len(terminator) - 1
        while True:
            end = self.source.find(terminator, self.pos)
            if end >= 0:
                self._take(end, parts)
                self.pos = end + len(terminator)
                return "".join(parts)
            # Keep the last len-1 chars: the terminator may straddle
            # the chunk boundary.
            self._take(max(self.pos, self.length - keep), parts)
            if not self._refill():
                self.pos = self.length
                self.error(f"unterminated {context}: missing {terminator!r}")

    # -- positions -------------------------------------------------------------

    def line_column(self, pos: int | None = None) -> tuple[int, int]:
        line, column = super().line_column(pos)
        if line == 1:
            column += self.columns_before
        return line + self.lines_before, column

    @contextmanager
    def token(self) -> Iterator[None]:
        """The extent of one markup token.  If the input ends inside
        it, the error points at where the token began — the thing left
        unclosed — rather than at the end of input."""
        self.token_start = self.pos
        try:
            yield
        finally:
            self.token_start = None

    def error(self, message: str, pos: int | None = None) -> None:
        if pos is None and self.token_start is not None and self.at_end:
            pos = self.token_start
        super().error(message, pos)


class PullParser:
    """The XML document parser: *source* (text, a file object, or a
    path) to :class:`Event` objects, one at a time.

    After :meth:`events` has passed the prolog, ``doctype_name`` and
    ``dtd`` hold what the DOCTYPE declared (``None`` without one).
    """

    def __init__(self, source, options: ParseOptions | None = None) -> None:
        read, self._close = _reader_for(source)
        self.scanner = ChunkedScanner(read)
        self.options = options or ParseOptions()
        self.doctype_name: str | None = None
        self.dtd: dtd_module.Dtd | None = None
        self.entities: dict[str, str] = {}

    # -- document level -------------------------------------------------------

    def events(self) -> Iterator[Event]:
        s = self.scanner
        try:
            if s.match("\ufeff"):
                s.columns_before = -1  # a byte-order mark is not a column
            yield Event(EventKind.START_DOCUMENT)
            self._parse_xml_declaration()
            yield from self._misc_events(allow_doctype=True)
            if s.at_end or not s.looking_at("<"):
                s.error("expected root element")
            yield from self._element_events()
            yield from self._misc_events(allow_doctype=False)
            if not s.at_end:
                s.error("unexpected content after root element")
            yield Event(EventKind.END_DOCUMENT)
        finally:
            if self._close is not None:
                self._close()

    def _parse_xml_declaration(self) -> None:
        s = self.scanner
        if not s.looking_at("<?xml") or is_name_char(s.peek(5)):
            return
        with s.token():
            s.advance(5)
            body = s.read_until("?>", "XML declaration")
            if not _XML_DECLARATION.fullmatch(body):
                s.error("malformed XML declaration", s.token_start)

    def _misc_events(self, allow_doctype: bool) -> Iterator[Event]:
        """Comments/PIs/whitespace (and at most one DOCTYPE)."""
        s = self.scanner
        while True:
            s.skip_whitespace()
            if s.looking_at("<!--"):
                yield Event(EventKind.COMMENT, value=self._parse_comment())
            elif s.looking_at("<?"):
                yield Event(
                    EventKind.PROCESSING_INSTRUCTION, *self._parse_pi()
                )
            elif allow_doctype and s.looking_at("<!DOCTYPE"):
                with s.token():
                    self._parse_doctype()
                allow_doctype = False
            else:
                return

    def _parse_doctype(self) -> None:
        s = self.scanner
        s.advance(len("<!DOCTYPE"))
        s.require_whitespace("DOCTYPE declaration")
        self.doctype_name = s.read_name("doctype name")
        s.skip_whitespace()
        if s.looking_at("SYSTEM") or s.looking_at("PUBLIC"):
            # External identifier: parsed for well-formedness, not fetched.
            if s.match("SYSTEM"):
                s.require_whitespace("SYSTEM identifier")
                s.read_quoted("system literal")
            else:
                s.match("PUBLIC")
                s.require_whitespace("PUBLIC identifier")
                s.read_quoted("public literal")
                s.require_whitespace("PUBLIC identifier")
                s.read_quoted("system literal")
            s.skip_whitespace()
        if s.match("["):
            subset = self._read_internal_subset()
            self.dtd = dtd_module.parse_dtd(
                subset, root_name=self.doctype_name
            )
            for decl in self.dtd.general_entities.values():
                if decl.is_internal:
                    assert decl.value is not None
                    self.entities[decl.name] = decl.value
            s.skip_whitespace()
        s.expect(">", "DOCTYPE declaration")

    def _read_internal_subset(self) -> str:
        """Read the internal subset text up to the matching ']'.

        Quoted literals, comments and PIs may contain ']' so they are
        skipped atomically rather than scanning for a bare bracket.
        """
        s = self.scanner
        parts: list[str] = []
        while True:
            parts.append(s.read_run(_SUBSET_STOP))
            if s.match("]"):
                return "".join(parts)
            for opener, closer in _SUBSET_SECTIONS:
                if s.match(opener):
                    parts.append(opener)
                    if closer:
                        parts.append(s.read_until(closer, "DTD section"))
                        parts.append(closer)
                    break
            else:
                s.error("unterminated internal DTD subset")

    # -- elements -------------------------------------------------------------

    def _element_events(self) -> Iterator[Event]:
        s = self.scanner
        keep_ws = self.options.keep_whitespace
        stack: list[str] = []
        text_parts: list[str] = []
        ensure = s._ensure
        start_match = _FAST_START_TAG.match
        end_match = _FAST_END_TAG.match
        leaf_match = _FAST_LEAF.match
        attr_findall = _FAST_ATTR.findall
        kind_start = EventKind.START_ELEMENT
        kind_attr = EventKind.ATTRIBUTE
        kind_end = EventKind.END_ELEMENT
        kind_text = EventKind.TEXT
        # Build events via tuple.__new__: Event is a NamedTuple, so this
        # is the generated __new__ minus its Python frame — noticeable
        # at one call per token.
        event_new = tuple.__new__

        def flush_text() -> Event | None:
            if not text_parts:
                return None
            data = "".join(text_parts)
            text_parts.clear()
            if not data:
                return None
            if not keep_ws and is_whitespace(data):
                # Judged on the merged run: one text node, kept or not.
                return None
            return event_new(Event, (kind_text, None, data))

        def _duplicate(attrs) -> bool:
            if len(attrs) < 2:
                return False
            seen = set()
            for name, _, _ in attrs:
                if name in seen:
                    return True
                seen.add(name)
            return False

        while True:
            # -- one start tag (cursor is at '<') -------------------------
            ensure(_FAST_LOOKAHEAD)
            # Leaf fast path: a whole ``<tag a="v">text</tag>`` element
            # in one C-level match — no content loop at all.  Any
            # disqualifier (markup/entities in the text, depth at the
            # limit, duplicate attributes, truncation at the buffer
            # edge) falls through to the tag-at-a-time paths below.
            leaf_done = False
            m = leaf_match(s.source, s.pos)
            if (m is not None and m.end() < s.length
                    and len(stack) < MAX_ELEMENT_DEPTH
                    and "]]>" not in m.group(3)):
                tag, attr_blob, text = m.group(1, 2, 3)
                attrs = attr_findall(attr_blob) if attr_blob else ()
                if not _duplicate(attrs):
                    s.pos = m.end()
                    yield event_new(Event, (kind_start, tag, None))
                    for name, dquoted, squoted in attrs:
                        yield event_new(
                            Event,
                            (kind_attr, name,
                             dquoted if dquoted else squoted),
                        )
                    if text and (keep_ws or not is_whitespace(text)):
                        yield event_new(Event, (kind_text, None, text))
                    yield event_new(Event, (kind_end, tag, None))
                    if not stack:
                        return
                    # Leaf consumed: resume the parent's content loop.
                    leaf_done = True
            if not leaf_done:
                # Fast path: a complete plain-ASCII start tag inside the
                # buffer, matched in one C call.  (The end() < length
                # guard rules out a tag artificially truncated by the
                # buffer edge — that case re-parses the general way.)
                m = start_match(s.source, s.pos)
                attrs = ()
                if m is not None and m.end() < s.length:
                    tag, attr_blob, closed = m.group(1, 2, 3)
                    if attr_blob:
                        attrs = attr_findall(attr_blob)
                        if _duplicate(attrs):
                            # Duplicate: re-parse slowly so the error
                            # names the attribute and its position.
                            m = None
                if m is not None and m.end() < s.length:
                    s.pos = m.end()
                    yield event_new(Event, (kind_start, tag, None))
                    for name, dquoted, squoted in attrs:
                        yield event_new(
                            Event,
                            (kind_attr, name,
                             dquoted if dquoted else squoted),
                        )
                else:
                    # General path: non-ASCII names, entity references
                    # in attribute values, oversized tags, or a syntax
                    # error.
                    tag, attributes, closed = self._parse_start_tag()
                    yield Event(kind_start, name=tag)
                    for name, value in attributes.items():
                        yield Event(kind_attr, name=name, value=value)
                if closed:
                    yield event_new(Event, (kind_end, tag, None))
                    if not stack:
                        return
                else:
                    stack.append(tag)
                    if len(stack) > MAX_ELEMENT_DEPTH:
                        s.error(
                            f"element nesting exceeds "
                            f"{MAX_ELEMENT_DEPTH} levels"
                        )

            # -- content until the next child start tag -------------------
            while stack:
                ensure(2)
                src, pos, n = s.source, s.pos, s.length
                if pos >= n:
                    s.error(f"unterminated element <{stack[-1]}>")
                if src[pos] != "<":
                    self._stream_char_data(text_parts)
                    continue
                nxt = src[pos + 1] if pos + 1 < n else ""
                if nxt == "/":
                    text = flush_text()
                    if text:
                        yield text
                    ensure(_FAST_LOOKAHEAD)
                    tag = stack.pop()
                    m = end_match(s.source, s.pos)
                    if (m is not None and m.end() < s.length
                            and m.group(1) == tag):
                        s.pos = m.end()
                    else:
                        # Mismatches fall through too: the re-parse
                        # reports the error with its position.
                        self._parse_end_tag(tag)
                    yield event_new(Event, (kind_end, tag, None))
                elif nxt == "!":
                    if s.looking_at("<!--"):
                        text = flush_text()
                        if text:
                            yield text
                        yield Event(
                            EventKind.COMMENT, value=self._parse_comment()
                        )
                    elif s.looking_at("<![CDATA["):
                        s.advance(9)
                        data = s.read_until("]]>", "CDATA section")
                        if data:
                            text_parts.append(data)
                    else:
                        s.error("markup declarations not allowed in content")
                elif nxt == "?":
                    text = flush_text()
                    if text:
                        yield text
                    yield Event(
                        EventKind.PROCESSING_INSTRUCTION, *self._parse_pi()
                    )
                else:
                    text = flush_text()
                    if text:
                        yield text
                    break  # child start tag: outer loop parses it
            if not stack:
                return

    def _stream_char_data(self, parts: list[str]) -> None:
        """One maximal run of character data into *parts*, entity and
        character references expanded in place.  A reference ends the
        literal run for the ``]]>`` check (``]]&gt;`` is legal)."""
        s = self.scanner
        while True:
            run = s.read_run(_TEXT_STOP)
            if run:
                bad = run.find("]]>")
                if bad >= 0:
                    s.error(
                        "']]>' not allowed in character data",
                        max(0, s.pos - len(run) + bad),
                    )
                parts.append(run)
            if s.peek() != "&":
                return  # '<', or EOF: the content loop reports it
            parts.append(self._parse_reference(s))

    def _parse_start_tag(self) -> tuple[str, dict[str, str], bool]:
        """(tag, attributes in order, self-closed?) of the start tag at
        the cursor, by scanner primitives — whatever the tag holds."""
        s = self.scanner
        attributes: dict[str, str] = {}
        with s.token():
            s.expect("<", "element start tag")
            tag = s.read_name("element name")
            while True:
                had_ws = s.skip_whitespace()
                ch = s.peek()
                if ch in (">", "/") or not ch:
                    break
                if not had_ws:
                    s.error("expected whitespace before attribute")
                name = s.read_name("attribute name")
                if name in attributes:
                    s.error(f"duplicate attribute: {name}")
                s.skip_whitespace()
                s.expect("=", f"attribute {name}")
                s.skip_whitespace()
                quote = s.peek()
                if quote not in ("'", '"'):
                    s.error(f"attribute {name} value must be quoted")
                s.advance()
                value: list[str] = []
                while not s.match(quote):
                    value.append(
                        s.read_run(_VALUE_STOP[quote])
                        .translate(_ATTR_WHITESPACE)
                    )
                    ch = s.peek()
                    if ch == "&":
                        value.append(
                            self._parse_reference(s, normalize_ws=True)
                        )
                    elif ch == "<":
                        s.error(
                            f"'<' not allowed in attribute value of {name}"
                        )
                    elif not ch:
                        s.error(
                            f"unterminated attribute {name} value: "
                            f"missing {quote!r}"
                        )
                attributes[name] = "".join(value)
            closed = s.match("/>")
            if not closed:
                s.expect(">", f"start tag of <{tag}>")
        return tag, attributes, closed

    def _parse_end_tag(self, tag: str) -> None:
        """Consume the end tag at the cursor; it must close *tag*."""
        s = self.scanner
        with s.token():
            s.advance(2)  # "</"
            end_tag = s.read_name("end tag name")
            s.skip_whitespace()
            s.expect(">", f"end tag of <{tag}>")
            if end_tag != tag:
                s.error(
                    f"mismatched end tag: expected </{tag}>, "
                    f"got </{end_tag}>",
                    s.token_start,
                )

    # -- entities ---------------------------------------------------------------

    def _parse_reference(
        self, s: Scanner, normalize_ws: bool = False, depth: int = 0
    ) -> str:
        """Expansion of the ``&…;`` at the cursor of *s* — the document
        scanner, or one over an entity's replacement text.  With
        *normalize_ws* (inside an attribute value) literal tab/newline
        in replacement text become spaces."""
        s.expect("&", "entity reference")
        if s.match("#"):
            return self._parse_char_reference(s)
        name = s.read_name("entity name")
        s.expect(";", f"entity reference &{name}")
        if name in _PREDEFINED_ENTITIES:
            return _PREDEFINED_ENTITIES[name]
        if not (self.options.resolve_entities and name in self.entities):
            s.error(f"undefined entity: &{name};")
        if depth >= _MAX_ENTITY_DEPTH:
            s.error("entity expansion too deep")
        inner = Scanner(self.entities[name])
        out: list[str] = []
        while not inner.at_end:
            if inner.peek() == "&":
                out.append(
                    self._parse_reference(inner, normalize_ws, depth + 1)
                )
                continue
            end = inner.source.find("&", inner.pos)
            if end < 0:
                end = inner.length
            out.append(inner.source[inner.pos:end])
            inner.pos = end
        expansion = "".join(out)
        if normalize_ws:
            expansion = expansion.translate(_ATTR_WHITESPACE)
        return expansion

    @staticmethod
    def _parse_char_reference(s: Scanner) -> str:
        digits, base = (
            ("0123456789abcdefABCDEF", 16) if s.match("x")
            else ("0123456789", 10)
        )
        start = s.pos
        code = 0
        while (ch := s.peek()) and ch in digits:
            # Capped as it grows: a hostile digit string stays an int
            # comparison, never a bignum.
            code = min(code * base + int(ch, 16), 0x110000)
            s.advance()
        if s.pos == start:
            s.error("empty character reference")
        s.expect(";", "character reference")
        if code > 0x10FFFF or not is_xml_char(chr(code)):
            s.error(
                f"character reference to illegal character U+{code:04X}"
            )
        return chr(code)

    # -- comments and PIs --------------------------------------------------------

    def _parse_comment(self) -> str:
        s = self.scanner
        with s.token():
            s.advance(4)  # "<!--"
            data = s.read_until("--", "comment")
            if not s.match(">"):
                s.error("'--' not allowed inside comment")
        return data

    def _parse_pi(self) -> tuple[str, str]:
        """(target, data) of the processing instruction at the cursor."""
        s = self.scanner
        with s.token():
            s.advance(2)  # "<?"
            target = s.read_name("PI target")
            if target.lower() == "xml":
                s.error("PI target 'xml' is reserved")
            if s.skip_whitespace():
                return target, s.read_until("?>", "processing instruction")
            s.expect("?>", "processing instruction")
        return target, ""


def _reader_for(source) -> tuple:
    """(read, close) for *source*: XML text, file object, or path."""
    if isinstance(source, str):
        offset = 0

        def read(count: int) -> str:
            nonlocal offset
            start, offset = offset, offset + count
            return source[start:offset]

        return read, None
    if hasattr(source, "read"):
        return source.read, None
    # os.PathLike
    handle = open(os.fspath(source), encoding="utf-8")
    return handle.read, handle.close


def iter_events(
    source, options: ParseOptions | None = None
) -> Iterator[Event]:
    """Stream the token sequence of *source* with O(depth) memory.

    *source* may be XML text (``str``), an open text-mode file object,
    or a path (:class:`os.PathLike`).  The tree is never built: memory
    is the open-element stack plus one read buffer.  A path is opened
    here and closed when the stream ends, however it ends.
    """
    return PullParser(source, options).events()
