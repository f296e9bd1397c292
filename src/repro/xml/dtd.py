"""DTD (document type definition) parsing.

Parses the declaration syntax needed by the schema-aware relational mapping:

* ``<!ELEMENT name model>`` with EMPTY / ANY / mixed / children models,
* ``<!ATTLIST name (attname type default)*>``,
* ``<!ENTITY name "value">`` internal general entities (used by the
  document parser for ``&name;`` expansion) and internal parameter
  entities (``<!ENTITY % name "value">``, expanded textually within the
  DTD itself),
* ``<!NOTATION ...>`` declarations (parsed and recorded, not interpreted).

External identifiers (SYSTEM/PUBLIC) are parsed and recorded but never
dereferenced: this library runs offline and treats external subsets as
unavailable, matching a non-validating processor's options under the XML
spec.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import DtdSyntaxError
from repro.xml.chars import WHITESPACE
from repro.xml.contentmodel import (
    ChoiceParticle,
    ContentModel,
    NameParticle,
    ONE,
    OPTIONAL,
    Particle,
    PLUS,
    STAR,
    SequenceParticle,
    simplify,
)
from repro.xml.lexer import Scanner

# Attribute types from the ATTLIST production.
ATTR_CDATA = "CDATA"
ATTR_ID = "ID"
ATTR_IDREF = "IDREF"
ATTR_IDREFS = "IDREFS"
ATTR_ENTITY = "ENTITY"
ATTR_ENTITIES = "ENTITIES"
ATTR_NMTOKEN = "NMTOKEN"
ATTR_NMTOKENS = "NMTOKENS"
ATTR_ENUMERATION = "ENUMERATION"
ATTR_NOTATION = "NOTATION"

_TOKENIZED_TYPES = (
    ATTR_ID,
    ATTR_IDREF,
    ATTR_IDREFS,
    ATTR_ENTITY,
    ATTR_ENTITIES,
    ATTR_NMTOKENS,
    ATTR_NMTOKEN,
)

# Attribute defaults.
DEFAULT_REQUIRED = "#REQUIRED"
DEFAULT_IMPLIED = "#IMPLIED"
DEFAULT_FIXED = "#FIXED"
DEFAULT_VALUE = "#DEFAULT"


@dataclass(frozen=True)
class AttributeDecl:
    """One attribute definition from an ATTLIST declaration."""

    element: str
    name: str
    attr_type: str
    default_kind: str
    default_value: str | None = None
    enumeration: tuple[str, ...] = ()


@dataclass(frozen=True)
class ElementDecl:
    """One ``<!ELEMENT>`` declaration."""

    name: str
    model: ContentModel

    def simplified(self) -> list[tuple[str, str]]:
        """The inlining-normalized field list of the content model."""
        return simplify(self.model)


@dataclass(frozen=True)
class EntityDecl:
    """One ``<!ENTITY>`` declaration (general or parameter)."""

    name: str
    value: str | None
    is_parameter: bool = False
    system_id: str | None = None
    public_id: str | None = None
    notation: str | None = None

    @property
    def is_internal(self) -> bool:
        return self.value is not None


@dataclass
class Dtd:
    """A parsed DTD: element, attribute, entity and notation declarations."""

    elements: dict[str, ElementDecl] = field(default_factory=dict)
    attributes: dict[str, list[AttributeDecl]] = field(default_factory=dict)
    general_entities: dict[str, EntityDecl] = field(default_factory=dict)
    parameter_entities: dict[str, EntityDecl] = field(default_factory=dict)
    notations: dict[str, tuple[str | None, str | None]] = field(
        default_factory=dict
    )
    root_name: str | None = None

    def attributes_of(self, element: str) -> list[AttributeDecl]:
        """The declared attributes of *element* (possibly empty)."""
        return self.attributes.get(element, [])

    def id_attribute_of(self, element: str) -> AttributeDecl | None:
        """The ID-typed attribute of *element*, if one is declared."""
        for attr in self.attributes_of(element):
            if attr.attr_type == ATTR_ID:
                return attr
        return None

    def element_names(self) -> list[str]:
        """Declared element names, in declaration order."""
        return list(self.elements)

    def referenced_names(self) -> set[str]:
        """Every element name mentioned in any content model."""
        names: set[str] = set()
        for decl in self.elements.values():
            names |= decl.model.element_names()
        return names

    def undeclared_references(self) -> set[str]:
        """Names used in content models but never declared."""
        return self.referenced_names() - set(self.elements)


def parse_dtd(text: str, root_name: str | None = None) -> Dtd:
    """Parse DTD declaration text (an internal or external subset)."""
    dtd = Dtd(root_name=root_name)
    parser = _DtdParser(text, dtd)
    parser.run()
    return dtd


class _DtdParser:
    """Recursive-descent parser over DTD declaration text."""

    def __init__(self, text: str, dtd: Dtd) -> None:
        self.dtd = dtd
        self.scanner = Scanner(text)

    def run(self) -> None:
        s = self.scanner
        while True:
            s.skip_whitespace()
            if s.at_end:
                return
            if s.match("%"):
                # Parameter-entity reference between declarations: expand
                # textually by splicing the replacement into the source.
                name = s.read_name("parameter entity name")
                s.expect(";", "parameter entity reference")
                self._splice_parameter_entity(name)
                continue
            if s.match("<!--"):
                s.read_until("-->", "comment")
                continue
            if s.match("<?"):
                s.read_until("?>", "processing instruction")
                continue
            if not s.match("<!"):
                s.error("expected markup declaration in DTD")
            keyword = s.read_name("declaration keyword")
            if keyword == "ELEMENT":
                self._parse_element_decl()
            elif keyword == "ATTLIST":
                self._parse_attlist_decl()
            elif keyword == "ENTITY":
                self._parse_entity_decl()
            elif keyword == "NOTATION":
                self._parse_notation_decl()
            else:
                s.error(f"unknown DTD declaration: <!{keyword}")

    def _splice_parameter_entity(self, name: str) -> None:
        decl = self.dtd.parameter_entities.get(name)
        if decl is None or decl.value is None:
            # Unknown or external parameter entity: skip (non-validating).
            return
        s = self.scanner
        s.source = s.source[:s.pos] + decl.value + s.source[s.pos:]
        s.length = len(s.source)

    # -- <!ELEMENT ...> ------------------------------------------------------

    def _parse_element_decl(self) -> None:
        s = self.scanner
        s.require_whitespace("ELEMENT declaration")
        name = s.read_name("element name")
        s.require_whitespace("ELEMENT declaration")
        self._expand_pe_references_inline()
        model = self._parse_model()
        s.skip_whitespace()
        s.expect(">", "ELEMENT declaration")
        if name in self.dtd.elements:
            raise DtdSyntaxError(f"duplicate element declaration: {name}")
        self.dtd.elements[name] = ElementDecl(name, model)
        if self.dtd.root_name is None:
            self.dtd.root_name = name

    def _expand_pe_references_inline(self) -> None:
        """Expand a parameter-entity reference appearing inside a declaration."""
        s = self.scanner
        while s.peek() == "%":
            s.advance()
            name = s.read_name("parameter entity name")
            s.expect(";", "parameter entity reference")
            self._splice_parameter_entity(name)
            s.skip_whitespace()

    def _parse_model(self) -> ContentModel:
        s = self.scanner
        if s.match("EMPTY"):
            return ContentModel.empty()
        if s.match("ANY"):
            return ContentModel.any()
        if not s.match("("):
            s.error("expected '(', EMPTY or ANY in content model")
        s.skip_whitespace()
        if s.match("#PCDATA"):
            return self._parse_mixed_tail()
        particle = self._parse_group_tail(first=self._parse_cp())
        particle.occurrence = self._parse_occurrence()
        return ContentModel.children(particle)

    def _parse_mixed_tail(self) -> ContentModel:
        s = self.scanner
        names: list[str] = []
        s.skip_whitespace()
        while s.match("|"):
            s.skip_whitespace()
            names.append(s.read_name("element name in mixed model"))
            s.skip_whitespace()
        s.expect(")", "mixed content model")
        if names:
            s.expect("*", "mixed content model with element names")
        else:
            s.match("*")  # (#PCDATA)* is legal too
        return ContentModel.mixed(names)

    def _parse_cp(self) -> Particle:
        """Parse one content particle: a name or a parenthesized group."""
        s = self.scanner
        s.skip_whitespace()
        if s.match("("):
            s.skip_whitespace()
            particle = self._parse_group_tail(first=self._parse_cp())
        else:
            particle = NameParticle(s.read_name("content particle"))
        particle.occurrence = self._parse_occurrence()
        return particle

    def _parse_group_tail(self, first: Particle) -> Particle:
        """After '(' and the first particle: parse ',' or '|' items to ')'."""
        s = self.scanner
        children = [first]
        separator: str | None = None
        while True:
            s.skip_whitespace()
            if s.match(")"):
                break
            if s.peek() in (",", "|"):
                sep = s.peek()
                if separator is None:
                    separator = sep
                elif separator != sep:
                    s.error("cannot mix ',' and '|' in one group")
                s.advance()
                children.append(self._parse_cp())
            else:
                s.error("expected ',', '|' or ')' in content model group")
        if separator == "|":
            return ChoiceParticle(children)
        if len(children) == 1:
            # A single-child group: the group still exists syntactically so
            # its occurrence indicator can apply — keep a sequence wrapper.
            return SequenceParticle(children)
        return SequenceParticle(children)

    def _parse_occurrence(self) -> str:
        s = self.scanner
        ch = s.peek()
        if ch == "?":
            s.advance()
            return OPTIONAL
        if ch == "*":
            s.advance()
            return STAR
        if ch == "+":
            s.advance()
            return PLUS
        return ONE

    # -- <!ATTLIST ...> --------------------------------------------------------

    def _parse_attlist_decl(self) -> None:
        s = self.scanner
        s.require_whitespace("ATTLIST declaration")
        element = s.read_name("element name")
        decls = self.dtd.attributes.setdefault(element, [])
        while True:
            had_ws = s.skip_whitespace()
            if s.match(">"):
                return
            if not had_ws:
                s.error("expected whitespace before attribute definition")
            name = s.read_name("attribute name")
            s.require_whitespace("attribute definition")
            attr_type, enumeration = self._parse_attribute_type()
            s.require_whitespace("attribute definition")
            default_kind, default_value = self._parse_attribute_default()
            decls.append(
                AttributeDecl(
                    element=element,
                    name=name,
                    attr_type=attr_type,
                    default_kind=default_kind,
                    default_value=default_value,
                    enumeration=tuple(enumeration),
                )
            )

    def _parse_attribute_type(self) -> tuple[str, list[str]]:
        s = self.scanner
        if s.peek() == "(":
            return ATTR_ENUMERATION, self._parse_enumeration()
        keyword = s.read_name("attribute type")
        if keyword == ATTR_CDATA:
            return ATTR_CDATA, []
        if keyword == ATTR_NOTATION:
            s.require_whitespace("NOTATION type")
            return ATTR_NOTATION, self._parse_enumeration()
        if keyword in _TOKENIZED_TYPES:
            return keyword, []
        s.error(f"unknown attribute type: {keyword}")
        raise AssertionError  # unreachable; s.error always raises

    def _parse_enumeration(self) -> list[str]:
        s = self.scanner
        s.expect("(", "enumeration")
        values: list[str] = []
        while True:
            s.skip_whitespace()
            values.append(s.read_name("enumeration value"))
            s.skip_whitespace()
            if s.match(")"):
                return values
            s.expect("|", "enumeration")

    def _parse_attribute_default(self) -> tuple[str, str | None]:
        s = self.scanner
        if s.match(DEFAULT_REQUIRED):
            return DEFAULT_REQUIRED, None
        if s.match(DEFAULT_IMPLIED):
            return DEFAULT_IMPLIED, None
        if s.match(DEFAULT_FIXED):
            s.require_whitespace("#FIXED default")
            return DEFAULT_FIXED, s.read_quoted("#FIXED default value")
        return DEFAULT_VALUE, s.read_quoted("attribute default value")

    # -- <!ENTITY ...> -----------------------------------------------------------

    def _parse_entity_decl(self) -> None:
        s = self.scanner
        s.require_whitespace("ENTITY declaration")
        is_parameter = False
        if s.match("%"):
            is_parameter = True
            s.require_whitespace("parameter entity declaration")
        name = s.read_name("entity name")
        s.require_whitespace("ENTITY declaration")
        value: str | None = None
        system_id: str | None = None
        public_id: str | None = None
        notation: str | None = None
        if s.peek() in ("'", '"'):
            value = s.read_quoted("entity value")
        else:
            public_id, system_id = self._parse_external_id()
            s.skip_whitespace()
            if s.match("NDATA"):
                s.require_whitespace("NDATA declaration")
                notation = s.read_name("notation name")
        s.skip_whitespace()
        s.expect(">", "ENTITY declaration")
        decl = EntityDecl(
            name=name,
            value=value,
            is_parameter=is_parameter,
            system_id=system_id,
            public_id=public_id,
            notation=notation,
        )
        table = (
            self.dtd.parameter_entities
            if is_parameter
            else self.dtd.general_entities
        )
        # First declaration binds (XML spec: later redeclarations ignored).
        table.setdefault(name, decl)

    # -- <!NOTATION ...> ---------------------------------------------------------

    def _parse_notation_decl(self) -> None:
        s = self.scanner
        s.require_whitespace("NOTATION declaration")
        name = s.read_name("notation name")
        s.require_whitespace("NOTATION declaration")
        public_id: str | None = None
        system_id: str | None = None
        if s.match("PUBLIC"):
            s.require_whitespace("PUBLIC identifier")
            public_id = s.read_quoted("public literal")
            s.skip_whitespace()
            if s.peek() in ("'", '"'):
                system_id = s.read_quoted("system literal")
        elif s.match("SYSTEM"):
            s.require_whitespace("SYSTEM identifier")
            system_id = s.read_quoted("system literal")
        else:
            s.error("expected SYSTEM or PUBLIC in NOTATION declaration")
        s.skip_whitespace()
        s.expect(">", "NOTATION declaration")
        self.dtd.notations[name] = (public_id, system_id)

    def _parse_external_id(self) -> tuple[str | None, str | None]:
        s = self.scanner
        if s.match("SYSTEM"):
            s.require_whitespace("SYSTEM identifier")
            return None, s.read_quoted("system literal")
        if s.match("PUBLIC"):
            s.require_whitespace("PUBLIC identifier")
            public_id = s.read_quoted("public literal")
            s.require_whitespace("PUBLIC identifier")
            system_id = s.read_quoted("system literal")
            return public_id, system_id
        s.error("expected SYSTEM or PUBLIC external identifier")
        raise AssertionError  # unreachable


def dtd_to_text(dtd: Dtd) -> str:
    """Serialize *dtd* back to declaration text.

    ``parse_dtd(dtd_to_text(d))`` reproduces the element/attribute
    structure (entity values are re-emitted as internal declarations);
    used to persist a DTD alongside the schema-aware relational mapping.
    """
    lines: list[str] = []
    for decl in dtd.elements.values():
        lines.append(f"<!ELEMENT {decl.name} {decl.model}>")
    for element, attrs in dtd.attributes.items():
        for attr in attrs:
            if attr.attr_type == ATTR_ENUMERATION:
                type_text = "(" + " | ".join(attr.enumeration) + ")"
            elif attr.attr_type == ATTR_NOTATION:
                type_text = "NOTATION (" + " | ".join(attr.enumeration) + ")"
            else:
                type_text = attr.attr_type
            if attr.default_kind == DEFAULT_FIXED:
                default = f'#FIXED "{attr.default_value}"'
            elif attr.default_kind == DEFAULT_VALUE:
                default = f'"{attr.default_value}"'
            else:
                default = attr.default_kind
            lines.append(
                f"<!ATTLIST {element} {attr.name} {type_text} {default}>"
            )
    for entity in dtd.general_entities.values():
        if entity.is_internal:
            value = (entity.value or "").replace('"', "&#34;")
            lines.append(f'<!ENTITY {entity.name} "{value}">')
    return "\n".join(lines)


def _strip_dtd_whitespace(text: str) -> str:
    return text.strip("".join(WHITESPACE))
