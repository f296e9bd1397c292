"""Unit tests for the DTD parser and content models."""

import pytest

from repro.errors import DtdSyntaxError, XmlSyntaxError
from repro.xml.contentmodel import (
    ChoiceParticle,
    ContentModel,
    OPTIONAL,
    PLUS,
    STAR,
    SequenceParticle,
    simplify,
)
from repro.xml.dtd import (
    ATTR_ENUMERATION,
    ATTR_ID,
    ATTR_IDREF,
    DEFAULT_FIXED,
    DEFAULT_IMPLIED,
    DEFAULT_REQUIRED,
    DEFAULT_VALUE,
    parse_dtd,
)

BOOK_DTD = """
<!ELEMENT book (title, author)>
<!ELEMENT article (title, author*)>
<!ATTLIST book price CDATA #REQUIRED>
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (firstname, lastname)>
<!ELEMENT firstname (#PCDATA)>
<!ELEMENT lastname (#PCDATA)>
<!ATTLIST author age CDATA #IMPLIED>
"""


class TestElementDeclarations:
    def test_names_in_declaration_order(self):
        dtd = parse_dtd(BOOK_DTD)
        assert dtd.element_names() == [
            "book", "article", "title", "author", "firstname", "lastname",
        ]

    def test_first_declared_is_root_default(self):
        dtd = parse_dtd(BOOK_DTD)
        assert dtd.root_name == "book"

    def test_explicit_root_name(self):
        dtd = parse_dtd(BOOK_DTD, root_name="article")
        assert dtd.root_name == "article"

    def test_empty_and_any(self):
        dtd = parse_dtd("<!ELEMENT a EMPTY><!ELEMENT b ANY>")
        assert dtd.elements["a"].model.is_empty
        assert dtd.elements["b"].model.is_any

    def test_pcdata_only(self):
        dtd = parse_dtd("<!ELEMENT t (#PCDATA)>")
        assert dtd.elements["t"].model.is_pcdata_only

    def test_mixed_with_names(self):
        dtd = parse_dtd("<!ELEMENT p (#PCDATA | em | strong)*>")
        model = dtd.elements["p"].model
        assert model.is_mixed
        assert model.mixed_names == ("em", "strong")

    def test_sequence_and_occurrence(self):
        dtd = parse_dtd("<!ELEMENT r (a, b?, c*, d+)>")
        particle = dtd.elements["r"].model.particle
        assert isinstance(particle, SequenceParticle)
        occurrences = [p.occurrence for p in particle.children]
        assert occurrences == ["", OPTIONAL, STAR, PLUS]

    def test_choice_group(self):
        dtd = parse_dtd("<!ELEMENT r (a | b | c)>")
        particle = dtd.elements["r"].model.particle
        assert isinstance(particle, ChoiceParticle)
        assert dtd.elements["r"].model.matches(["a"])
        assert dtd.elements["r"].model.matches(["c"])
        assert not dtd.elements["r"].model.matches(["a", "b"])

    def test_nested_groups(self):
        dtd = parse_dtd("<!ELEMENT r ((a, b) | c)+>")
        model = dtd.elements["r"].model
        assert model.matches(["a", "b"])
        assert model.matches(["c", "a", "b", "c"])
        assert not model.matches([])
        assert not model.matches(["a"])

    def test_mixing_separators_rejected(self):
        with pytest.raises(XmlSyntaxError, match="cannot mix"):
            parse_dtd("<!ELEMENT r (a, b | c)>")

    def test_duplicate_element_rejected(self):
        with pytest.raises(DtdSyntaxError, match="duplicate"):
            parse_dtd("<!ELEMENT a EMPTY><!ELEMENT a ANY>")

    def test_undeclared_references(self):
        dtd = parse_dtd("<!ELEMENT a (b, c)><!ELEMENT b EMPTY>")
        assert dtd.undeclared_references() == {"c"}


class TestContentModelMatching:
    def test_empty_model(self):
        model = ContentModel.empty()
        assert model.matches([])
        assert not model.matches(["x"])

    def test_any_model(self):
        model = ContentModel.any()
        assert model.matches(["x", "y", "z"])

    def test_star(self):
        dtd = parse_dtd("<!ELEMENT r (a*)>")
        model = dtd.elements["r"].model
        assert model.matches([])
        assert model.matches(["a"] * 5)
        assert not model.matches(["b"])

    def test_plus(self):
        dtd = parse_dtd("<!ELEMENT r (a+)>")
        model = dtd.elements["r"].model
        assert not model.matches([])
        assert model.matches(["a", "a"])

    def test_optional(self):
        dtd = parse_dtd("<!ELEMENT r (a?)>")
        model = dtd.elements["r"].model
        assert model.matches([])
        assert model.matches(["a"])
        assert not model.matches(["a", "a"])

    def test_sequence_order_enforced(self):
        dtd = parse_dtd("<!ELEMENT r (a, b)>")
        model = dtd.elements["r"].model
        assert model.matches(["a", "b"])
        assert not model.matches(["b", "a"])

    def test_mixed_allows_any_interleaving(self):
        dtd = parse_dtd("<!ELEMENT p (#PCDATA | em)*>")
        model = dtd.elements["p"].model
        assert model.matches(["em", "em"])
        assert model.matches([])
        assert not model.matches(["strong"])


class TestSimplification:
    """The inlining normalization rules (Shanmugasundaram et al. 1999)."""

    def simplified(self, decl_body):
        dtd = parse_dtd(f"<!ELEMENT r {decl_body}>")
        return simplify(dtd.elements["r"].model)

    def test_repeated_group_distributes(self):
        # (e1, e2)* -> e1*, e2*
        assert self.simplified("((a, b)*)") == [("a", "*"), ("b", "*")]

    def test_optional_group_distributes(self):
        # (e1, e2)? -> e1?, e2?
        assert self.simplified("((a, b)?)") == [("a", "?"), ("b", "?")]

    def test_choice_becomes_optionals(self):
        # (e1 | e2) -> e1?, e2?
        assert self.simplified("(a | b)") == [("a", "?"), ("b", "?")]

    def test_plus_generalized_to_star(self):
        assert self.simplified("(a+)") == [("a", "*")]

    def test_nested_quantifiers_collapse(self):
        # e1*? -> e1* (via nested groups)
        assert self.simplified("((a*)?)") == [("a", "*")]

    def test_duplicate_names_merge_to_star(self):
        # ..., a, ..., a -> a*, ...
        assert self.simplified("(a, b, a)") == [("a", "*"), ("b", "1")]

    def test_plain_sequence_keeps_quantifiers(self):
        assert self.simplified("(a, b?, c*)") == [
            ("a", "1"), ("b", "?"), ("c", "*"),
        ]

    def test_mixed_model_gives_stars(self):
        dtd = parse_dtd("<!ELEMENT p (#PCDATA | em | b)*>")
        assert simplify(dtd.elements["p"].model) == [("em", "*"), ("b", "*")]

    def test_leaf_models_have_no_fields(self):
        assert simplify(ContentModel.empty()) == []
        assert simplify(ContentModel.any()) == []
        assert simplify(ContentModel.mixed()) == []

    def test_simplified_language_is_superset(self):
        """Any sequence the original accepts, the simplified fields must
        accept too (order-insensitively, as the mapping ignores order)."""
        from repro.xml.contentmodel import fields_accept

        dtd = parse_dtd("<!ELEMENT r ((a, b)+ | c?)>")
        model = dtd.elements["r"].model
        fields = simplify(model)
        for seq in (["a", "b"], ["a", "b", "a", "b"], ["c"], []):
            if model.matches(seq):
                assert fields_accept(fields, seq), seq

    def test_fields_accept_rules(self):
        from repro.xml.contentmodel import fields_accept

        fields = [("a", "1"), ("b", "?"), ("c", "*")]
        assert fields_accept(fields, ["a"])
        assert fields_accept(fields, ["a", "b", "c", "c"])
        assert not fields_accept(fields, [])            # 'a' required
        assert not fields_accept(fields, ["a", "b", "b"])  # 'b' at most once
        assert not fields_accept(fields, ["a", "z"])    # unknown name


class TestAttlist:
    def test_attribute_types_and_defaults(self):
        dtd = parse_dtd(
            """
            <!ELEMENT e EMPTY>
            <!ATTLIST e
               id ID #REQUIRED
               ref IDREF #IMPLIED
               kind (small | large) "small"
               label CDATA #FIXED "x">
            """
        )
        attrs = {a.name: a for a in dtd.attributes_of("e")}
        assert attrs["id"].attr_type == ATTR_ID
        assert attrs["id"].default_kind == DEFAULT_REQUIRED
        assert attrs["ref"].attr_type == ATTR_IDREF
        assert attrs["ref"].default_kind == DEFAULT_IMPLIED
        assert attrs["kind"].attr_type == ATTR_ENUMERATION
        assert attrs["kind"].enumeration == ("small", "large")
        assert attrs["kind"].default_kind == DEFAULT_VALUE
        assert attrs["kind"].default_value == "small"
        assert attrs["label"].default_kind == DEFAULT_FIXED
        assert attrs["label"].default_value == "x"

    def test_multiple_attlists_accumulate(self):
        dtd = parse_dtd(
            "<!ELEMENT e EMPTY>"
            '<!ATTLIST e a CDATA #IMPLIED>'
            '<!ATTLIST e b CDATA #IMPLIED>'
        )
        assert [a.name for a in dtd.attributes_of("e")] == ["a", "b"]

    def test_id_attribute_lookup(self):
        dtd = parse_dtd(
            "<!ELEMENT e EMPTY><!ATTLIST e k ID #REQUIRED v CDATA #IMPLIED>"
        )
        assert dtd.id_attribute_of("e").name == "k"
        assert dtd.id_attribute_of("missing") is None

    def test_attributes_of_unknown_element_empty(self):
        assert parse_dtd(BOOK_DTD).attributes_of("nope") == []


class TestEntitiesAndNotations:
    def test_general_entity(self):
        dtd = parse_dtd('<!ENTITY greeting "hello">')
        assert dtd.general_entities["greeting"].value == "hello"

    def test_parameter_entity_expansion(self):
        dtd = parse_dtd(
            '<!ENTITY % fields "(a, b)">'
            "<!ELEMENT r %fields;>"
            "<!ELEMENT a EMPTY><!ELEMENT b EMPTY>"
        )
        assert dtd.elements["r"].model.matches(["a", "b"])

    def test_external_entity_recorded_not_fetched(self):
        dtd = parse_dtd('<!ENTITY chap SYSTEM "chap.xml">')
        decl = dtd.general_entities["chap"]
        assert not decl.is_internal
        assert decl.system_id == "chap.xml"

    def test_unparsed_entity_with_notation(self):
        dtd = parse_dtd(
            '<!NOTATION gif SYSTEM "viewer">'
            '<!ENTITY pic SYSTEM "p.gif" NDATA gif>'
        )
        assert dtd.general_entities["pic"].notation == "gif"

    def test_first_entity_declaration_wins(self):
        dtd = parse_dtd('<!ENTITY e "one"><!ENTITY e "two">')
        assert dtd.general_entities["e"].value == "one"

    def test_comments_and_pis_skipped(self):
        dtd = parse_dtd("<!-- note --><?check x?><!ELEMENT a EMPTY>")
        assert dtd.element_names() == ["a"]


class TestRecursiveDtd:
    """The recursive book/author DTD from the tutorial (slide 141)."""

    DTD = """
    <!ELEMENT book (author)>
    <!ATTLIST book title CDATA #REQUIRED>
    <!ELEMENT author (book*)>
    <!ATTLIST author name CDATA #REQUIRED>
    """

    def test_parses_and_is_self_referential(self):
        dtd = parse_dtd(self.DTD)
        assert dtd.elements["book"].model.element_names() == {"author"}
        assert dtd.elements["author"].model.element_names() == {"book"}
        assert dtd.undeclared_references() == set()
