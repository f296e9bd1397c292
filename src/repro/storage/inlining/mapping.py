"""Expansion of relation elements into concrete tables.

Each relation element becomes one table:

.. code-block:: text

    r_<element>(doc_id, pre, parent_pre, ordinal,
                [content, content_pre,]          -- PCDATA-capable only
                a_<attr>_val, a_<attr>_pre, ...  -- own attributes
                e_<path>_pre,                    -- each inlined element
                [e_<path>_val, e_<path>_val_pre,]
                a_<path>_<attr>_val/_pre, ...)   -- its attributes

``pre`` ids are the scheme-independent node ids; ``parent_pre`` is the
pre of the element's *immediate* parent element (which may itself be an
inlined position of another relation — the query translator knows which
column to join against).  Every inlined element also stores its node id,
so query answers remain comparable across schemes even for elements that
never got a table of their own.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field

from repro.errors import SchemaMappingError
from repro.relational.schema import Column, INTEGER, Index, Table, TEXT
from repro.storage.inlining.graph import (
    DtdGraph,
    SHARED,
    decide_relations,
)
from repro.xml.contentmodel import SIMPLE_STAR
from repro.xml.dtd import Dtd

_SANITIZE_RE = re.compile(r"[^a-z0-9_]+")
_MAX_INLINE_DEPTH = 32


def _sanitize(name: str) -> str:
    return _SANITIZE_RE.sub("_", name.lower()).strip("_") or "x"


def relation_table_name(element: str) -> str:
    digest = hashlib.sha1(element.encode()).hexdigest()[:8]
    return f"r_{_sanitize(element)[:24]}_{digest}"


@dataclass
class InlinedPosition:
    """One element position inside a relation (path () = the root)."""

    relation_element: str
    path: tuple[str, ...]
    element: str
    quantifier: str                   # '1' for the root position
    pre_column: str                   # 'pre' at the root
    content_column: str | None = None
    content_pre_column: str | None = None
    attr_columns: dict[str, tuple[str, str]] = field(default_factory=dict)
    inlined_children: dict[str, tuple[str, ...]] = field(default_factory=dict)
    relation_children: dict[str, str] = field(default_factory=dict)
    # relation_children: child element -> quantifier

    @property
    def is_root(self) -> bool:
        return not self.path


@dataclass
class Relation:
    """One generated relation and its inlined positions."""

    element: str
    table: Table
    positions: dict[tuple[str, ...], InlinedPosition]

    @property
    def root(self) -> InlinedPosition:
        return self.positions[()]

    @property
    def column_count(self) -> int:
        return len(self.table.columns)


@dataclass
class Mapping:
    """The full relational mapping of one DTD under one strategy."""

    dtd: Dtd
    strategy: str
    graph: DtdGraph
    relations: dict[str, Relation]

    @property
    def relation_count(self) -> int:
        return len(self.relations)

    @property
    def total_columns(self) -> int:
        return sum(r.column_count for r in self.relations.values())

    def relation_of(self, element: str) -> Relation | None:
        return self.relations.get(element)

    def positions_of_element(
        self, element: str
    ) -> list[InlinedPosition]:
        """Every position (own relation or inlined) holding *element*."""
        found: list[InlinedPosition] = []
        for relation in self.relations.values():
            for position in relation.positions.values():
                if position.element == element:
                    found.append(position)
        return found

    def fragmented_elements(self) -> set[str]:
        """Elements stored as their own relations (require a join to
        reach from their parent) — the paper's fragmentation measure."""
        return set(self.relations)


def build_mapping(dtd: Dtd, strategy: str = SHARED) -> Mapping:
    """Run the inlining algorithm over *dtd* and return the mapping."""
    graph = DtdGraph.from_dtd(dtd)
    for element in graph.elements():
        if graph.is_mixed_with_elements(element):
            raise SchemaMappingError(
                f"element {element!r} has mixed content with element "
                "names — outside the inlining mapping's data-centric scope"
            )
    relation_elements = decide_relations(graph, strategy)
    relations: dict[str, Relation] = {}
    for element in graph.elements():
        if element in relation_elements:
            relations[element] = _expand_relation(
                element, graph, relation_elements
            )
    return Mapping(dtd, strategy, graph, relations)


def _expand_relation(
    element: str, graph: DtdGraph, relation_elements: set[str]
) -> Relation:
    columns: list[Column] = [
        Column("doc_id", INTEGER, nullable=False),
        Column("pre", INTEGER, nullable=False),
        Column("parent_pre", INTEGER, nullable=False),
        Column("ordinal", INTEGER, nullable=False),
    ]
    used_names = {c.name for c in columns}

    def claim(base: str) -> str:
        name = base
        counter = 2
        while name in used_names:
            name = f"{base}{counter}"
            counter += 1
        used_names.add(name)
        return name

    positions: dict[tuple[str, ...], InlinedPosition] = {}

    def expand(path: tuple[str, ...], name: str, quantifier: str) -> None:
        if len(path) > _MAX_INLINE_DEPTH:
            raise SchemaMappingError(
                f"inlining depth exceeded expanding {element!r}"
            )
        prefix = "_".join(_sanitize(p) for p in path)
        if path:
            pre_column = claim(f"e_{prefix}_pre")
        else:
            pre_column = "pre"
        position = InlinedPosition(
            relation_element=element,
            path=path,
            element=name,
            quantifier=quantifier,
            pre_column=pre_column,
        )
        if path:
            columns.append(Column(pre_column, INTEGER))
        if graph.is_pcdata_capable(name):
            base = f"e_{prefix}_val" if path else "content"
            position.content_column = claim(base)
            position.content_pre_column = claim(base + "_pre")
            columns.append(Column(position.content_column, TEXT))
            columns.append(Column(position.content_pre_column, INTEGER))
        for attr in graph.attributes_of(name):
            attr_base = (
                f"a_{prefix}_{_sanitize(attr.name)}"
                if path
                else f"a_{_sanitize(attr.name)}"
            )
            val_column = claim(attr_base + "_val")
            pre_column_attr = claim(attr_base + "_pre")
            position.attr_columns[attr.name] = (val_column, pre_column_attr)
            columns.append(Column(val_column, TEXT))
            columns.append(Column(pre_column_attr, INTEGER))
        positions[path] = position
        for child, child_quantifier in graph.fields[name].items():
            if child in relation_elements or child_quantifier == SIMPLE_STAR:
                position.relation_children[child] = child_quantifier
            else:
                child_path = path + (child,)
                position.inlined_children[child] = child_path
                expand(child_path, child, child_quantifier)

    expand((), element, "1")
    table_name = relation_table_name(element)
    table = Table(
        name=table_name,
        columns=columns,
        primary_key=("doc_id", "pre"),
        indexes=[
            Index(f"{table_name}_parent", table_name,
                  ("doc_id", "parent_pre")),
        ],
    )
    return Relation(element=element, table=table, positions=positions)
