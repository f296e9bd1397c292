"""The DTD graph and the relation-selection strategies.

Nodes are element names; there is an edge ``p → c`` with quantifier ``q``
for every field ``(c, q)`` of ``p``'s *simplified* content model (the
normalization of :func:`repro.xml.contentmodel.simplify`).  On this graph
the three inlining strategies of the paper choose which elements become
relations:

``basic``
    every element gets a relation (each inlining everything reachable) —
    the strawman whose relation count explodes;
``shared``
    a relation for: root/unreferenced elements, elements with in-degree
    ≥ 2 (shared), elements reached by a ``*`` edge (set-valued), and
    recursive elements — everything else is inlined into its single
    parent;
``hybrid``
    like shared, but elements that are merely *shared* (in-degree ≥ 2,
    not set-valued, not recursive) are inlined into every parent instead
    — fewer joins, duplicated columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SchemaMappingError
from repro.xml.contentmodel import SIMPLE_STAR
from repro.xml.dtd import AttributeDecl, Dtd

BASIC = "basic"
SHARED = "shared"
HYBRID = "hybrid"

STRATEGIES = (BASIC, SHARED, HYBRID)


@dataclass
class DtdGraph:
    """Element graph of one DTD: *fields* maps each declared element to
    its simplified content model as ``{child: quantifier}``, in model
    order."""

    dtd: Dtd
    fields: dict[str, dict[str, str]] = field(default_factory=dict)

    @classmethod
    def from_dtd(cls, dtd: Dtd) -> "DtdGraph":
        undeclared = dtd.undeclared_references()
        if undeclared:
            raise SchemaMappingError(
                "content models reference undeclared elements: "
                + ", ".join(sorted(undeclared))
            )
        graph = cls(dtd)
        for name, decl in dtd.elements.items():
            graph.fields[name] = dict(decl.simplified())
        return graph

    # -- node classifications -------------------------------------------------

    def elements(self) -> list[str]:
        return list(self.dtd.elements)

    def attributes_of(self, element: str) -> list[AttributeDecl]:
        return self.dtd.attributes_of(element)

    def in_degree(self, element: str) -> int:
        """Number of distinct parents referencing *element*."""
        return sum(element in children for children in self.fields.values())

    def set_valued(self) -> set[str]:
        """Elements reached by at least one ``*`` edge."""
        return {
            child
            for children in self.fields.values()
            for child, quantifier in children.items()
            if quantifier == SIMPLE_STAR
        }

    def reachable(self, element: str) -> set[str]:
        """Elements at the end of a path of one or more edges from
        *element*; it is among them only if it lies on a cycle."""
        found: set[str] = set()
        todo = [element]
        while todo:
            for child in self.fields[todo.pop()]:
                if child not in found:
                    found.add(child)
                    todo.append(child)
        return found

    def recursive(self) -> set[str]:
        """Elements on a cycle (including self-loops): those reachable
        from themselves."""
        return {node for node in self.fields if node in self.reachable(node)}

    def roots(self) -> set[str]:
        """Unreferenced elements (potential document roots)."""
        return {node for node in self.fields if self.in_degree(node) == 0}

    def is_pcdata_capable(self, element: str) -> bool:
        """True if *element* may directly contain text."""
        model = self.dtd.elements[element].model
        return model.is_mixed or model.is_any

    def is_mixed_with_elements(self, element: str) -> bool:
        """Mixed content with element names — unstorable by inlining."""
        model = self.dtd.elements[element].model
        return model.is_mixed and bool(model.mixed_names)


def decide_relations(graph: DtdGraph, strategy: str = SHARED) -> set[str]:
    """The element names that get their own relation under *strategy*."""
    if strategy not in STRATEGIES:
        raise SchemaMappingError(f"unknown inlining strategy: {strategy}")
    if strategy == BASIC:
        return set(graph.elements())
    relations = graph.roots() | graph.set_valued() | graph.recursive()
    if graph.dtd.root_name and graph.dtd.root_name in graph.fields:
        relations.add(graph.dtd.root_name)
    if strategy == SHARED:
        relations |= {
            node for node in graph.fields if graph.in_degree(node) >= 2
        }
    if not relations:
        # Degenerate single-element DTDs and pure chains: the root set is
        # non-empty whenever the DTD is acyclic, but a fully cyclic DTD
        # with no root would land here.
        relations = set(graph.elements()[:1])
    return relations
