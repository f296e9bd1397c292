"""XPath→SQL for the binary (label-partitioned) mapping.

Inherits the edge translator's self-joins and closures and routes each
scan to the narrowest relation:

* a step/hop with a *named* test, on any axis, touches only that
  label's partition — the mapping's published advantage on
  label-selective queries;
* ``text()`` and ``comment()`` steps are label-selective too: every text
  node lives in the ``#text`` partition, every comment in ``#comment``;
* wildcards, ``node()``, ``processing-instruction()`` (a PI's label
  carries its target, so PIs spread over partitions) and descendant
  closures must use the ``binary_edges`` view (the UNION ALL of every
  partition) — its published weakness.

A label that was never stored has no partition; scans fall back to the
view, which simply finds nothing.
"""

from __future__ import annotations

from repro.query.plan import StepPlan
from repro.query.translate_edge import EdgeTranslator
from repro.storage.binary import EDGES_VIEW
from repro.storage.edge import COMMENT_LABEL, TEXT_LABEL
from repro.xpath.ast import KindTest, NameTest

#: Kind tests whose nodes all carry one label, hence one partition.
_LABEL_OF_KIND = {"text": TEXT_LABEL, "comment": COMMENT_LABEL}


class BinaryTranslator(EdgeTranslator):
    """Partition-pruning translator for the binary mapping."""

    table = EDGES_VIEW

    def _partition_or_view(self, label: str) -> str:
        return self.scheme.partition_for(label) or EDGES_VIEW

    def step_table(self, step: StepPlan) -> str:
        # Every step's alias is the selected node's own row, so its test
        # picks the partition whatever the axis.
        if isinstance(step.test, NameTest) and not step.test.is_wildcard:
            return self._partition_or_view(step.test.name)
        kind = step.test.kind if isinstance(step.test, KindTest) else None
        if kind in _LABEL_OF_KIND:
            return self._partition_or_view(_LABEL_OF_KIND[kind])
        return EDGES_VIEW

    def element_table(self, name: str) -> str:
        return self._partition_or_view(name)

    def attribute_table(self, name: str) -> str:
        return self._partition_or_view(name)

    def text_table(self) -> str:
        return self._partition_or_view(TEXT_LABEL)
