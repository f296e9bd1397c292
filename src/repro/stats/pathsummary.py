"""DataGuide-style path summary with value statistics.

One traversal of a document produces, per distinct root-to-node *label
path* (elements as their tag, attributes as ``@name``, text as
``#text``):

* ``count`` — number of instances,
* ``parent_count`` — instances of the parent path (for fanout ratios),
* value statistics over the instances' *text-only content* (elements) or
  values (attributes/text): distinct count, numeric min/max and the
  numeric fraction.

The summary is exact for structure (it enumerates every occurring path)
and approximate for values — exactly the split the estimation experiment
E10 demonstrates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.xml.dom import (
    Attribute,
    Document,
    Element,
    Node,
    Text,
)

PATH_SEPARATOR = "/"


@dataclass
class PathStatistics:
    """Statistics of one distinct label path."""

    path: tuple[str, ...]
    count: int = 0
    parent_count: int = 0
    values: set = field(default_factory=set, repr=False)
    numeric_count: int = 0
    numeric_min: float | None = None
    numeric_max: float | None = None

    @property
    def label(self) -> str:
        return self.path[-1]

    @property
    def distinct_values(self) -> int:
        return len(self.values)

    @property
    def numeric_fraction(self) -> float:
        return self.numeric_count / self.count if self.count else 0.0

    def record_value(self, value: str | None) -> None:
        if value is None:
            return
        self.values.add(value)
        try:
            number = float(value.strip())
        except ValueError:
            return
        self.numeric_count += 1
        if self.numeric_min is None or number < self.numeric_min:
            self.numeric_min = number
        if self.numeric_max is None or number > self.numeric_max:
            self.numeric_max = number

    def equality_selectivity(self) -> float:
        """Fraction of instances expected to match ``= literal``."""
        if not self.count or not self.distinct_values:
            return 0.0
        return 1.0 / self.distinct_values

    def range_selectivity(self, op: str, literal: float) -> float:
        """Fraction matching a numeric range predicate, assuming a
        uniform distribution over [min, max]."""
        if (
            self.numeric_min is None
            or self.numeric_max is None
            or not self.count
        ):
            return 0.0
        lo, hi = self.numeric_min, self.numeric_max
        width = hi - lo
        numeric_share = self.numeric_fraction
        if width <= 0:
            matches = _point_matches(op, lo, literal)
            return numeric_share if matches else 0.0
        if op in ("<", "<="):
            fraction = (literal - lo) / width
        elif op in (">", ">="):
            fraction = (hi - literal) / width
        else:  # '=' / '!=' on numbers
            fraction = 1.0 / max(self.distinct_values, 1)
            if op == "!=":
                fraction = 1.0 - fraction
        return numeric_share * min(max(fraction, 0.0), 1.0)


def _point_matches(op: str, value: float, literal: float) -> bool:
    if op == "<":
        return value < literal
    if op == "<=":
        return value <= literal
    if op == ">":
        return value > literal
    if op == ">=":
        return value >= literal
    if op == "=":
        return value == literal
    return value != literal


@dataclass
class PathSummary:
    """All path statistics of one document."""

    paths: dict[tuple[str, ...], PathStatistics] = field(
        default_factory=dict
    )
    total_nodes: int = 0

    def get(self, path: tuple[str, ...]) -> PathStatistics | None:
        return self.paths.get(path)

    def matching(
        self, steps: list[tuple[str, bool]]
    ) -> list[PathStatistics]:
        """Paths matching a step pattern.

        *steps* is a list of ``(label, from_descendant)`` pairs; labels
        are matched exactly, a descendant flag allows any gap before the
        label (``'*'`` matches any label).
        """
        return [
            statistics
            for path, statistics in self.paths.items()
            if _pattern_matches(steps, path)
        ]

    @property
    def path_count(self) -> int:
        return len(self.paths)


def _pattern_matches(
    steps: list[tuple[str, bool]], path: tuple[str, ...]
) -> bool:
    """Greedy-with-backtracking match of a step pattern against a path."""

    def match_from(step_index: int, path_index: int) -> bool:
        if step_index == len(steps):
            return path_index == len(path)
        label, from_descendant = steps[step_index]
        positions = (
            range(path_index, len(path)) if from_descendant
            else [path_index]
        )
        for position in positions:
            if position >= len(path):
                return False
            at_position = path[position]
            if label == "*":
                # The element wildcard never matches attribute/text labels.
                if at_position.startswith(("@", "#")):
                    continue
            elif label == "@*":
                if not at_position.startswith("@"):
                    continue
            elif at_position != label:
                continue
            if match_from(step_index + 1, position + 1):
                return True
        return False

    return match_from(0, 0)


def build_summary(document: Document) -> PathSummary:
    """Build the path summary of *document* in one traversal."""
    summary = PathSummary()

    def statistics_for(path: tuple[str, ...]) -> PathStatistics:
        if path not in summary.paths:
            summary.paths[path] = PathStatistics(path=path)
        return summary.paths[path]

    def visit(node: Node, parent_path: tuple[str, ...], parent_count_path):
        if isinstance(node, Element):
            label = node.tag
        elif isinstance(node, Attribute):
            label = f"@{node.name}"
        elif isinstance(node, Text):
            label = "#text"
        else:
            return  # comments/PIs carry no estimation-relevant stats
        path = parent_path + (label,)
        statistics = statistics_for(path)
        statistics.count += 1
        summary.total_nodes += 1
        if isinstance(node, Element):
            kids = [c for c in node.children]
            texts = [c for c in kids if isinstance(c, Text)]
            if kids and all(isinstance(c, Text) for c in kids):
                statistics.record_value("".join(t.data for t in texts))
            for attribute in node.attributes:
                visit(attribute, path, statistics.count)
            for child in kids:
                visit(child, path, statistics.count)
        else:
            statistics.record_value(node.string_value)

    for child in document.children:
        visit(child, (), 1)
    # Fill parent counts in a second pass (cheap dictionary lookups).
    for path, statistics in summary.paths.items():
        if len(path) == 1:
            statistics.parent_count = 1
        else:
            parent = summary.paths.get(path[:-1])
            statistics.parent_count = parent.count if parent else 1
    return summary
