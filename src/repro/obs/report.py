"""Per-query introspection records.

:class:`Explanation` answers "what SQL does this XPath become, and how
will the engine run it?" without executing the query
(:meth:`repro.XmlRelStore.explain`).  :class:`QueryReport` additionally
runs the query and carries the paper's per-query cost signals —
translation time, SQL length, structural join count (experiment E8),
plan lines (experiment E11), execution time, and result cardinality
(:meth:`repro.XmlRelStore.query_report`).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Explanation:
    """Translated SQL plus the engine's query plan for one XPath."""

    xpath: str
    scheme: str
    #: The statements that run, ``";\n"``-joined in arm order (empty
    #: for a provably empty path).
    sql: str
    params: tuple
    #: ``EXPLAIN QUERY PLAN`` detail lines (index usage, scan order).
    plan: tuple[str, ...]

    def uses_index(self, name: str) -> bool:
        """True when any plan line mentions index *name*."""
        return any(name in line for line in self.plan)

    def format(self) -> str:
        lines = [
            f"xpath:  {self.xpath}",
            f"scheme: {self.scheme}",
            "sql:",
        ]
        lines.extend("    " + line for line in self.sql.splitlines())
        if self.params:
            lines.append(f"params: {list(self.params)!r}")
        lines.append("plan:")
        lines.extend("    " + line for line in self.plan)
        return "\n".join(lines)


@dataclass(frozen=True)
class QueryReport:
    """Everything measured about one executed query."""

    xpath: str
    scheme: str
    sql: str
    params: tuple
    #: Structural joins in the generated statements (experiment E8).
    join_count: int
    #: ``EXPLAIN QUERY PLAN`` detail lines.
    plan: tuple[str, ...]
    #: Seconds spent in XPath→SQL translation (plan + render).
    translate_seconds: float
    #: Seconds spent executing the SQL and fetching ids.
    execute_seconds: float
    #: Number of matching nodes.
    row_count: int
    #: The matching ``pre`` ids, in document order.
    pres: tuple[int, ...] = field(default=(), repr=False)
    #: True when the translation came from the plan cache.
    cache_hit: bool = False
    #: Lifetime plan-cache hits of the store's database.
    cache_hits: int = 0
    #: Lifetime plan-cache misses of the store's database.
    cache_misses: int = 0
    #: Plan-linter diagnostics for the executed statements
    #: (:class:`repro.analysis.Diagnostic` records; empty when every
    #: plan is clean).
    analysis: tuple = ()

    @property
    def sql_length(self) -> int:
        """Length of the generated SQL text, summed over the statements
        (plan-complexity proxy; generated SQL holds no ``;``, so the
        separators are all that is left out)."""
        return len(self.sql) - 2 * self.sql.count(";\n")

    def format(self) -> str:
        return "\n".join(
            [
                f"xpath:     {self.xpath}",
                f"scheme:    {self.scheme}",
                f"rows:      {self.row_count}",
                f"joins:     {self.join_count}",
                f"sql chars: {self.sql_length}",
                f"translate: {self.translate_seconds * 1000:.3f} ms",
                f"execute:   {self.execute_seconds * 1000:.3f} ms",
                f"plan cache: {'hit' if self.cache_hit else 'miss'} "
                f"({self.cache_hits} hits / {self.cache_misses} misses)",
                "plan:",
                *("    " + line for line in self.plan),
                *(
                    ["analysis:"]
                    + ["    " + d.format() for d in self.analysis]
                    if self.analysis
                    else []
                ),
            ]
        )
