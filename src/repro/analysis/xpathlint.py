"""XPath static analysis: satisfiability and ``//`` expansion.

Given a DTD (:mod:`repro.xml.dtd` content models) or a
:class:`~repro.stats.pathsummary.PathSummary`, an :class:`XPathAnalyzer`
answers one question about a query *before* any SQL is generated:

**Satisfiability** — can the path match anything at all?  A DTD bounds
which child/attribute names each element may carry, so
``/bib/nonexistent/title`` is provably empty on any conforming document;
a path summary records which label paths actually occur, so it prunes
instance-level misses too.  :meth:`XPathAnalyzer.satisfiable` returns
``False`` only for *provable* emptiness (the decidable direction) and
``None`` otherwise — a DTD can never promise a node exists (every
particle may be optional), and text/extended-axis steps stay unknown
because the non-validating parser stores whitespace text even where a
children model allows none.  Provably-empty queries short-circuit in
:meth:`~repro.query.translator.BaseTranslator.query_pres` with zero SQL
statements executed (diagnostic ``X001``).  Both answers trust the
schema they were given: they hold for documents that *conform* to the
DTD (or for the document the summary was built from — rebuild or
re-attach after updates).  Analysis is opt-in per store via
:meth:`repro.XmlRelStore.enable_analysis`.

**Descendant expansion** (:func:`expand_descendants`) needs no analyzer
and no DTD.  Edge and binary record every element label path of each
document while they shred it
(:class:`~repro.storage.base.LabelPathCatalog`), so a ``//`` step has
exactly the concrete child chains that occur in the store:
``/site//item/name`` rewrites into ``/site/regions/africa/item/name |
/site/regions/asia/item/name | ...`` — the structural-summary rewrite
of "Indices in XML Databases".  Each chain translates as an ordinary
child path and the arms run through the translator's union machinery
(sorted distinct merge ≡ XPath union semantics).  The translator asks
for an expansion only where its mapping would otherwise answer the
``//`` with a transitive closure
(:meth:`~repro.query.translator.BaseTranslator.expansion_pays`), and
keeps that closure whenever expansion cannot be exact: wildcard steps,
non-child axes, a store with no complete catalog, or more than
:data:`MAX_EXPANSION_ARMS` chains.
"""

from __future__ import annotations

from repro.analysis.diagnostics import (
    Diagnostic,
    SEVERITY_WARNING,
)
from repro.errors import XmlRelError
from repro.query.plan import (
    AXIS_ATTRIBUTE,
    AXIS_CHILD,
    PathPlan,
    StepPlan,
    plan_path,
    union_arms,
)
from repro.stats.pathsummary import PathSummary
from repro.xml.dtd import Dtd
from repro.xpath.ast import (
    AnyKindTest,
    KindTest,
    LocationPath,
    NameTest,
)
from repro.xpath.parser import parse_xpath

#: Refuse a ``//`` expansion that would produce more union arms than
#: this — past a few dozen chains the n-way union stops being a win.
MAX_EXPANSION_ARMS = 24

#: Label positions tried while binding steps to paths before giving up:
#: a label repeated down a path can bind ``//`` steps in
#: combinatorially many ways.
MAX_BINDING_TRIES = 4096

#: Context sentinel: the document node (parent of the root element).
_DOCUMENT = None

#: Child-set sentinel: statically unknown (open) content.
_OPEN = None


class XPathAnalyzer:
    """Satisfiability over one DTD and/or summary.

    Attach one to a scheme (``scheme.attach_analyzer(analyzer)`` or
    :meth:`repro.XmlRelStore.enable_analysis`) and the translator
    consults it once per XPath, when it caches the plans that run.
    Stateless after construction, so one analyzer may serve many
    schemes over the same vocabulary.
    """

    def __init__(
        self,
        dtd: Dtd | None = None,
        summary: PathSummary | None = None,
    ) -> None:
        if dtd is None and summary is None:
            raise XmlRelError(
                "XPathAnalyzer needs a DTD and/or a path summary"
            )
        self.dtd = dtd
        self.summary = summary
        self._children: dict[str, frozenset[str] | None] = {}
        self._attributes: dict[str, frozenset[str]] = {}
        self._root: str | None = None
        if dtd is not None:
            self._build_dtd_graph(dtd)

    @classmethod
    def from_dtd(cls, dtd: Dtd) -> "XPathAnalyzer":
        return cls(dtd=dtd)

    def _build_dtd_graph(self, dtd: Dtd) -> None:
        declared = frozenset(dtd.elements)
        for name, decl in dtd.elements.items():
            model = decl.model
            if model.is_empty:
                self._children[name] = frozenset()
            elif model.is_any:
                # ANY admits any *declared* element (XML spec), so the
                # world stays closed.
                self._children[name] = declared
            elif model.is_mixed:
                self._children[name] = frozenset(model.mixed_names)
            else:
                self._children[name] = frozenset(model.element_names())
        # Referenced-but-undeclared elements have unknown content.
        for name in dtd.undeclared_references():
            self._children[name] = _OPEN
        for name in self._children:
            self._attributes[name] = frozenset(
                attr.name for attr in dtd.attributes_of(name)
            )
        self._root = dtd.root_name

    # -- satisfiability -------------------------------------------------------

    def satisfiable(self, xpath) -> bool | None:
        """``False`` when *xpath* is provably empty, else ``None``.

        Accepts strings (unions included), parsed location paths, or
        :class:`~repro.query.plan.PathPlan` objects.  Anything the
        planner rejects — or any step outside the decidable child /
        attribute fragment — yields ``None`` (no claim).  Never raises.
        """
        try:
            plans = self._plans_of(xpath)
        except XmlRelError:
            return None
        if not plans:
            return None
        if all(self._plan_satisfiable(plan) is False for plan in plans):
            return False
        return None

    def diagnose(self, xpath) -> tuple[Diagnostic, ...]:
        """Diagnostics for *xpath* (currently: ``X001`` when provably
        empty) — the reporting face of :meth:`satisfiable`."""
        if self.satisfiable(xpath) is False:
            source = "path summary" if self.dtd is None else "DTD"
            return (
                Diagnostic(
                    "X001",
                    SEVERITY_WARNING,
                    f"path is unsatisfiable under the {source}: no "
                    "conforming document can contain a match",
                    location=str(xpath),
                ),
            )
        return ()

    def _plans_of(self, xpath) -> list[PathPlan]:
        if isinstance(xpath, PathPlan):
            return [xpath]
        expr = parse_xpath(xpath) if isinstance(xpath, str) else xpath
        plans = []
        for arm in union_arms(expr):
            if not isinstance(arm, LocationPath):
                raise XmlRelError(f"not a location path: {arm}")
            plans.append(plan_path(arm))
        return plans

    def _plan_satisfiable(self, plan: PathPlan) -> bool | None:
        if self.dtd is not None and self._dtd_satisfiable(plan) is False:
            return False
        if (
            self.summary is not None
            and self._summary_satisfiable(plan) is False
        ):
            return False
        return None

    # -- DTD-based satisfiability walk ---------------------------------------

    def _children_of(self, context) -> frozenset[str] | None:
        """Possible child-element names of a context set (or ``_OPEN``)."""
        if context is _DOCUMENT:
            return frozenset({self._root}) if self._root else _OPEN
        result: set[str] = set()
        for name in context:
            kids = self._children.get(name, _OPEN)
            if kids is _OPEN:
                return _OPEN
            result.update(kids)
        return frozenset(result)

    def _descendants_of(self, context) -> frozenset[str] | None:
        """Closure of :meth:`_children_of` (elements reachable by ≥ 1
        child edge); ``_OPEN`` as soon as any content is unknown."""
        frontier = self._children_of(context)
        if frontier is _OPEN:
            return _OPEN
        seen: set[str] = set()
        while frontier:
            seen.update(frontier)
            next_frontier: set[str] = set()
            for name in frontier:
                kids = self._children.get(name, _OPEN)
                if kids is _OPEN:
                    return _OPEN
                next_frontier.update(kids - seen)
            frontier = frozenset(next_frontier)
        return frozenset(seen)

    def _dtd_satisfiable(self, plan: PathPlan) -> bool | None:
        context = _DOCUMENT  # the document node; elements flow from here
        steps = plan.steps
        for index, step in enumerate(steps):
            is_last = index == len(steps) - 1
            if step.axis == AXIS_ATTRIBUTE:
                if not is_last:
                    # Attribute nodes have no children or attributes:
                    # any further child/attribute step is empty
                    # regardless of the DTD.
                    following = steps[index + 1]
                    if following.axis in (AXIS_CHILD, AXIS_ATTRIBUTE):
                        return False
                    return None
                return self._attribute_satisfiable(context, step)
            if step.axis != AXIS_CHILD:
                return None  # self/parent/extended axes: no claim
            pool = (
                self._descendants_of(context)
                if step.from_descendant
                else self._children_of(context)
            )
            if pool is _OPEN:
                return None
            if isinstance(step.test, NameTest):
                if step.test.is_wildcard:
                    context = pool
                elif step.test.name in pool:
                    context = frozenset({step.test.name})
                else:
                    return False
            elif isinstance(step.test, KindTest):
                # text()/comment()/pi(): stored regardless of the
                # children model (non-validating parser), so only the
                # *element* path up to here was checkable.
                return None
            elif isinstance(step.test, AnyKindTest):
                # node() matches elements and text alike; further
                # structural steps only continue through elements.
                if is_last:
                    return None
                context = pool
            else:
                return None
            if not context:
                return False  # wildcard over an empty pool
        return None

    def _attribute_satisfiable(self, context, step: StepPlan):
        pool = (
            self._descendants_of(context)
            if step.from_descendant
            else _context_or_children(self, context)
        )
        if pool is _OPEN:
            return None
        if not isinstance(step.test, NameTest):
            return None
        for element in pool:
            if element not in self.dtd.elements:
                return None  # undeclared: attribute set unknown
            declared = self._attributes.get(element, frozenset())
            if step.test.is_wildcard:
                if declared:
                    return None
            elif step.test.name in declared:
                return None
        return False

    # -- summary-based satisfiability ----------------------------------------

    def _summary_pattern(
        self, plan: PathPlan
    ) -> list[tuple[str, bool]] | None:
        """The ``PathSummary.matching`` pattern for *plan* (None when a
        step has no label-pattern equivalent)."""
        pattern: list[tuple[str, bool]] = []
        for step in plan.steps:
            if step.axis == AXIS_CHILD:
                if isinstance(step.test, NameTest):
                    label = "*" if step.test.is_wildcard else step.test.name
                elif (
                    isinstance(step.test, KindTest)
                    and step.test.kind == "text"
                ):
                    label = "#text"
                else:
                    return None
            elif step.axis == AXIS_ATTRIBUTE and isinstance(
                step.test, NameTest
            ):
                label = (
                    "@*" if step.test.is_wildcard
                    else f"@{step.test.name}"
                )
            else:
                return None
            pattern.append((label, step.from_descendant))
        return pattern

    def _summary_satisfiable(self, plan: PathPlan) -> bool | None:
        pattern = self._summary_pattern(plan)
        if pattern is None:
            return None
        if not self.summary.matching(pattern):
            return False
        return None


def _context_or_children(analyzer: XPathAnalyzer, context):
    """For a plain attribute step the attribute hangs off the *context*
    elements themselves (document context has none)."""
    if context is _DOCUMENT:
        return frozenset()
    return context


# -- // expansion ----------------------------------------------------------


def _named(step: StepPlan) -> bool:
    return isinstance(step.test, NameTest) and not step.test.is_wildcard


class _TooManyBindings(Exception):
    """Internal: binding ran past :data:`MAX_BINDING_TRIES`."""


def _bindings(steps, path, tries, start=0, index=0):
    """Every way to bind ``steps[index:]`` to positions of *path* from
    *start* on: a child step takes the next position, a ``//`` step any
    later one with its label, and the last step the path's last.
    *tries* is a one-item list counting positions tried."""
    step = steps[index]
    stop = len(path) if step.from_descendant else min(start + 1, len(path))
    for at in range(start, stop):
        tries[0] += 1
        if tries[0] > MAX_BINDING_TRIES:
            raise _TooManyBindings
        if path[at] != step.test.name:
            continue
        if index == len(steps) - 1:
            if at == len(path) - 1:
                yield (at,)
        else:
            for rest in _bindings(steps, path, tries, at + 1, index + 1):
                yield (at,) + rest


def expand_descendants(plan: PathPlan, paths) -> list[PathPlan] | None:
    """*plan* with its ``//`` steps rewritten into the concrete child
    chains *paths* holds, or ``None`` when no exact rewrite is possible.

    *paths* are element label paths from the root (tuples of tags) —
    a store's :class:`~repro.storage.base.LabelPathCatalog` snapshot.
    Every path whose labels bind the plan's steps becomes one arm: the
    path as plain child steps, each of the plan's steps (and so its
    predicates) on the position it binds to.  A label that occurs below
    itself binds once per occurrence; where a predicated step binds in
    several places, each binding is its own arm, and the translator
    unions the arms.  A trailing attribute step rides on every arm.

    Only a single absolute path of named child steps (a trailing
    non-``//`` attribute step allowed) with at least one ``//`` can
    expand.  More than :data:`MAX_EXPANSION_ARMS` arms (or
    :data:`MAX_BINDING_TRIES` positions tried), and no arm at all,
    return ``None``:
    the caller keeps its own descendant plan.  Exact whenever *paths*
    is a superset of the stored paths — an arm whose path is gone finds
    nothing.
    """
    steps = plan.steps
    if not any(step.from_descendant for step in steps):
        return None
    tail: tuple[StepPlan, ...] = ()
    if steps[-1].axis == AXIS_ATTRIBUTE:
        tail, steps = steps[-1:], steps[:-1]
        if tail[0].from_descendant or not _named(tail[0]):
            return None
    if not steps or not all(
        step.axis == AXIS_CHILD and _named(step) for step in steps
    ):
        return None
    # Without a predicate above the last step every binding of one path
    # renders the same chain: the first one is enough.
    first_only = not any(step.predicates for step in steps[:-1])
    target = steps[-1].test.name
    arms: dict[tuple[StepPlan, ...], None] = {}
    tries = [0]
    try:
        for path in paths:
            if path[-1] != target or len(path) < len(steps):
                continue
            for positions in _bindings(steps, path, tries):
                chain = [
                    StepPlan(AXIS_CHILD, NameTest(label)) for label in path
                ]
                for step, at in zip(steps, positions):
                    chain[at] = StepPlan(
                        AXIS_CHILD, step.test, step.predicates
                    )
                arms[tuple(chain) + tail] = None
                if len(arms) > MAX_EXPANSION_ARMS:
                    return None
                if first_only:
                    break
    except _TooManyBindings:
        return None
    if not arms:
        return None
    return [
        PathPlan(chain, source=f"{plan.source}#expand{i}")
        for i, chain in enumerate(arms)
    ]
