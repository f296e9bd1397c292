"""XPath static analysis: satisfiability and ``//`` expansion.

Given a DTD (:mod:`repro.xml.dtd` content models) or a
:class:`~repro.stats.pathsummary.PathSummary`, an :class:`XPathAnalyzer`
answers two questions about a query *before* any SQL is generated:

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
statements executed (diagnostic ``X001``).

**Descendant expansion** — when the DTD's child graph is non-recursive,
a ``//`` step has finitely many concrete child chains, so ``//author``
on the dblp DTD rewrites into ``/dblp/article/author |
/dblp/book/author | ...`` (the classic *path minimization* of DTD-aware
query processing).  Each chain translates as an ordinary child path and
the arms run through the translator's existing union machinery (sorted
distinct merge ≡ XPath union semantics).  The translator asks for an
expansion only where its mapping would otherwise answer the ``//`` with
a transitive closure
(:meth:`~repro.query.translator.BaseTranslator.expansion_pays`).
Expansion is refused (returns ``None``) whenever it cannot be exact:
recursive or open content models (undeclared element references, ANY is
fine), wildcard steps, non-child axes, no DTD, or more than
:data:`MAX_EXPANSION_ARMS` chains.

Both answers trust the schema they were given: satisfiability verdicts
hold for documents that *conform* to the DTD (or for the document the
summary was built from — rebuild or re-attach after updates).  Analysis
is opt-in per store via :meth:`repro.XmlRelStore.enable_analysis`.
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
)
from repro.stats.pathsummary import PathSummary
from repro.xml.dtd import Dtd
from repro.xpath.ast import (
    AnyKindTest,
    BinaryOp,
    KindTest,
    LocationPath,
    NameTest,
)
from repro.xpath.parser import parse_xpath

#: Refuse a ``//`` expansion that would produce more union arms than
#: this — past a few dozen chains the n-way union stops being a win.
MAX_EXPANSION_ARMS = 24

#: Chains deeper than this are almost certainly a mis-modelled DTD.
MAX_CHAIN_DEPTH = 40

#: Context sentinel: the document node (parent of the root element).
_DOCUMENT = None

#: Child-set sentinel: statically unknown (open) content.
_OPEN = None


class _Bail(Exception):
    """Internal: expansion hit an open/recursive/oversized region."""


def _union_arms(expr):
    """Arms of a top-level ``|`` expression (or the expression itself)."""
    if not (isinstance(expr, BinaryOp) and expr.op == "|"):
        return [expr]
    arms = []
    stack = [expr.left, expr.right]
    while stack:
        node = stack.pop()
        if isinstance(node, BinaryOp) and node.op == "|":
            stack.extend((node.left, node.right))
        else:
            arms.append(node)
    return arms


class XPathAnalyzer:
    """Satisfiability and ``//`` expansion over one DTD and/or summary.

    Attach one to a scheme (``scheme.attach_analyzer(analyzer)`` or
    :meth:`repro.XmlRelStore.enable_analysis`) and the translator
    consults it once per XPath, when it caches the analyzed plans.
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
        #: ``//`` expansion needs the closed-world child graph only a
        #: DTD provides (a summary reflects one instance, which updates
        #: could invalidate under cached plans).
        self._closed_world = False
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
        self._closed_world = not dtd.undeclared_references()

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
        for arm in _union_arms(expr):
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

    # -- // expansion ---------------------------------------------------------

    def expand(self, xpath) -> list[PathPlan] | None:
        """Concrete child-chain plans replacing the ``//`` steps of
        *xpath*, or ``None`` when exact expansion is impossible.

        Only fires for a single absolute path whose steps are named
        child steps (a trailing non-descendant attribute step is fine)
        with at least one ``//``, over a closed non-recursive DTD.  The
        returned plans carry the original predicates on their final
        steps and are executed as union arms.
        """
        if not self._closed_world:
            return None
        try:
            plans = self._plans_of(xpath)
        except XmlRelError:
            return None
        if len(plans) != 1:
            return None
        plan = plans[0]
        if not any(step.from_descendant for step in plan.steps):
            return None
        for index, step in enumerate(plan.steps):
            named = isinstance(step.test, NameTest) and not (
                step.test.is_wildcard
            )
            if step.axis == AXIS_CHILD and named:
                continue
            if (
                step.axis == AXIS_ATTRIBUTE
                and named
                and index == len(plan.steps) - 1
                and not step.from_descendant
            ):
                continue
            return None
        try:
            chains = self._expand_steps(plan.steps)
        except _Bail:
            return None
        if not chains or len(chains) > MAX_EXPANSION_ARMS:
            return None
        return [
            PathPlan(chain, source=f"{plan.source or xpath}#expand{i}")
            for i, chain in enumerate(chains)
        ]

    def _expand_steps(
        self, steps: tuple[StepPlan, ...]
    ) -> list[tuple[StepPlan, ...]]:
        """All concrete rewrites of *steps*; raises :class:`_Bail` on
        open/recursive models or combinatorial blowup."""
        # Each partial: (steps so far, current element name or _DOCUMENT)
        partials: list[tuple[tuple[StepPlan, ...], str | None]] = [
            ((), _DOCUMENT)
        ]
        for step in steps:
            grown: list[tuple[tuple[StepPlan, ...], str | None]] = []
            for prefix, state in partials:
                if step.axis == AXIS_ATTRIBUTE:
                    grown.append((prefix + (step,), state))
                    continue
                target = step.test.name
                if not step.from_descendant:
                    kids = self._children_of(
                        _DOCUMENT if state is _DOCUMENT
                        else frozenset({state})
                    )
                    if kids is _OPEN:
                        raise _Bail
                    if target in kids:
                        grown.append((prefix + (step,), target))
                    continue
                for chain in self._chains_to(state, target):
                    rewritten = tuple(
                        StepPlan(AXIS_CHILD, NameTest(name))
                        for name in chain[:-1]
                    ) + (
                        StepPlan(
                            AXIS_CHILD,
                            step.test,
                            step.predicates,
                            from_descendant=False,
                        ),
                    )
                    grown.append((prefix + rewritten, target))
            if len(grown) > MAX_EXPANSION_ARMS:
                raise _Bail
            partials = grown
        return [prefix for prefix, _state in partials]

    def _chains_to(
        self, state: str | None, target: str
    ) -> list[tuple[str, ...]]:
        """Every child-edge chain from *state* to *target* (inclusive),
        shortest-first; raises :class:`_Bail` on cycles along the way."""
        reaches = self._co_reachable(target)
        if target in reaches:
            # The target sits below itself (recursive model): the chain
            # set is infinite, no exact finite rewrite exists.
            raise _Bail
        chains: list[tuple[str, ...]] = []

        def descend(node, path: tuple[str, ...], on_stack: frozenset):
            if len(path) > MAX_CHAIN_DEPTH or len(chains) > (
                MAX_EXPANSION_ARMS
            ):
                raise _Bail
            kids = self._children_of(
                _DOCUMENT if node is _DOCUMENT else frozenset({node})
            )
            if kids is _OPEN:
                raise _Bail
            for kid in sorted(kids):
                if kid == target:
                    chains.append(path + (kid,))
                    # In an acyclic graph the target cannot also sit
                    # below itself; nothing deeper to find here.
                    continue
                if kid not in reaches:
                    continue
                if kid in on_stack:
                    raise _Bail  # cycle on a target-reaching path
                descend(kid, path + (kid,), on_stack | {kid})

        descend(state, (), frozenset())
        return sorted(chains, key=len)

    def _co_reachable(self, target: str) -> frozenset[str]:
        """Elements from which *target* is reachable via child edges."""
        parents: dict[str, set[str]] = {}
        for element, kids in self._children.items():
            for kid in kids or ():
                parents.setdefault(kid, set()).add(element)
        seen: set[str] = set()
        frontier = [target]
        while frontier:
            current = frontier.pop()
            for parent in parents.get(current, ()):
                if parent not in seen:
                    seen.add(parent)
                    frontier.append(parent)
        return frozenset(seen)


def _context_or_children(analyzer: XPathAnalyzer, context):
    """For a plain attribute step the attribute hangs off the *context*
    elements themselves (document context has none)."""
    if context is _DOCUMENT:
        return frozenset()
    return context
