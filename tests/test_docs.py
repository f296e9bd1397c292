"""The docs describe HEAD: a guard that keeps DESIGN.md, CHANGES.md and
EXPERIMENTS.md true to the code.

(a) Every CHANGES.md entry is at most ``MAX_ENTRY`` characters, and no
    PR number has two entries.
(b) DESIGN.md's *Reference* section lists exactly the names the code
    has: the parameters of the three open doors, every metric name,
    every :class:`~repro.errors.XmlRelError` subclass and every
    diagnostic code.  They are collected from ``src/`` with ``ast``
    and compared in both directions, so a missing name fails and so
    does a stale one.  A metric name built at run time is written with
    ``<…>`` placeholders (``serve.shard<N>.query_seconds``).
(c) Every ``DESIGN §n`` cited in ``src/``, ``tests/``, ``benchmarks/``
    or ROADMAP.md has its ``## n.`` heading, and every experiment id
    (``E12``, ``A3``) and deviation number cited there has its
    EXPERIMENTS.md section, table row or numbered entry.
(d) Every committed ``benchmarks/results/*.md`` table says where it was
    measured: the commit, the sqlite version and the CPU count that
    ``write_report`` stamps.

Each check is a function over texts and paths that returns its
problems, so the mutant tests at the bottom run it on a small fixture.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MAX_ENTRY = 1500

#: The open doors whose parameters the reference lists.
DOORS = ("XmlRelStore.open", "ShardedStore.open", "Gateway.__init__")
INSTRUMENTS = {"counter", "gauge", "histogram"}
CODE = re.compile(r"[PXLC]\d{3}")
PLACEHOLDER = re.compile(r"<[^<>]*>")
TICKED = re.compile(r"`([^`]+)`")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


# -- (a) CHANGES.md ---------------------------------------------------------------


def changes_entries(text: str) -> list[tuple[int | None, str]]:
    """``(pr, text)`` per entry: an entry starts at a ``- PR <n>`` line
    and runs to the next one; text before the first entry is an entry
    with no number."""
    entries: list[tuple[int | None, str]] = []
    for line in text.splitlines():
        match = re.match(r"- PR (\d+)\b", line)
        if match:
            entries.append((int(match.group(1)), line))
        elif line.strip() and not line.startswith("#"):
            if not entries:
                entries.append((None, line))
            else:
                pr, body = entries[-1]
                entries[-1] = (pr, body + "\n" + line)
    return entries


def check_changes(text: str) -> list[str]:
    problems = []
    seen: set[int] = set()
    for pr, body in changes_entries(text):
        if pr is None:
            problems.append(f"text outside a '- PR <n>' entry: {body[:60]!r}")
            continue
        if len(body) > MAX_ENTRY:
            problems.append(f"entry {pr}: {len(body)} characters > {MAX_ENTRY}")
        if pr in seen:
            problems.append(f"entry {pr}: a second entry")
        seen.add(pr)
    return problems


# -- (b) DESIGN.md reference against the code --------------------------------------


def _call_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else None


def _params(function) -> list[str]:
    names = [a.arg for a in function.args.posonlyargs + function.args.args]
    if names and names[0] in ("self", "cls"):
        names = names[1:]
    return names + [a.arg for a in function.args.kwonlyargs]


def _templates(node: ast.expr, params: list[str]) -> list[str]:
    """The name templates one instrument argument can produce: text,
    ``<>`` for a value not known statically, ``{param}`` for a
    parameter of the enclosing function."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, ast.IfExp):
        return _templates(node.body, params) + _templates(node.orelse, params)
    if isinstance(node, ast.JoinedStr):
        parts = []
        for value in node.values:
            if isinstance(value, ast.Constant):
                parts.append(str(value.value))
            elif (isinstance(value.value, ast.Name)
                  and value.value.id in params):
                parts.append("{" + value.value.id + "}")
            else:
                parts.append("<>")
        return ["".join(parts)]
    return ["<>"]


def _functions(trees):
    """``(function, owning class name or None)`` for every def."""
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, FUNCTIONS):
                        yield item, node.name
            elif isinstance(node, ast.Module):
                for item in node.body:
                    if isinstance(item, FUNCTIONS):
                        yield item, None


def metric_names(trees) -> set[str]:
    """Every counter, gauge and histogram name, placeholders as ``<>``.

    A name built from a parameter of its function (a helper such as
    the pools' ``_counter(suffix)`` or ``ResultCache(metrics, prefix)``)
    is expanded at each call of that helper."""
    names: set[str] = set()
    helpers: dict[str, list[tuple[str, int, str]]] = {}
    for function, owner in _functions(trees):
        params = _params(function)
        for node in ast.walk(function):
            if not (isinstance(node, ast.Call) and node.args
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in INSTRUMENTS):
                continue
            for template in _templates(node.args[0], params):
                slots = re.findall(r"\{(\w+)\}", template)
                if not slots:
                    names.add(template)
                    continue
                key = owner if function.name == "__init__" else function.name
                for slot in slots:
                    helpers.setdefault(key, []).append(
                        (slot, params.index(slot), template)
                    )
    calls = [
        node for tree in trees for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _call_name(node) in helpers
    ]
    for key, uses in helpers.items():
        for slot, index, template in uses:
            values = []
            for call in (c for c in calls if _call_name(c) == key):
                argument = next(
                    (k.value for k in call.keywords if k.arg == slot),
                    call.args[index] if index < len(call.args) else None,
                )
                if argument is not None:
                    values += _templates(argument, [])
            for value in values or ["<>"]:
                names.add(re.sub(r"\{\w+\}", "<>", template.replace(
                    "{" + slot + "}", value)))
    return names


def code_names(src: Path) -> dict[str, set[str]]:
    """The names DESIGN's reference must list, collected from *src*."""
    trees = [ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(src.rglob("*.py"))]
    classes: dict[str, list[str]] = {}
    doors: set[str] = set()
    codes: set[str] = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                classes[node.name] = [
                    b.attr if isinstance(b, ast.Attribute) else getattr(b, "id", "")
                    for b in node.bases
                ]
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and CODE.fullmatch(node.value)):
                codes.add(node.value)
    for function, owner in _functions(trees):
        door = f"{owner}.{function.name}"
        if door in DOORS:
            arguments = function.args
            names = _params(function)
            if arguments.vararg:
                names.append("*" + arguments.vararg.arg)
            if arguments.kwarg:
                names.append("**" + arguments.kwarg.arg)
            doors |= {f"{door}({name})" for name in names}
    errors = {"XmlRelError"} if "XmlRelError" in classes else set()
    grew = True
    while grew:
        found = {n for n, bases in classes.items() if errors & set(bases)}
        grew = not found <= errors
        errors |= found
    return {
        "parameters": doors,
        "metrics": metric_names(trees),
        "errors": errors,
        "codes": codes,
    }


def _section(text: str, heading: str, level: str = "##") -> str:
    """The body under the first *level* heading starting with
    *heading*, up to the next heading of that level or higher."""
    lines = text.splitlines()
    for start, line in enumerate(lines):
        if line.startswith(f"{level} {heading}"):
            body = []
            for line in lines[start + 1:]:
                if re.match(r"#{1,%d} " % len(level), line):
                    break
                body.append(line)
            return "\n".join(body)
    return ""


def _rows(body: str) -> list[list[str]]:
    """The cells of a markdown table's rows, header row left out."""
    rows = []
    for line in body.splitlines():
        if line.startswith("|") and not re.match(r"\|[\s|:-]+\|?$", line):
            rows.append([c.strip() for c in line.strip().strip("|").split("|")])
    return rows[1:]


def design_names(design: str) -> dict[str, set[str]]:
    """The names DESIGN's *Reference* section lists, placeholders of
    metric names normalized to ``<>``."""
    reference = _section(design, "Reference")
    names: dict[str, set[str]] = {}
    for key, heading in (("parameters", "Parameters"), ("metrics", "Metrics"),
                         ("errors", "Errors"), ("codes", "Diagnostic codes")):
        found: set[str] = set()
        for row in _rows(_section(reference, heading, "###")):
            firsts = TICKED.findall(row[0])
            if key == "parameters":
                doors = [d for d in TICKED.findall(row[1]) if d in DOORS]
                found |= {f"{d}({p})" for d in doors for p in firsts}
            elif key == "metrics":
                found |= {PLACEHOLDER.sub("<>", n) for n in firsts}
            else:
                found |= set(firsts)
        names[key] = found
    return names


def check_reference(design: str, src: Path) -> list[str]:
    have, listed = code_names(src), design_names(design)
    problems = []
    for key in have:
        for name in sorted(have[key] - listed[key]):
            problems.append(f"{key}: {name} is in src/ but not in DESIGN")
        for name in sorted(listed[key] - have[key]):
            problems.append(f"{key}: {name} is in DESIGN but not in src/")
    return problems


# -- (c) citations -----------------------------------------------------------------

DESIGN_CITE = re.compile(
    r"DESIGN(?:\.md)?,?\s+§\s*(\d+)((?:\s*(?:,|and|or)\s*§\s*\d+)*)"
    r"(?:\s+[*\"“]([^*\"”\n]+)[*\"”])?"
)
EXPERIMENT_ID = re.compile(r"\b([EA])(\d{1,2})\b")
DEVIATION = re.compile(r"deviations?[\"”]?\s+(\d+)", re.IGNORECASE)
RANGE = re.compile(r"\b([EA])(\d{1,2})\s*[–-]\s*\1?(\d{1,2})\b")


def experiment_ids(experiments: str) -> set[str]:
    """Ids with a heading or a table row of their own, ranges
    (``A1–A4``) expanded."""
    ids = set()
    for line in experiments.splitlines():
        if line.startswith("#"):
            text = line
        elif line.startswith("|"):
            text = line.strip("|").split("|")[0]
        else:
            continue
        for kind, low, high in RANGE.findall(text):
            ids |= {f"{kind}{n}" for n in range(int(low), int(high) + 1)}
        ids |= {kind + number for kind, number in EXPERIMENT_ID.findall(text)}
    return ids


def prose(path: Path) -> str:
    """What a file says to its reader: a markdown file whole, a Python
    file's comments and docstrings (its string data cites nothing)."""
    text = path.read_text(encoding="utf-8")
    if path.suffix != ".py":
        return text
    parts = [
        token.string
        for token in tokenize.generate_tokens(io.StringIO(text).readline)
        if token.type == tokenize.COMMENT
    ]
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, *FUNCTIONS)):
            parts.append(ast.get_docstring(node) or "")
    return "\n".join(parts)


def check_citations(design: str, experiments: str,
                    paths: list[Path]) -> list[str]:
    sections = set(re.findall(r"(?m)^## (\d+)\. ", design))
    ids = experiment_ids(experiments)
    deviations = set(re.findall(
        r"(?m)^(\d+)\. ", _section(experiments, "Summary of honest deviations")
    ))
    problems = []
    for path in paths:
        text = prose(path)
        where = path.name
        for first, more, title in DESIGN_CITE.findall(text):
            for number in [first] + re.findall(r"\d+", more):
                if number not in sections:
                    problems.append(f"{where}: DESIGN §{number} has no heading")
            if title and first in sections and title.strip() not in (
                _section(design, f"{first}. ")
            ):
                problems.append(f"{where}: DESIGN §{first} has no {title!r}")
        for kind, number in EXPERIMENT_ID.findall(text):
            if kind + number not in ids:
                problems.append(f"{where}: {kind}{number} not in EXPERIMENTS")
        for number in DEVIATION.findall(text):
            if number not in deviations:
                problems.append(f"{where}: deviation {number} not in EXPERIMENTS")
    return problems


def cited_paths(root: Path) -> list[Path]:
    paths = [root / "ROADMAP.md"]
    for directory in ("src", "tests", "benchmarks"):
        paths += sorted((root / directory).rglob("*.py"))
        paths += sorted((root / directory).rglob("*.md"))
    return [p for p in paths if p.is_file() and p != Path(__file__).resolve()]


# -- (d) results tables -------------------------------------------------------------

RESULTS_STAMP = re.compile(
    r"^\*Measured at:\* commit \S+, sqlite \d+(?:\.\d+)+, \d+ CPUs$", re.M
)


def check_stamps(paths: list[Path]) -> list[str]:
    return [
        f"{path.name}: no measurement stamp"
        for path in paths
        if not RESULTS_STAMP.search(path.read_text(encoding="utf-8"))
    ]


# -- the repository ----------------------------------------------------------------


def _read(name: str) -> str:
    return (ROOT / name).read_text(encoding="utf-8")


def test_changes_entries_are_short_and_unique():
    assert check_changes(_read("CHANGES.md")) == []


def test_design_reference_lists_the_names_the_code_has():
    assert check_reference(_read("DESIGN.md"), ROOT / "src") == []


def test_cited_sections_experiments_and_deviations_resolve():
    assert check_citations(
        _read("DESIGN.md"), _read("EXPERIMENTS.md"), cited_paths(ROOT)
    ) == []


def test_every_results_table_is_stamped():
    tables = sorted((ROOT / "benchmarks" / "results").glob("*.md"))
    assert tables
    assert check_stamps(tables) == []


# -- the guard against its mutants -------------------------------------------------

FIXTURE_SRC = '''
class XmlRelError(Exception):
    pass


class StorageError(XmlRelError):
    pass


class XmlRelStore:
    @classmethod
    def open(cls, path, scheme="interval", **kwargs):
        pass


class ShardedStore:
    @classmethod
    def open(cls, directory, shards=4):
        pass


class Gateway:
    def __init__(self, store, port=0):
        self.store = store


class Pool:
    def __init__(self, metrics, name):
        self.metrics, self.name = metrics, name

    def _counter(self, suffix):
        return self.metrics.counter(f"pool.{self.name}.{suffix}")

    def acquire(self, shard):
        self._counter("acquires").inc()
        self.metrics.histogram(f"serve.shard{shard}.query_seconds")
        self.metrics.gauge("db.savepoint_depth").set(0)


RULE = "P001"
'''

FIXTURE_DESIGN = """\
# DESIGN

## 1. What the system is

Text.

## Reference

### Parameters

| parameter | doors | meaning |
|---|---|---|
| `path` | `XmlRelStore.open` | file |
| `scheme` | `XmlRelStore.open` | mapping |
| `**kwargs` | `XmlRelStore.open` | scheme options |
| `directory` | `ShardedStore.open` | directory |
| `shards` | `ShardedStore.open` | shard count |
| `store` | `Gateway.__init__` | the store |
| `port` | `Gateway.__init__` | TCP port |

### Metrics

| name | kind | meaning |
|---|---|---|
| `pool.<name>.acquires` | counter | acquires |
| `serve.shard<N>.query_seconds` | histogram | per shard |
| `db.savepoint_depth` | gauge | depth |

### Errors

| error | meaning |
|---|---|
| `XmlRelError`, `StorageError` | the hierarchy |

### Diagnostic codes

| codes | family |
|---|---|
| `P001` | plan lint |
"""

FIXTURE_EXPERIMENTS = """\
# EXPERIMENTS

## E1 — Storage

| scheme | bytes |
|---|---|
| edge | 1 |

## Summary of honest deviations

1. **E1**: NULLs are small.
"""


def entries(*numbered: tuple[int, str]) -> str:
    """CHANGES.md text with one ``- PR <n>: <text>`` line per pair."""
    return "".join(f"- PR {n}: {text}\n" for n, text in numbered)


@pytest.fixture
def fixture_tree(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    (src / "mod.py").write_text(FIXTURE_SRC, encoding="utf-8")
    citing = tmp_path / "tests"
    citing.mkdir()
    (citing / "test_x.py").write_text(
        "# DESIGN §1; E1 and deviation 1 (EXPERIMENTS.md)\n", encoding="utf-8"
    )
    return tmp_path


def test_the_fixture_passes_every_check(fixture_tree):
    assert check_changes(entries((1, "one."), (2, "two."))) == []
    assert check_reference(FIXTURE_DESIGN, fixture_tree / "src") == []
    assert check_citations(
        FIXTURE_DESIGN, FIXTURE_EXPERIMENTS, cited_paths(fixture_tree)
    ) == []


def test_guard_fails_an_entry_of_1501_characters():
    head = entries((1, ""))[:-1]
    entry = head + "x" * (MAX_ENTRY + 1 - len(head))
    assert len(entry) == MAX_ENTRY + 1
    assert check_changes(entry + "\n") == [
        f"entry 1: {MAX_ENTRY + 1} characters > {MAX_ENTRY}"
    ]
    assert check_changes(entry[:-1] + "\n") == []


def test_guard_fails_a_pr_with_two_entries_or_an_unbulleted_one():
    assert check_changes(entries((1, "a."), (1, "follow-up."))) == [
        "entry 1: a second entry"
    ]
    assert check_changes(entries((1, "no bullet."))[2:] + entries((2, "b.")))


def test_guard_fails_a_metric_missing_from_the_reference(fixture_tree):
    mutant = FIXTURE_DESIGN.replace(
        "| `db.savepoint_depth` | gauge | depth |\n", ""
    )
    assert check_reference(mutant, fixture_tree / "src") == [
        "metrics: db.savepoint_depth is in src/ but not in DESIGN"
    ]


def test_guard_fails_a_stale_error_left_in_the_reference(fixture_tree):
    mutant = FIXTURE_DESIGN.replace(
        "`XmlRelError`, `StorageError`", "`XmlRelError`, `StorageError`, `GoneError`"
    )
    assert check_reference(mutant, fixture_tree / "src") == [
        "errors: GoneError is in DESIGN but not in src/"
    ]


def test_guard_fails_a_citation_of_a_missing_section(fixture_tree):
    (fixture_tree / "tests" / "test_y.py").write_text(
        "# see DESIGN §99\n", encoding="utf-8"
    )
    assert check_citations(
        FIXTURE_DESIGN, FIXTURE_EXPERIMENTS, cited_paths(fixture_tree)
    ) == ["test_y.py: DESIGN §99 has no heading"]


def test_guard_fails_an_unresolved_experiment_or_deviation(fixture_tree):
    (fixture_tree / "tests" / "test_y.py").write_text(
        "# E7 shows it; deviation 4 too\n", encoding="utf-8"
    )
    assert check_citations(
        FIXTURE_DESIGN, FIXTURE_EXPERIMENTS, cited_paths(fixture_tree)
    ) == [
        "test_y.py: E7 not in EXPERIMENTS",
        "test_y.py: deviation 4 not in EXPERIMENTS",
    ]


def test_guard_fails_a_results_table_with_no_stamp(tmp_path):
    from repro.bench import ExperimentResult, write_report

    result = ExperimentResult("E1", "t", "w", "e")
    result.add_row("edge", ms=1.0)
    stamped = Path(write_report(result, directory=str(tmp_path)))
    assert check_stamps([stamped]) == []
    text = stamped.read_text(encoding="utf-8")
    bare = tmp_path / "e2.md"
    bare.write_text(
        "\n".join(
            line for line in text.splitlines()
            if not line.startswith("*Measured at:*")
        ),
        encoding="utf-8",
    )
    assert check_stamps([bare]) == ["e2.md: no measurement stamp"]
