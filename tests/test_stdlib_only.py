"""The package runs on the standard library alone (DESIGN §1).

A clean interpreter imports ``repro``, ``repro.serve`` and stores,
queries and publishes a document under every registered scheme (which
also loads each scheme's lazily imported translator); every top-level
module that loaded on the way must be ``repro`` or part of the
standard library.  ``pyproject.toml`` must declare no runtime
dependency either, or ``pip install`` would pull one in.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = pathlib.Path(repro.__file__).resolve().parent.parent

PROBE = """
import json, sys

preloaded = set(sys.modules)

import repro
import repro.serve
from repro import XmlRelStore
from repro.core.registry import available_schemes
from repro.xml.dtd import parse_dtd

DTD = "<!ELEMENT r (a*, b?)><!ELEMENT a (#PCDATA)><!ELEMENT b EMPTY>"
for name in available_schemes():
    kwargs = {"dtd": parse_dtd(DTD)} if name == "inlining" else {}
    with XmlRelStore.open(scheme=name, **kwargs) as store:
        doc_id = store.store_text("<r><a>1</a><a>2</a><b/></r>")
        assert store.query_pres(doc_id, "/r/a"), name
        store.query_xml(doc_id, "/r/a")

loaded = {
    module.partition(".")[0] for module in set(sys.modules) - preloaded
}
print(json.dumps(sorted(
    module for module in loaded
    if module != "repro" and module not in sys.stdlib_module_names
)))
"""


def test_imports_only_the_standard_library():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
        cwd=ROOT,
    )
    assert completed.returncode == 0, completed.stderr[-1500:]
    assert json.loads(completed.stdout) == []


def test_pyproject_declares_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert "dependencies" not in project
    assert "dependencies" not in project.get("dynamic", [])
