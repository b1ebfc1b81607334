"""Every top-level import in the package's modules is used."""

import ast
import importlib.util
import pathlib
import re

import pytest

import statabft
from statabft import energy

SRC = pathlib.Path(statabft.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


def _load_tracing():
    """The benchmark's tracer module, loaded from its file and only read."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()

# names that the benchmark's tracer looks up in a module's namespace (it patches
# them there), so they stay importable from that module even where the module
# itself stops using one
LOOKED_UP = {}
for _module, _attr, *_ in (*tracing.PROBES, *tracing.ORACLE_FACTORIES):
    LOOKED_UP.setdefault(_module.rpartition(".")[2], set()).add(_attr.partition(".")[0])


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _top_level_imports(path):
    """The names a module's top-level imports bind, split by a ``# noqa: F401`` mark, and read.

    Returns (names of unmarked imports, names of marked ones, names the module
    reads, its module AST).
    """
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    plain, marked = set(), set()
    for node in tree.body:
        names = set()
        if isinstance(node, ast.Import):
            names = {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = {a.asname or a.name for a in node.names}
        (marked if "# noqa: F401" in lines[node.lineno - 1] else plain).update(names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return plain, marked, read, tree


def unused_imports(path):
    """Names bound by the module's top-level imports that nothing in it reads.

    An import marked ``# noqa: F401`` on its first line is a deliberate re-export.
    """
    plain, _, read, tree = _top_level_imports(path)
    return sorted(plain - read - _exported(tree) - LOOKED_UP.get(path.stem, set()))


def _sources():
    """Every text that may import from the package: src, demos, tests and README's python blocks."""
    for folder in (SRC, ROOT / "demos", ROOT / "tests"):
        for path in sorted(folder.glob("*.py")):
            yield path.read_text()
    yield from re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)


def imported_names(sources):
    """(module, name) of each ``from statabft.module import name`` or ``from .module import name``."""
    found = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.module:
                package, _, module = node.module.rpartition(".")
                if package == "statabft" or (node.level == 1 and not package):
                    found |= {(module, a.name) for a in node.names}
    return found


IMPORTED = imported_names(_sources())


def stale_reexports(path, imported):
    """Names a module re-exports (``# noqa: F401``) that neither it nor any file imports from it."""
    _, marked, read, _ = _top_level_imports(path)
    taken = {name for module, name in imported if module == path.stem}
    return sorted(marked - read - taken - LOOKED_UP.get(path.stem, set()))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    assert unused_imports(path) == []


def test_unused_import_is_reported(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import os\nimport numpy as np\nfrom math import pi, tau\n"
        "from math import e  # noqa: F401\nprint(np, tau)\n"
    )
    assert unused_imports(module) == ["os", "pi"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_stale_reexports(path):
    assert stale_reexports(path, IMPORTED) == []


def test_stale_reexport_is_reported(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from math import pi, tau  # noqa: F401\nfrom math import e  # noqa: F401\nprint(tau)\n"
    )
    assert stale_reexports(module, imported_names(["from statabft.m import e\n"])) == ["pi"]
    assert stale_reexports(module, imported_names(["from .m import pi, e\n"])) == []


def numpy_random_lines(path):
    """Lines of a module that import ``numpy.random`` or reach it through a numpy name.

    Every draw goes through SplitMix64 (``statabft.rng``), so none may.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    numpy_names = {
        a.asname or a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for a in node.names
        if a.name == "numpy"
    }
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name.startswith("numpy.random") for a in node.names):
                lines.add(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.startswith("numpy.random") or (
                module == "numpy" and any(a.name == "random" for a in node.names)
            ):
                lines.add(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "random":
            if isinstance(node.value, ast.Name) and node.value.id in numpy_names:
                lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_numpy_random(path):
    assert numpy_random_lines(path) == []


def test_numpy_random_is_reported(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import numpy as np\nimport numpy.random\nfrom numpy import random\n"
        "from numpy.random import default_rng\nrng = np.random.default_rng(0)\n"
        "import random\nx = random.random()\nimport math as numpy\n"
    )
    assert numpy_random_lines(module) == [2, 3, 4, 5]


@pytest.mark.parametrize(
    "module, attr",
    [p[:2] for p in (*tracing.PROBES, *tracing.ORACLE_FACTORIES)],
    ids=lambda v: v,
)
def test_every_traced_name_resolves(module, attr):
    # instrument() patches owner.__dict__[attr]; a missing name breaks --trace 1
    owner, name = tracing._owner(module, attr)
    assert callable(owner.__dict__[name]) or isinstance(owner.__dict__[name], classmethod)


def test_benchmark_worker_reads_max_workers():
    # perfbench/worker.py records energy.max_workers(16) in every run's environment
    assert energy.max_workers(16) == 1
