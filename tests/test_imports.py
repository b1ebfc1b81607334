"""Every top-level import in the package's modules is used."""

import ast
import pathlib

import pytest

import statabft

SRC = pathlib.Path(statabft.__file__).parent

# names that outside code looks up in a module's namespace by name (the
# benchmark's tracer in perfbench/tracing.py patches them there), so they stay
# importable from that module even where the module itself stops using one
LOOKED_UP = {
    "energy": {"_score_stream", "workload_matrices", "run_array", "detect_statistical", "derive_seed"},
    "faults": {"sample_bitflips", "inject_uniform", "u64_stream", "unit_floats"},
    "systolic": {"gemm", "predicted_output_checksum", "checksum", "apply_fault", "statistical_unit"},
}


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(path):
    """Names bound by the module's top-level imports that nothing in it reads.

    An import marked ``# noqa: F401`` on its first line is a deliberate re-export.
    """
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    bound = set()
    for node in tree.body:
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - read - _exported(tree) - LOOKED_UP.get(path.stem, set()))


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
