"""Every package name the benchmark workloads use must resolve.

perfbench/workloads.py calls the package as `cli.main`,
`enumeration.count_zero2_subsets` and so on. A name moved or renamed in the
package breaks the benchmark's passes, so this reads the workloads' source
with ast, without importing or running it, and looks each name up.
"""

import ast
import importlib
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
MODULES = ("cli", "engine", "enumeration", "graphs", "paths", "quiescence")


def _used_names() -> set[tuple[str, str]]:
    """(module, attribute) for every `module.attribute` read of a package
    module, and every name imported `from chip_diffusion.module`."""
    used = set()
    for node in ast.walk(ast.parse(WORKLOADS.read_text())):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in MODULES
        ):
            used.add((node.value.id, node.attr))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("chip_diffusion."):
            module = node.module.split(".", 1)[1]
            used.update((module, alias.name) for alias in node.names)
    return used


def test_workload_names_resolve_on_the_package():
    used = _used_names()
    # The workloads call into every layer, so an empty or tiny set means
    # this reader no longer matches how they name the package.
    assert {module for module, _ in used} == set(MODULES)
    missing = sorted(
        f"{module}.{name}"
        for module, name in used
        if not hasattr(importlib.import_module(f"chip_diffusion.{module}"), name)
    )
    assert missing == []
