"""The package's public API is written twice in __init__.py: once as its
import list and once as __all__. This reads the import list with ast,
without trusting the module's own namespace, and checks that the two lists
agree and that every exported name resolves.
"""

import ast
from pathlib import Path

import chip_diffusion

INIT = Path(chip_diffusion.__file__)


def _imported_names() -> list[str]:
    """Every name bound by a relative `from .module import ...` in __init__.py."""
    names = []
    for node in ast.parse(INIT.read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.level:
            names.extend(alias.asname or alias.name for alias in node.names)
    return names


def test_all_equals_the_import_list():
    imported = _imported_names()
    # An empty list means this reader no longer matches how __init__.py
    # imports its API, not that the API is empty.
    assert imported
    assert len(imported) == len(set(imported))
    assert len(chip_diffusion.__all__) == len(set(chip_diffusion.__all__))
    assert set(chip_diffusion.__all__) == set(imported)


def test_every_exported_name_resolves():
    missing = [name for name in chip_diffusion.__all__ if not hasattr(chip_diffusion, name)]
    assert missing == []
