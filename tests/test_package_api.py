"""The package's public API is declared once: each module lists its public
names in __all__, and __init__.py star-imports the modules and joins their
lists. These tests check that the lists do not overlap, that the package
exports exactly their concatenation, and that every public name a module
defines is either in its list or one of the few module-only names below.
They also check that each private name a docstring or README.md cites
still exists, and that README.md's examples run and give the results their
comments state.
"""

import ast
import re
import shlex
from pathlib import Path
from types import ModuleType

import chip_diffusion
from chip_diffusion import cli, engine, enumeration, graphs, paths, quiescence

MODULES = (engine, enumeration, graphs, paths, quiescence)
README = (Path(__file__).parents[1] / "README.md").read_text()

# Public names the CLI, the tests and perfbench reach as module attributes,
# kept out of the package namespace.
MODULE_ONLY = {
    "CCD_BLOCK_BITS",
    "ENUMERATION_LIMIT",
    "EXHAUSTIVE_COUNT_LIMIT",
    "SearchProgress",
    "all_edge_pairs",
    "canonical_edge_mask",
    "format_edge_list",
}


def _public_definitions(module) -> set[str]:
    """Names without a leading underscore that the module's own top level
    binds by def, class or assignment (imported names are not counted)."""
    names = set()
    for node in ast.parse(Path(module.__file__).read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                elts = target.elts if isinstance(target, ast.Tuple) else [target]
                names.update(e.id for e in elts if isinstance(e, ast.Name))
    return {name for name in names if not name.startswith("_")}


def test_no_name_in_two_module_lists():
    listed = [name for module in MODULES for name in module.__all__]
    assert len(listed) == len(set(listed))


def test_package_all_is_the_concatenation():
    assert chip_diffusion.__all__ == [name for m in MODULES for name in m.__all__]


def test_each_module_lists_its_public_definitions():
    # A name dropped from a list, or listed by a module that only imports
    # it, breaks this equality for that module.
    for module in MODULES:
        assert set(module.__all__) == _public_definitions(module) - MODULE_ONLY, module.__name__


def test_exported_names_are_the_module_objects():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(chip_diffusion, name) is getattr(module, name), name


def test_package_binds_only_its_exports():
    # Submodules are bound on import, by the package or by a test.
    public = {
        name
        for name, value in vars(chip_diffusion).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert public == set(chip_diffusion.__all__)


def test_every_exported_name_resolves():
    missing = [name for name in chip_diffusion.__all__ if not hasattr(chip_diffusion, name)]
    assert missing == []


# A private name: a leading underscore, then a letter, not inside a longer
# word (max_steps) or a dunder (__missing__).
PRIVATE_NAME = re.compile(r"(?<!\w)_[A-Za-z]\w*")


def _docstrings(module) -> list[str]:
    """The docstrings of the module and of every class and function in it."""
    kinds = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    nodes = ast.walk(ast.parse(Path(module.__file__).read_text()))
    return [doc for node in nodes if isinstance(node, kinds) and (doc := ast.get_docstring(node))]


def test_private_names_in_docstrings_resolve():
    # A helper deleted or renamed while a docstring still cites it fails
    # here. A name resolves on the module or on one of its classes, as
    # _flows does on engine.Orientation.
    cited = 0
    for module in (*MODULES, cli):
        scopes = [module, *(v for v in vars(module).values() if isinstance(v, type))]
        names = {name for doc in _docstrings(module) for name in PRIVATE_NAME.findall(doc)}
        cited += len(names)
        missing = sorted(name for name in names if not any(hasattr(s, name) for s in scopes))
        assert missing == [], module.__name__
    assert cited > 20  # the reader still finds the names the docstrings cite


def _resolves(name: str) -> bool:
    """Whether some package module, or one of its classes, binds name."""
    modules = (*MODULES, cli)
    classes = [v for m in modules for v in vars(m).values() if isinstance(v, type)]
    return any(hasattr(s, name) for s in (*modules, *classes))


def test_private_names_in_readme_resolve():
    # Inline code spans only: fenced blocks are shell sessions and examples.
    spans = re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", README, flags=re.S))
    names = {name for span in spans for name in PRIVATE_NAME.findall(span)}
    assert sorted(name for name in names if not _resolves(name)) == []
    assert len(names) >= 13


def _fenced(language: str) -> list[str]:
    """The bodies of README.md's fenced blocks in language."""
    return re.findall(rf"```{language}\n(.*?)```", README, flags=re.S)


def test_readme_cli_examples_run(tmp_path, monkeypatch):
    # In order, in one directory, where the first search writes its
    # checkpoint.
    monkeypatch.chdir(tmp_path)
    lines = [
        line for block in _fenced("sh") for line in block.splitlines()
        if line.startswith("chip-diffusion ")
    ]
    assert len(lines) >= 9
    for line in lines:
        assert cli.main(shlex.split(line)[1:]) == 0, line


def _claimed(comment: str) -> list:
    """The values a result comment allows: the comment itself if it is a
    Python literal, else its part before the first ", ", where "a or b"
    allows either."""
    try:
        return [ast.literal_eval(comment)]
    except (ValueError, SyntaxError):
        return [ast.literal_eval(x) for x in comment.split(", ")[0].split(" or ")]


def test_readme_library_results_hold():
    (block,) = _fenced("python")
    scope = {}
    exec(block, scope)
    checked = 0
    for line in block.splitlines():
        code, sep, comment = line.partition("#")
        if sep and isinstance(ast.parse(code.strip()).body[0], ast.Expr):
            assert eval(code, scope) in _claimed(comment.strip()), line
            checked += 1
    assert checked == 3
    # "always equal to is_ccd(g, h)"
    assert eval("is_zero2_invoking(g, h) == is_ccd(g, h)", scope)
