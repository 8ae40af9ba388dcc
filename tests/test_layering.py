"""Module layering: every skelflow module imports only modules of lower layers."""

import ast
import pathlib

import pytest

import skelflow

LAYERS = (
    ("numcore", "skeleton"),
    ("data", "conditioning"),
    ("metrics", "flow", "sequence", "training"),
    ("cli",),
)
LAYER_OF = {name: i for i, names in enumerate(LAYERS) for name in names}
PACKAGE_DIR = pathlib.Path(skelflow.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE_DIR.glob("*.py") if p.stem != "__init__")


def imported_modules(source):
    """Names of the skelflow modules a module's source imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 1 and module:  # from .data import x
                found.add(module.split(".")[0])
            elif node.level == 1 or module == "skelflow":  # from . import data
                found.update(alias.name for alias in node.names)
            elif node.level == 0 and module.startswith("skelflow."):
                found.add(module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("skelflow."))
    return found & set(MODULES)


def test_every_module_has_a_layer():
    assert set(MODULES) == set(LAYER_OF)


def test_reader_sees_every_import_form():
    source = ("from . import data as _data, __version__\nfrom .flow import X\n"
              "import skelflow.metrics\nfrom skelflow import sequence\n"
              "from skelflow.training import Y\nimport numpy\n")
    assert imported_modules(source) == {"data", "flow", "metrics", "sequence", "training"}


@pytest.mark.parametrize("module", MODULES)
def test_imports_point_to_lower_layers(module):
    imports = imported_modules((PACKAGE_DIR / f"{module}.py").read_text())
    upward = sorted(name for name in imports if LAYER_OF[name] >= LAYER_OF[module])
    assert not upward, f"{module} (layer {LAYER_OF[module]}) imports {upward}"
