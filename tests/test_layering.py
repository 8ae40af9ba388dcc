"""Module layering: every skelflow module imports only modules of lower
layers, `numcore` defines only functions that the package uses, and numpy
is the only library outside the standard one that the package loads."""

import ast
import os
import pathlib
import subprocess
import sys

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
TESTS_DIR = pathlib.Path(__file__).parent
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


# numcore functions that no module calls: acceptance 03's gradient check
# runs `grad_check` on probes built with `tanh`
NUMCORE_TEST_ONLY = {"tanh", "grad_check"}


def numcore_uses(sources):
    """Public numcore functions and the names the package uses, read from
    {module: source}: `nc.<name>` in any other module, and a bare name in
    numcore outside the function of that name (a Var method counts)."""
    tree = ast.parse(sources["numcore"])
    public = {node.name for node in tree.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    used = set()
    for node in tree.body:
        names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
        used |= names - {getattr(node, "name", None)}
    for module, source in sources.items():
        if module != "numcore":
            used |= {n.attr for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Attribute)
                     and isinstance(n.value, ast.Name) and n.value.id == "nc"}
    return public, used


def test_numcore_use_reader():
    sources = {"numcore": ("def a(x):\n    return a(x)\n\ndef b(x):\n    return x\n\n"
                           "def c(x):\n    return x\n\ndef d(x):\n    return x\n\n"
                           "def _e(x):\n    return x\n\n"
                           "class V:\n    def __neg__(self):\n        return c(self)\n"),
               "flow": "from . import numcore as nc\nnc.b(1)\nd = 2\n"}
    public, used = numcore_uses(sources)
    assert public == {"a", "b", "c", "d"}
    assert public - used == {"a", "d"}


def test_numcore_defines_only_used_functions():
    sources = {m: (PACKAGE_DIR / f"{m}.py").read_text() for m in MODULES}
    public, used = numcore_uses(sources)
    assert NUMCORE_TEST_ONLY <= public
    assert sorted(public - used - NUMCORE_TEST_ONLY) == []


# --- third-party imports -----------------------------------------------------

# besides the standard library and the package itself; the tests add
# their own modules
THIRD_PARTY = {"src": {"numpy"}, "tests": {"numpy", "pytest", "hypothesis"}}


def top_level_imports(source):
    """Top-level names of the packages a module's absolute imports load."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_top_level_reader():
    source = ("import numpy.linalg as la, os\nfrom scipy.special import expit\n"
              "from . import data\nfrom .flow import X\n"
              "def f():\n    import json\n")
    assert top_level_imports(source) == {"numpy", "os", "scipy", "json"}


@pytest.mark.parametrize("where", sorted(THIRD_PARTY))
def test_only_numpy_outside_the_standard_library(where):
    directory = PACKAGE_DIR if where == "src" else TESTS_DIR
    local = {"skelflow"} | {p.stem for p in directory.glob("*.py")}
    imports = set()
    for path in directory.glob("*.py"):
        imports |= top_level_imports(path.read_text())
    outside = imports - set(sys.stdlib_module_names) - local
    assert outside == THIRD_PARTY[where]


def test_package_loads_no_scipy():
    """A process that imports the CLI, the numerics and training never
    loads scipy, not even through another library."""
    code = ("import sys\nimport skelflow.cli, skelflow.numcore, skelflow.training\n"
            "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
