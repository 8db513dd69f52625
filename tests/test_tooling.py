"""Source-level rules of the package layout."""

import ast
import graphlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import biharm
from biharm import cli

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "biharm"
PERFBENCH = ROOT / "perfbench"

# fft, ifft, fftn, ifftn, fft2, rfft, irfft, rfftn, irfftn, ... (not fftfreq),
# and pocketfft's kernels c2c, r2c, c2r, which geometry calls directly
TRANSFORM = re.compile(r"^(i?r?fft[n2]?|[rc]2[rc])$")


def _transform_names(tree):
    """(line, name) of every transform a module names: call, reference or import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name.rsplit(".", 1)[-1]
        else:
            continue
        if TRANSFORM.match(name):
            yield getattr(node, "lineno", None), name


def test_transform_pattern():
    for name in (
        "fft", "ifft", "fftn", "ifftn", "fft2", "rfft", "irfft", "rfftn", "irfftn",
        "c2c", "r2c", "c2r",
    ):
        assert TRANSFORM.match(name), name
    for name in ("fftfreq", "rfftfreq", "fftshift", "forward", "inverse"):
        assert not TRANSFORM.match(name), name


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name
)
def test_only_geometry_calls_the_fft(path):
    """Every transform goes through ``geometry`` (TorusGeometry.forward/inverse)."""
    found = list(_transform_names(ast.parse(path.read_text(encoding="utf-8"))))
    if path.name == "geometry.py":
        assert found, "geometry.py should hold the package's transforms"
    else:
        assert not found, f"{path.name} calls the FFT directly: {found}"


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name
)
def test_only_geometry_computes_band_mirrors(path):
    """Band coordinates live in ``geometry``: no other module pairs mode m with -m."""
    found = [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if getattr(node, "attr", getattr(node, "id", None)) == "ravel_multi_index"
    ]
    if path.name == "geometry.py":
        assert found, "geometry.py should hold the band's mirror indices"
    else:
        assert not found, f"{path.name} computes band mirror indices at lines {found}"


@pytest.mark.parametrize("schema", ["cli docstring", "README"])
def test_config_schemas_list_every_solver_option(schema):
    """The documented ``solver`` block holds the seed and nothing else."""
    text = cli.__doc__ if schema == "cli docstring" else (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r'"solver":\s*(\{[^}]*\})', text)
    assert block, f"no solver block in the {schema} config schema"
    assert set(json.loads(block.group(1))) == {"seed"}


def _package_imports(path, modules):
    """Package modules that a module imports anywhere, function bodies included."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            # from .minimizer import x; from . import geometry as geo
            found.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("biharm"):
            # from biharm.minimizer import x; from biharm import geometry
            found.add(node.module.partition(".")[2])
            found.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            # import biharm.minimizer
            found.update(a.name.partition(".")[2] for a in node.names)
    return found & modules


def test_package_imports_form_no_cycle():
    """The module import graph of ``biharm`` is acyclic, lazy imports included."""
    paths = sorted(PACKAGE.glob("*.py"))
    modules = {p.stem for p in paths} - {"__init__"}
    graph = {p.stem: _package_imports(p, modules) for p in paths}
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")


def test_certifier_imports_only_the_numeric_core():
    """The certifier takes numbers, not solver options: no solver module is imported."""
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert _package_imports(PACKAGE / "certifier.py", modules) == {"errors", "geometry", "problem"}


# the CLI's imports, then one moment quotient and one Newton polish in process
RUNTIME_IMPORTS = """
import sys
import biharm.cli
from biharm import certifier, mountainpass
from biharm.geometry import TorusGeometry
from biharm.problem import ProblemData

g = TorusGeometry(6, 1, 32)
problem = ProblemData.from_expressions(g, "0.2", "-1", "10*cos(2*pi*x1) - 1")
certifier.moment_rayleigh(problem, 0.5, 2.5, 0)
mountainpass.refine_critical_point(problem, 4.0, g.bump([0.5], width=0.2))
print("scipy.optimize" in sys.modules)
"""


def test_runtime_never_imports_scipy_optimize():
    """scipy.optimize is a test-only oracle: the CLI and its solvers never load it."""
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    res = subprocess.run(
        [sys.executable, "-c", RUNTIME_IMPORTS],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=300,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


def test_package_source_never_names_scipy_optimize():
    """Not even a lazy import on a path the run above does not take."""
    offenders = [p.name for p in PACKAGE.glob("*.py") if "scipy.optimize" in p.read_text(encoding="utf-8")]
    assert not offenders


OPTIONAL_PARAMETER_CEILING = 14


def _optional_parameters(path):
    """Named parameters with a default, over every ``def`` of a module (self/cls excluded)."""
    count = 0
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            # self and cls never carry a default
            count += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
    return count


def test_optional_parameter_ceiling():
    """A new knob raises this ceiling in its own diff, or removes another."""
    total = sum(_optional_parameters(p) for p in PACKAGE.glob("*.py"))
    assert total <= OPTIONAL_PARAMETER_CEILING


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def _defs(tree):
    """Qualified names of a module's functions and of its classes' methods."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}"


def test_every_public_function_is_used_or_exported():
    """No public function only tests call: each is named in ``src`` or exported."""
    trees = {p.stem: _parse(p) for p in PACKAGE.glob("*.py")}
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    unused = [
        f"{module}.{qualname}"
        for module, tree in sorted(trees.items())
        for qualname in _defs(tree)
        for name in [qualname.rpartition(".")[2]]
        if not name.startswith("_") and name not in named and name not in biharm.__all__
    ]
    assert not unused, f"public functions nothing in src names: {unused}"


def _literal(path, name):
    """The literal assigned to a module-level ``name`` of a file (read, not imported)."""
    for node in _parse(path).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path.name} assigns no {name}")


def _spans_read_by_layers():
    """Span names ``perfbench/layers.py`` reads: ``Spans`` queries, hook keys and ARITH."""
    tree = _parse(PERFBENCH / "layers.py")
    names = {f"geometry.{fn}" for fn in _literal(PERFBENCH / "layers.py", "ARITH")}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "spans"
        ):
            names.update(a.value for a in node.args if isinstance(a, ast.Constant))
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "HOOKS" for t in node.targets
        ):
            names.update(k.value for k in node.value.keys if "." in k.value)
    return names


def test_perfbench_spans_name_traced_functions():
    """Each span the layer metrics read is a traced function: a rename cannot zero a metric."""
    modules = _literal(PERFBENCH / "tracer.py", "MODULES")
    members = _literal(PERFBENCH / "tracer.py", "MEMBERS")
    spans = _spans_read_by_layers()
    assert "mountainpass.refine_critical_point" in spans and len(spans) > 20
    for span in sorted(spans):
        module, _, qualname = span.partition(".")
        assert module in modules, f"{span}: module {module} is not traced"
        assert qualname in set(_defs(_parse(PACKAGE / f"{module}.py"))), f"{span}: no such function"
        if "." in qualname:
            assert (module, *qualname.split(".")) in members, f"{span}: member is not traced"
        else:
            assert not qualname.startswith("_"), f"{span}: private functions are not traced"
