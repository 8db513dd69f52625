"""Source-level rules of the package layout."""

import ast
import graphlib
import json
import re
from pathlib import Path

import pytest

from biharm import cli

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "biharm"

# fft, ifft, fftn, ifftn, fft2, rfft, irfft, rfftn, irfftn, ... (not fftfreq)
TRANSFORM = re.compile(r"^i?r?fft[n2]?$")


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
    for name in ("fft", "ifft", "fftn", "ifftn", "fft2", "rfft", "irfft", "rfftn", "irfftn"):
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


OPTIONAL_PARAMETER_CEILING = 29


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
