"""Composition rule, mechanically enforced: compound relations may build
only on the audio core, the basic relations, the error types, and
numeric/stdlib support. No backend, harness, or linguistic imports."""

import ast
import sys
from pathlib import Path

import audiomorph.backends as backends_package
import audiomorph.perturb.compound as compound_module

_ALLOWED_ABSOLUTE = {"numpy", "math"}
_ALLOWED_RELATIVE = {
    (2, "audio"),   # from ..audio import ...
    (2, "errors"),  # from ..errors import ...
    (1, "basic"),   # from .basic import ...
}


def _collect_imports(tree):
    absolute, relative = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                absolute.add(alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                relative.add((node.level, node.module or ""))
            else:
                absolute.add((node.module or "").split(".")[0])
    return absolute, relative


def test_compound_relations_built_from_core_and_basic_only():
    source = Path(compound_module.__file__).read_text(encoding="utf-8")
    tree = ast.parse(source)
    absolute, relative = _collect_imports(tree)

    stray_absolute = {
        name
        for name in absolute
        if name not in _ALLOWED_ABSOLUTE and name not in sys.stdlib_module_names
    }
    assert not stray_absolute, f"unexpected absolute imports: {sorted(stray_absolute)}"
    forbidden_stdlib = absolute - _ALLOWED_ABSOLUTE - {"__future__"}
    forbidden_stdlib = {
        name for name in forbidden_stdlib if name in sys.stdlib_module_names
    }
    # stdlib is fine in general; still fail loudly if somebody smuggles in
    # subprocess-ish machinery where pure math belongs
    assert not forbidden_stdlib & {"subprocess", "socket", "http"}

    stray_relative = relative - _ALLOWED_RELATIVE
    assert not stray_relative, f"unexpected relative imports: {sorted(stray_relative)}"


def test_compound_does_not_touch_backends_or_harness():
    source = Path(compound_module.__file__).read_text(encoding="utf-8")
    tree = ast.parse(source)
    imported_names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported_names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported_names.add(node.module or "")
            imported_names.update(alias.name for alias in node.names)
    for banned in ("backends", "campaign", "linguistic", "cli", "deskcorpus"):
        hits = {name for name in imported_names if banned in name.split(".")}
        assert not hits, f"compound module imports {sorted(hits)}"


def test_backends_never_compute_content_digest():
    # the campaign digests each clip once and hands the digest to
    # `moderate`; importing the name is allowed, calling it is not
    for path in sorted(Path(backends_package.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lines = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "content_digest"
        ]
        assert not lines, f"backends/{path.name} calls content_digest on line(s) {lines}"


def test_only_errors_reads_signatures_against_values():
    # relation and backend parameters go through errors.read_params alone,
    # so no other module binds a signature or takes an annotation apart
    package = Path(backends_package.__file__).parents[1]
    for path in sorted(package.rglob("*.py")):
        if path.name == "errors.py" and path.parent == package:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls = [
            f"{name} (line {node.lineno})"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and (name := getattr(node.func, "id", getattr(node.func, "attr", None)))
            in ("bind", "get_origin", "get_args")
        ]
        assert not calls, f"{path.relative_to(package)} calls {', '.join(calls)}"
