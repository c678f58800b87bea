"""The package's import structure, read from its source with `ast`: the
checker imports nothing from the recognizer it checks, and modules import
at their top.  Every source file also parses as the oldest Python that
``pyproject.toml`` accepts."""

import ast
from pathlib import Path

import oppograph

PACKAGE = Path(oppograph.__file__).parent
ROOT = Path(__file__).resolve().parent.parent


def _imported_names(node) -> set[str]:
    """Every dotted name an import statement reads, relative or not."""
    if isinstance(node, ast.Import):
        return {alias.name for alias in node.names}
    module = node.module or ""
    return {module} | {f"{module}.{alias.name}".lstrip(".") for alias in node.names}


def test_verify_imports_nothing_from_recognize():
    tree = ast.parse((PACKAGE / "verify.py").read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports
    for node in imports:
        for name in _imported_names(node):
            assert "recognize" not in name.split("."), ast.unparse(node)


def test_the_only_function_local_import_is_verify_orientation():
    # p4.verify_orientation wraps verify.check_orientation, and verify
    # imports p4; the helper has no caller in the package
    local = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(isinstance(node, (ast.Import, ast.ImportFrom)) for node in ast.walk(fn)):
                    local.add(f"{path.stem}.{fn.name}")
    assert local == {"p4.verify_orientation"}


def test_every_source_file_parses_as_python_3_10():
    # requires-python is ">=3.10"; with feature_version, ast rejects
    # grammar added later (except*, for one) without a 3.10 interpreter
    paths = sorted(path for top in ("src", "tests", "bench") for path in (ROOT / top).rglob("*.py"))
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_one_recognizer_per_class_is_exported():
    # the distance-hereditary and (gem, house)-free results are route
    # labels of the class pipelines, not entry points of their own
    exported = {name for name in dir(oppograph) if name.startswith("recognize_")}
    assert exported == {
        "recognize_opposition",
        "recognize_coalition",
        "recognize_generalized_opposition",
        "recognize_coalition_distance_hereditary",
    }
