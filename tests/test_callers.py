"""Everything defined at module level in `src/prefsat` has a use in the program.

A reference is a name, an attribute, an import alias or a string constant
anywhere in `src/prefsat` (outside `__init__.py`, whose re-exports are not
uses) or in `bench/`.  String constants count because `bench/tracing.py`
names the functions it wraps as strings.  Code that only tests call belongs
next to those tests.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "prefsat"

# Kept without a caller in the program.  bench/README.md names both as the
# suites' query sources.  random_queries would pass the scan anyway, but only
# through bench/workloads.py's own function of the same name.
ALLOWED = {"suite_queries", "random_queries"}


def _definitions() -> dict[str, str]:
    out = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                out[node.name] = path.name
    return out


def _references() -> set[str]:
    paths = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    paths += (ROOT / "bench").glob("*.py")
    refs = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.alias):
                refs.add(node.asname or node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                refs.add(node.value)
    return refs


def test_every_module_level_definition_has_a_reference():
    refs = _references()
    unused = {name: where for name, where in _definitions().items()
              if name not in refs and name not in ALLOWED}
    assert not unused, f"defined in src/prefsat but used by nothing in src/ or bench/: {unused}"


def test_allowed_names_still_exist():
    assert ALLOWED <= set(_definitions())
