"""Everything defined at module level in `src/prefsat` has a use in the program.

A definition is a function, a class or a name assigned at module level.  A
reference is a name read (not assigned), an attribute, an import alias or a
string constant anywhere in `src/prefsat` or in `bench/`.  String constants
count because `bench/tracing.py` names the functions it wraps as strings.
Code that only tests call belongs next to those tests.  The package's
`__init__.py` is its docstring alone: a re-export would be a reference that
no caller uses.
"""
import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "prefsat"

# Kept without a caller in the program.  bench/README.md names both as the
# suites' query sources.  random_queries would pass the scan anyway, but only
# through bench/workloads.py's own function of the same name.
ALLOWED = {"suite_queries", "random_queries"}

# Defined in src/prefsat only because bench/ calls them by name; each goes
# with the change to the benchmark that stops calling it.
BENCH_ONLY = {"desugar", "elaborate", "Const"}


def _definitions() -> dict[str, str]:
    out = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                out[node.name] = path.name
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store):
                            out[name.id] = path.name
    return out


def _references(paths) -> set[str]:
    refs = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.alias):
                refs.add(node.asname or node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                refs.add(node.value)
    return refs


def test_every_module_level_definition_has_a_reference():
    refs = _references([*SRC.glob("*.py"), *(ROOT / "bench").glob("*.py")])
    unused = {name: where for name, where in _definitions().items()
              if name not in refs and name not in ALLOWED}
    assert not unused, f"defined in src/prefsat but used by nothing in src/ or bench/: {unused}"


def test_allowed_names_still_exist():
    assert ALLOWED <= set(_definitions())


def test_bench_only_names_are_read_by_bench_alone():
    assert BENCH_ONLY <= set(_definitions())
    read_in_src = BENCH_ONLY & _references(SRC.glob("*.py"))
    assert not read_in_src, f"read in src/prefsat, so not kept for bench/ alone: {read_in_src}"
    dropped = BENCH_ONLY - _references((ROOT / "bench").glob("*.py"))
    assert not dropped, f"bench/ no longer uses these; delete their definitions: {dropped}"


def test_module_level_assignments_are_definitions():
    # a constant is checked as a function is: its own assignment is no use
    assert {"LIFT_PATTERNS", "_FORMS", "RESERVED_HEADS", "Env"} <= set(_definitions())


def test_package_init_is_its_docstring_alone():
    body = ast.parse((SRC / "__init__.py").read_text()).body
    assert len(body) == 1 and isinstance(body[0], ast.Expr), "prefsat/__init__.py re-exports"
    assert isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str)


def test_importing_the_cli_loads_every_traced_module():
    # bench/cli_child.py imports prefsat.cli and then reads these modules
    # from sys.modules to install its tracer; the package init loads none
    wanted = ["syntax", "model", "solver", "kb", "suites", "lifts", "values", "cli"]
    code = ("import sys, prefsat.cli; "
            f"print(*[m for m in {wanted!r} if f'prefsat.{{m}}' not in sys.modules])")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout == "\n", f"not loaded by import prefsat.cli: {out.stdout.split()}"


def test_commands_do_not_import_dataclasses():
    # a cold command pays for every module it imports, and dataclasses brings
    # in inspect, ast, dis and tokenize.  -S keeps site's own imports out.
    # suites, lifts and values still load with the cli: bench/cli_child.py
    # reads them from sys.modules right after `import prefsat.cli`.
    code = """if True:
        import io, sys, contextlib, prefsat.cli
        eager = [m for m in ("suites", "lifts", "values") if f"prefsat.{m}" in sys.modules]
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [prefsat.cli.main([command, "pierson"]) for command in ("entail", "replay")]
        print(codes, eager, [m for m in ("dataclasses", "inspect") if m in sys.modules])
    """
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout == "[0, 0] ['suites', 'lifts', 'values'] []\n"


def _node_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _node_subclasses(sub)


def test_no_record_restores_assignment():
    # every record refuses assignment, as Node.__setattr__ does; a value a
    # record derives is cached with functools.cached_property, which writes
    # the instance dict without assigning
    for path in SRC.glob("*.py"):
        if path.stem != "__init__":
            importlib.import_module(f"prefsat.{path.stem}")
    from prefsat.syntax import Node
    records = [c for c in _node_subclasses(Node) if c.__module__.startswith("prefsat.")]
    assert any(c.__name__ == "PreferenceModel" for c in records)
    overriding = [c.__qualname__ for c in records if c.__setattr__ is not Node.__setattr__]
    assert not overriding, f"records that allow assignment: {overriding}"
