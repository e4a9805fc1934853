"""Nothing ships in `affine12` that only the tests call.

Every top-level function, class and constant of a `src/affine12` module
must be loaded, imported or read as an attribute somewhere in
`src/affine12` or in the benchmark modules `perfbench/*.py` (not its
tests). Reference implementations that only tests use live in
`tests/conftest.py`. Likewise every optional parameter of a `src/affine12`
function that this code calls must be set, by keyword or by position, in
at least one of those calls; a function it never calls (a public entry
such as `deform_point`) is exempt. The checks read syntax trees, so names
in docstrings and comments do not count as uses. No `src/affine12`
module touches the warning filters, creates a context variable, imports
`warnings` or calls `warn`: a failure is raised, one way. Last, every class
of `errors.py` is constructed somewhere in `src/affine12` or named by a
benchmark module, so no error type is dead.
"""

import ast
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "affine12"
CALLER_FILES = sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _top_level_names(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id


def _used_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def test_every_top_level_name_has_a_library_or_benchmark_user():
    used = set()
    for path in CALLER_FILES:
        used |= _used_names(_parse(path))
    unused = sorted(
        f"{path.stem}.{name}"
        for path in sorted(SRC.glob("*.py"))
        for name in _top_level_names(_parse(path))
        if name not in used and not (name.startswith("__") and name.endswith("__"))
    )
    assert unused == [], f"only tests use these; move them to tests/conftest.py: {unused}"


def _optional_parameters(node: ast.FunctionDef, bound: int):
    """(position in a call or None, name) of each parameter with a default,
    the first `bound` parameters being bound rather than passed."""
    args = node.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for pos, arg in enumerate(positional[first:], start=first - bound):
        yield pos, arg.arg
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield None, arg.arg


def _calls(tree: ast.Module):
    """(callee name, number of positions set, keywords set) of each call by name or attribute.

    A starred argument may fill every position, and a ** argument (keyword
    None) every keyword; both count as setting them.
    """
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name is None:
            continue
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        yield name, math.inf if starred else len(node.args), {k.arg for k in node.keywords}


def test_every_optional_parameter_is_set_by_some_caller():
    calls = {}
    for path in CALLER_FILES:
        for name, positions, keywords in _calls(_parse(path)):
            calls.setdefault(name, []).append((positions, keywords))
    unset = []
    for path in sorted(SRC.glob("*.py")):
        tree = _parse(path)
        # a method's self or cls is bound, so its call passes one position fewer
        methods = {f for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body
                   if isinstance(f, ast.FunctionDef)
                   and not any(ast.unparse(d) == "staticmethod" for d in f.decorator_list)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for pos, name in _optional_parameters(node, int(node in methods)):
                sites = calls.get(node.name, [])
                if sites and not any((pos is not None and pos < positions)
                                     or name in keywords or None in keywords
                                     for positions, keywords in sites):
                    unset.append(f"{path.stem}.{node.name}({name})")
    assert unset == [], f"no library or benchmark call sets these; drop them: {unset}"


def test_no_global_warning_filter_or_context_variable():
    # the library keeps no global state: the warning filters are
    # process-global and not thread-safe, changing them makes other modules
    # repeat warnings already shown once, and a ContextVar is module state
    banned = {"catch_warnings", "simplefilter", "filterwarnings", "resetwarnings", "ContextVar"}
    found = sorted(f"{path.stem}.{name}" for path in SRC.glob("*.py")
                   for name, _, _ in _calls(_parse(path)) if name in banned)
    assert found == [], f"library code changes global state: {found}"


def test_no_library_module_warns():
    # a failure is raised, not warned: a warning is a second way to report
    # it, and warn() writes the caller's __warningregistry__
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = _parse(path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found += [f"{path.stem}: import {a.name}" for a in node.names
                          if a.name.split(".")[0] == "warnings"]
            elif isinstance(node, ast.ImportFrom) and node.module == "warnings":
                found.append(f"{path.stem}: from warnings import ...")
        found += [f"{path.stem}: {name}()" for name, _, _ in _calls(tree) if name == "warn"]
    assert found == [], f"library code warns: {found}"


def test_every_error_class_is_raised_or_named_by_the_benchmark():
    # an exception or warning type that nothing constructs is dead, unless
    # the benchmark names it (then deleting it is a benchmark change)
    constructed = {name for path in SRC.glob("*.py") for name, _, _ in _calls(_parse(path))}
    named = set()
    for path in (ROOT / "perfbench").glob("*.py"):
        named |= _used_names(_parse(path))
    classes = [node.name for node in _parse(SRC / "errors.py").body
               if isinstance(node, ast.ClassDef)]
    dead = sorted(c for c in classes if c not in constructed | named)
    assert dead == [], f"nothing raises, issues or names these: {dead}"
