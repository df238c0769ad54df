"""The top-level namespace exports what the demos and the README example use,
every public name in the package is read by something other than tests,
and every parameter with a default is set by something other than tests.

Names are read from the sources with ``ast`` rather than by running them,
so the check is fast and catches a demo that imports a name the package
no longer lists.
"""

import ast
import math
import re
from pathlib import Path

import orientedcp

ROOT = Path(__file__).resolve().parents[1]


def _imported_from_package(source: str) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "orientedcp":
            names.update(alias.name for alias in node.names)
    return names


def _readme_python_blocks() -> list[str]:
    text = (ROOT / "README.md").read_text()
    return re.findall(r"```python\n(.*?)```", text, flags=re.S)


def test_all_names_resolve_once():
    names = orientedcp.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(orientedcp, name), name


def test_only_weights_names_the_seed_step():
    # weights.rng_from and weights.annealed_map are the one seed-to-Generator
    # step; every other module takes a seed or a Generator from them
    step = {"SeedSequence", "default_rng", "Philox", "PCG64"}
    named = {}
    for path in sorted((ROOT / "src" / "orientedcp").glob("*.py")):
        if path.name != "weights.py":
            hits = {ident for ident, _, _ in _references(ast.parse(path.read_text()))}
            if hits & step:
                named[path.name] = sorted(hits & step)
    assert not named, named


def test_error_types_are_exported():
    assert {"ResourceLimitError", "ScanError"} <= set(orientedcp.__all__)


def test_demo_and_readme_imports_are_listed():
    sources = [p.read_text() for p in sorted((ROOT / "demos").glob("*.py"))]
    blocks = _readme_python_blocks()
    assert blocks, "README has no python example"
    used = set()
    for src in sources + blocks:
        used |= _imported_from_package(src)
    assert used, "no demo imports from orientedcp"
    assert used <= set(orientedcp.__all__), sorted(used - set(orientedcp.__all__))


# Public names kept although no program path reaches them, with the reason.
REACH_EXEMPT: dict[str, str] = {}


def _definitions(tree):
    """(name, node, is_member) of each public module-level function and
    class and each public method and property of such a class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                or node.name.startswith("_"):
            continue
        yield node.name, node, False
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub, True


def _references(tree):
    """(identifier, line, is_attribute_or_string) for every place a name is read.

    String constants count, since perfbench names the layers it wraps as
    strings.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno, False
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            yield node.value, node.lineno, True


def test_every_public_name_is_reached():
    # Each public name in src/ is read by the package itself, a demo,
    # perfbench or a README example; a name only tests read belongs in
    # tests/_oracles.py or nowhere.
    package = {p: ast.parse(p.read_text())
               for p in sorted((ROOT / "src" / "orientedcp").glob("*.py"))}
    outside = [ast.parse(p.read_text())
               for d in ("demos", "perfbench") for p in sorted((ROOT / d).glob("*.py"))]
    outside += [ast.parse(block) for block in _readme_python_blocks()]
    refs = [(p, *ref) for p, tree in package.items() for ref in _references(tree)]
    refs += [(None, *ref) for tree in outside for ref in _references(tree)]
    defined, unreached = set(), []
    for path, tree in package.items():
        for name, node, member in _definitions(tree):
            key = f"{path.stem}.{name}"
            defined.add(key)
            ident = name.rsplit(".", 1)[-1]
            if not any(n == ident and (attr or not member)
                       and not (p == path and node.lineno <= line <= node.end_lineno)
                       for p, n, line, attr in refs) and key not in REACH_EXEMPT:
                unreached.append(key)
    assert not unreached, unreached
    assert set(REACH_EXEMPT) <= defined, sorted(set(REACH_EXEMPT) - defined)


def _calls_by_function(tree, name=None):
    """(innermost enclosing function name or None, call) of every call."""
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, ast.Call):
            yield name, child
        inner = child.name if isinstance(child, ast.FunctionDef) else name
        yield from _calls_by_function(child, inner)


def test_only_sample_field_builds_a_field():
    # a field is a box, a law and a key, so its one constructor draws it
    # from a law; the tests' fixed fields live in tests/_oracles.py
    paths = [p for d in ("src/orientedcp", "demos", "perfbench")
             for p in sorted((ROOT / d).glob("*.py"))]
    sources = [(p.relative_to(ROOT).as_posix(), ast.parse(p.read_text()))
               for p in paths]
    sources += [("README.md", ast.parse(block)) for block in _readme_python_blocks()]
    callers = [(where, fn) for where, tree in sources
               for fn, call in _calls_by_function(tree)
               if _ident(call.func) == "WeightField"]
    assert callers == [("src/orientedcp/weights.py", "sample_field")], callers


# Parameters with a default that no program path sets, with the reason.
SETTING_EXEMPT = {
    "kinetics.run(probe)": "reads one vertex's state at the sample times; six "
                           "tests use it, including the matrix-exponential law "
                           "check, and no output shows that state",
}


def _settable(tree):
    """(name, parameter, positional index or None) for each parameter with a
    default of each public function and method in ``_definitions``; the
    index of a method's parameter does not count ``self`` or ``cls``."""
    for name, node, member in _definitions(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        static = any(_ident(d) == "staticmethod" for d in node.decorator_list)
        skip = 1 if member and not static else 0
        positional = node.args.posonlyargs + node.args.args
        first = len(positional) - len(node.args.defaults)
        for i, arg in enumerate(positional[first:], first):
            yield name, arg.arg, i - skip
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                yield name, arg.arg, None


def _ident(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _calls(tree):
    """(callee identifier, positional count, keyword names) of every call.

    ``partial(f, ...)`` counts as a call of f, and a starred argument as
    any number of positional ones.
    """
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func, args = node.func, node.args
        if _ident(func) == "partial" and args:
            func, args = args[0], args[1:]
        count = math.inf if any(isinstance(a, ast.Starred) for a in args) else len(args)
        yield _ident(func), count, {k.arg for k in node.keywords if k.arg}


def test_every_parameter_is_set():
    # A parameter with a default is an option; if only tests set it, the
    # program runs one value of it, and that value belongs in the code.
    paths = sorted((ROOT / "src" / "orientedcp").glob("*.py"))
    trees = {p: ast.parse(p.read_text()) for p in paths}
    sources = list(trees.values())
    sources += [ast.parse(p.read_text())
                for d in ("demos", "perfbench") for p in sorted((ROOT / d).glob("*.py"))]
    sources += [ast.parse(block) for block in _readme_python_blocks()]
    calls = [call for tree in sources for call in _calls(tree)]
    defined, unset = set(), []
    for path, tree in trees.items():
        for name, param, index in _settable(tree):
            key = f"{path.stem}.{name}({param})"
            defined.add(key)
            ident = name.rsplit(".", 1)[-1]
            if not any(n == ident and (param in kw or (index is not None and count > index))
                       for n, count, kw in calls) and key not in SETTING_EXEMPT:
                unset.append(key)
    assert not unset, unset
    assert set(SETTING_EXEMPT) <= defined, sorted(set(SETTING_EXEMPT) - defined)
