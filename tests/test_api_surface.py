"""Every name the package defines is used by the package itself.

A module-level function (public or private), a module-level constant, a
public top-level class, or a public method of a top-level class, that
nothing in src/ references outside its own definition is code that only
tests reach, or no code at all; it should be wired into a real check or
deleted.

A module-level function or constant counts as used only through a name
that can reach it: a bare name loaded in its own module, `module.name`,
or `from module import name`.  An attribute of the same name on anything
else (a dataclass field, say) does not count.

The closed-form modules (contangle, config, qudit) import only the
standard library, so the closed forms share no module with the spectral
and brute-force routes they are checked against.

No module reads another module's underscore name: what one module needs
of another is public.
"""
import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "promiscuity"


def _definitions(tree: ast.Module):
    """(node, name, module_level) of each name the module defines."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node, node.name, True
        elif isinstance(node, ast.ClassDef):
            if not node.name.startswith("_"):
                yield node, node.name, False
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield member, member.name, False
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not name.id.startswith("__"):
                        yield node, name.id, True


def _references(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node


def _function_references(module: str, tree: ast.AST):
    """The nodes through which code in `tree` can reach function `module.<name>`."""
    own_module = tree.module_name == module
    for node in ast.walk(tree):
        if own_module and isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == module:
            yield node.attr, node
        elif isinstance(node, ast.ImportFrom) and node.module == module:
            for alias in node.names:
                yield alias.name, node


def _trees():
    trees = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        tree.module_name = path.stem
        trees.append(tree)
    return trees


def _unused(trees) -> list[str]:
    refs = [ref for tree in trees for ref in _references(tree)]
    unused = []
    for tree in trees:
        function_refs = [ref for other in trees for ref in _function_references(tree.module_name, other)]
        for definition, defined, module_level in _definitions(tree):
            own = {id(node) for node in ast.walk(definition)}
            candidates = function_refs if module_level else refs
            if not any(name == defined and id(node) not in own for name, node in candidates):
                unused.append(f"{tree.module_name}.{defined}")
    return sorted(unused)


def test_every_public_name_is_used_in_src():
    unused = _unused(_trees())
    assert not unused, f"names that no code in src/ uses: {unused}"


def test_a_field_of_the_same_name_does_not_count_as_using_a_function():
    source = {
        "shapes": "from dataclasses import dataclass\n\n"
        "UNIT = 1.0\n_LIMIT = 10\n_SPARE = 3\n\n"
        "@dataclass\nclass Box:\n    area: float\n\n"
        "def area(width, height):\n    return width * height\n\n"
        "def used(width):\n    return _scaled(width)\n\n"
        "def _scaled(width):\n    return width * UNIT\n\n"
        "def _orphan():\n    return _LIMIT\n",
        "report": "from . import shapes\nfrom .shapes import Box\n\n"
        "def describe(box: Box):\n    return box.area, shapes.used(1)\n",
    }
    trees = []
    for name, text in source.items():
        tree = ast.parse(text)
        tree.module_name = name
        trees.append(tree)
    # a private helper or a constant that nothing reads counts too
    assert _unused(trees) == ["report.describe", "shapes._SPARE", "shapes._orphan", "shapes.area"]


def _pure_setters(trees) -> list[str]:
    """module:line of each call outside gaussian.pure_state that sets the `pure` flag.

    A call sets it by a `pure=` keyword, or by a setattr (or
    `__setattr__`) of "pure" to anything but the constant False.
    """
    found = []
    for tree in trees:
        maker = set()
        for node in tree.body:
            if tree.module_name == "gaussian" and isinstance(node, ast.FunctionDef) and node.name == "pure_state":
                maker.update(id(inner) for inner in ast.walk(node))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or id(node) in maker:
                continue
            sets = any(keyword.arg == "pure" for keyword in node.keywords)
            func = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
            if func in ("setattr", "__setattr__") and len(node.args) >= 2:
                attr, value = node.args[-2:]
                unflagged = isinstance(value, ast.Constant) and value.value is False
                sets = sets or (isinstance(attr, ast.Constant) and attr.value == "pure" and not unflagged)
            if sets:
                found.append(f"{tree.module_name}:{node.lineno}")
    return found


def test_only_pure_state_flags_a_matrix_pure():
    setters = _pure_setters(_trees())
    assert not setters, f"the pure flag is set outside gaussian.pure_state at {setters}"
    sample = ast.parse(
        "def pure_state(s):\n    return Cm(s, pure=True)\n\n"
        "def view(d):\n    v = Cm(d, pure=d.pure)\n"
        "    object.__setattr__(v, 'pure', False)\n    setattr(v, 'pure', d.pure)\n"
    )
    sample.module_name = "gaussian"
    assert _pure_setters([sample]) == ["gaussian:5", "gaussian:7"]


def _imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module is None:
            yield from ("." * node.level + alias.name for alias in node.names)  # from . import x
        elif isinstance(node, ast.ImportFrom):
            yield "." * node.level + node.module


def test_closed_form_modules_import_only_the_standard_library():
    for module in ("contangle", "config", "qudit"):
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        foreign = [
            name for name in _imported_modules(tree)
            if name.startswith(".") or name.split(".")[0] not in sys.stdlib_module_names
        ]
        assert not foreign, (
            f"{module} imports {foreign}: the closed forms must share no module "
            "with the route they are checked against"
        )


def _fork_sites(trees) -> list[str]:
    """module.name of the top-level definition around each `os.fork`, flagged if it has no `os._exit`."""
    sites = []
    for tree in trees:
        for node in tree.body:
            used = [
                inner.attr for inner in ast.walk(node)
                if isinstance(inner, ast.Attribute) and isinstance(inner.value, ast.Name) and inner.value.id == "os"
            ]
            site = f"{tree.module_name}.{getattr(node, 'name', node.lineno)}"
            sites += [site if "_exit" in used else f"{site} (no os._exit)"] * used.count("fork")
    return sites


def test_the_sweep_is_the_one_fork_and_its_worker_leaves_through_os_exit():
    # a forked worker that returned would run its caller's code (a script, a test runner) twice
    assert _fork_sites(_trees()) == ["cli._fork_rows"]
    sample = ast.parse(
        "import os\n\ndef good():\n    if not os.fork():\n        os._exit(0)\n\n"
        "def bad():\n    return os.fork()\n\nPID = os.fork()\n"
    )
    sample.module_name = "jobs"
    assert _fork_sites([sample]) == ["jobs.good", "jobs.bad (no os._exit)", "jobs.10 (no os._exit)"]


def _foreign_private_reads(trees) -> list[str]:
    """module:line module.name of each read of another package module's underscore name.

    A read is `module._name`, through the module's own name, or
    `from .module import _name`; dunder names do not count.
    """
    modules = {tree.module_name for tree in trees}
    found = []
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [(node.value.id, node.attr)]
            elif isinstance(node, ast.ImportFrom) and node.level and node.module:
                names = [(node.module, alias.name) for alias in node.names]
            else:
                continue
            found += [
                f"{tree.module_name}:{node.lineno} {module}.{name}"
                for module, name in names
                if module in modules - {tree.module_name} and name.startswith("_") and not name.startswith("__")
            ]
    return found


def test_no_module_reads_another_modules_underscore_name():
    reads = _foreign_private_reads(_trees())
    assert not reads, f"modules reaching into another module's private names: {reads}"
    source = {
        "shapes": "import os\n\n_UNIT = 1.0\n\ndef _scaled(w):\n    return w * _UNIT\n\n"
        "def leave():\n    os._exit(0)\n",
        "report": "from . import shapes\nfrom .shapes import _UNIT, leave\n\n"
        "def describe(box):\n    return shapes._scaled(box._area), shapes.__name__, _UNIT\n",
    }
    trees = []
    for name, text in source.items():
        tree = ast.parse(text)
        tree.module_name = name
        trees.append(tree)
    # own private names, another package's (os._exit), an object's attribute
    # and a dunder do not count
    assert _foreign_private_reads(trees) == ["report:2 shapes._UNIT", "report:5 shapes._scaled"]
