"""Every public name in the package is used by the package itself.

A public top-level function or class, or a public method of a top-level
class, that nothing in src/ references outside its own definition is
code that only tests reach; it should be wired into a real check or
deleted.

A module-level function counts as used only through a name that can
reach it: a bare name loaded in its own module, `module.name`, or
`from module import name`.  An attribute of the same name on anything
else (a dataclass field, say) does not count.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "promiscuity"


def _definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node, True
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield member, False


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
        for definition, top_level in _definitions(tree):
            own = {id(node) for node in ast.walk(definition)}
            is_function = top_level and isinstance(definition, ast.FunctionDef)
            candidates = function_refs if is_function else refs
            if not any(name == definition.name and id(node) not in own for name, node in candidates):
                unused.append(f"{tree.module_name}.{definition.name}")
    return sorted(unused)


def test_every_public_name_is_used_in_src():
    unused = _unused(_trees())
    assert not unused, f"public names that no code in src/ uses: {unused}"


def test_a_field_of_the_same_name_does_not_count_as_using_a_function():
    source = {
        "shapes": "from dataclasses import dataclass\n\n"
        "@dataclass\nclass Box:\n    area: float\n\n"
        "def area(width, height):\n    return width * height\n\n"
        "def used(width):\n    return width\n",
        "report": "from . import shapes\nfrom .shapes import Box\n\n"
        "def describe(box: Box):\n    return box.area, shapes.used(1)\n",
    }
    trees = []
    for name, text in source.items():
        tree = ast.parse(text)
        tree.module_name = name
        trees.append(tree)
    assert _unused(trees) == ["report.describe", "shapes.area"]
