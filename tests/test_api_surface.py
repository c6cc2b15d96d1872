"""Every public name in the package is used by the package itself.

A public top-level function or class, or a public method of a top-level
class, that nothing in src/ references outside its own definition is
code that only tests reach; it should be wired into a real check or
deleted.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "promiscuity"


def _definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield member


def _references(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node


def test_every_public_name_is_used_in_src():
    trees = [ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))]
    refs = [ref for tree in trees for ref in _references(tree)]
    unused = []
    for tree in trees:
        for definition in _definitions(tree):
            own = {id(node) for node in ast.walk(definition)}
            if not any(name == definition.name and id(node) not in own for name, node in refs):
                unused.append(definition.name)
    assert not unused, f"public names that no code in src/ uses: {sorted(unused)}"
