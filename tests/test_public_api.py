"""Every top-level function and class of the package is used by the
package or the benchmark: no public API that only its own unit tests call,
and no private helper that nothing calls.

A name counts as used when some module under src/trisim/ or perfbench/
mentions it outside its own definition: as a name, an attribute, an import,
or a string constant of perfbench (its patch tables name attributes as
strings).
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "trisim"


def _mentions(tree: ast.AST, strings: bool) -> set[str]:
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rsplit(".", 1)[-1])
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def _unused(private: bool) -> list[str]:
    """The package's unused top-level functions and classes whose names are
    _-prefixed (private) or not."""
    trees = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    mentioned = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        mentioned |= _mentions(ast.parse(path.read_text()), strings=True)
    unused = []
    for path, tree in trees.items():
        for i, node in enumerate(tree.body):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or (
                node.name.startswith("_") != private
            ):
                continue
            # the module with this definition left out, then every other module
            rest = ast.Module(body=tree.body[:i] + tree.body[i + 1 :], type_ignores=[])
            others = (t for p, t in trees.items() if p != path)
            if node.name not in mentioned and not any(
                node.name in _mentions(t, strings=False) for t in (rest, *others)
            ):
                unused.append(f"{path.stem}.{node.name}")
    return unused


def test_every_public_name_is_used_outside_its_tests():
    assert _unused(private=False) == []


def test_every_private_name_is_used_outside_its_definition():
    assert _unused(private=True) == []
