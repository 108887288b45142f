"""Every public name in the library is reached by library code.

A public top-level function or class of ``src/rescuepd/*.py`` must appear as
a name or attribute in some library module outside its own definition, and
a public method, or a public field of a ``@dataclass``, must appear as an
attribute there.  Test oracles and proof checkers live under ``tests/``;
this keeps them from drifting back, and keeps every request from paying for
a field that no solver reads.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rescuepd"


def _modules():
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in sorted(SRC.glob("*.py"))}


def _references(tree, skip):
    """(names, attributes) used in tree, leaving out the nodes under skip."""
    names, attributes = set(), set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names, attributes


def _is_dataclass(node):
    """Is the class decorated with @dataclass or @dataclass(...)?"""
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _definitions(modules):
    """(module, kind, qualified name, short name, node) of each public
    top-level function or class, each public method and each public field
    of a dataclass."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for module, tree in modules.items():
        if module == "__init__.py":
            continue
        for node in tree.body:
            if not isinstance(node, kinds) or node.name.startswith("_"):
                continue
            yield module, "name", node.name, node.name, node
            if isinstance(node, ast.ClassDef):
                fields = _is_dataclass(node)
                for item in node.body:
                    if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not item.name.startswith("_")):
                        yield (module, "attribute", f"{node.name}.{item.name}",
                               item.name, item)
                    elif (fields and isinstance(item, ast.AnnAssign)
                          and isinstance(item.target, ast.Name)
                          and not item.target.id.startswith("_")):
                        yield (module, "attribute", f"{node.name}.{item.target.id}",
                               item.target.id, item)


def test_every_public_name_has_a_library_caller():
    modules = _modules()
    unused = []
    for module, kind, qualified, short, node in _definitions(modules):
        reached = False
        for other, tree in modules.items():
            names, attributes = _references(tree, node if other == module else None)
            if short in attributes or (kind == "name" and short in names):
                reached = True
                break
        if not reached:
            unused.append(f"{module}:{node.lineno} {qualified}")
    assert not unused, "public names no library code reaches:\n" + "\n".join(unused)
