"""Code-base rules checked on the source tree itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "sbskit"

# public names that need no caller inside src/, each with the reason
NO_CALLER_NEEDED = {
    "cli.main": "the entry point of the sbskit console script and of python -m sbskit.cli",
    "oracle.analytic_reduced_state": "reference route the tests compare the partial-trace oracle against",
    "spin_model.pi_diag": "closed form of the conserved population; tests certify it against initial_spin_state",
}


def public_definitions(trees):
    """(qualified name, bare name, is_method, node) of every public function and method."""
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield f"{module}.{node.name}", node.name, False, node
            elif isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        yield f"{module}.{node.name}.{member.name}", member.name, True, member


def uses(trees):
    """Bare name -> the Name and Attribute nodes that use it anywhere in src/."""
    out = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                out.setdefault(node.attr, []).append(node)
            elif isinstance(node, ast.Name):
                out.setdefault(node.id, []).append(node)
    return out


def referenced(uses_by_name, name, is_method, definition) -> bool:
    """Whether src/ uses the name outside its own definition (methods: as an attribute)."""
    candidates = [n for n in uses_by_name.get(name, []) if isinstance(n, ast.Attribute) or not is_method]
    own = {id(n) for n in ast.walk(definition)} if candidates else set()
    return any(id(n) not in own for n in candidates)


def test_every_public_function_has_a_caller_in_src():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    uses_by_name = uses(trees)
    defined = set()
    unused = []
    for qualified, name, is_method, node in public_definitions(trees):
        defined.add(qualified)
        if qualified not in NO_CALLER_NEEDED and not referenced(uses_by_name, name, is_method, node):
            unused.append(qualified)
    assert not unused, f"public names only tests (or nothing) call: {unused}"
    assert set(NO_CALLER_NEEDED) <= defined, "the exemption list names a function that no longer exists"
