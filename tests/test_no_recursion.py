"""No function in the package calls itself, outside a short list whose
depth is bounded by something other than the input's nesting: a formula
nested deeper than the interpreter's recursion limit must still be walked."""

import ast
from pathlib import Path

import cloneabd

SOURCE = Path(cloneabd.__file__).parent

# qualified name -> what bounds its recursion depth
BOUNDED = {
    "formula.gate_implicates": "one level, by sign",
    "formula.balanced_tree.build": "log depth of the operand count",
    "reductions.gen_random_instance.tree": "its depth argument",
    "truthtable._folded": "the arity, at most 6",
}


def _calls_itself(fn, in_class):
    """Whether fn calls its own name, or self.<name> for a method."""
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name) and f.id == fn.name:
            return True
        if (in_class and isinstance(f, ast.Attribute) and f.attr == fn.name
                and isinstance(f.value, ast.Name)
                and f.value.id in ("self", "cls")):
            return True
    return False


def recursive_functions(source=SOURCE):
    found = set()
    for path in sorted(source.glob("*.py")):
        todo = [(path.stem, ast.parse(path.read_text()), False)]
        while todo:
            prefix, scope, in_class = todo.pop()
            for node in ast.iter_child_nodes(scope):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = f"{prefix}.{node.name}"
                    if _calls_itself(node, in_class):
                        found.add(name)
                    todo.append((name, node, False))
                elif isinstance(node, ast.ClassDef):
                    todo.append((f"{prefix}.{node.name}", node, True))
                else:
                    todo.append((prefix, node, in_class))
    return found


def test_only_bounded_functions_recurse():
    assert recursive_functions() == set(BOUNDED)


def test_the_guard_sees_direct_and_method_recursion(tmp_path):
    (tmp_path / "walk.py").write_text(
        "def walk(f):\n"
        "    return [walk(a) for a in f.args]\n"
        "class Enc:\n"
        "    def gate(self, f):\n"
        "        return [self.gate(a) for a in f.args]\n"
        "    def solve(self, route):\n"
        "        return route.solve()\n")
    assert recursive_functions(tmp_path) == {"walk.walk", "walk.Enc.gate"}
