"""AST scans of ``src/dualvit``: every top-level function and class has a user
in ``src/``, only the tape reads ``requires_grad``, and no call casts through
``Tensor``'s ``dtype`` (``Module.astype`` is the one cast).

The first scan keeps out production code that exists only for a test. A name
counts as referenced when ``src/`` reads it through its module (``T.matmul``
after ``from . import tensor as T``), or as a bare name in the module that
defines it or imports it by name; a definition's references to itself do not
count. A bare name elsewhere is some other binding
(``training._randomize``'s ``scale`` parameter is no module's function), and
so is an attribute of anything but a module (``p.data.astype``).
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "dualvit"

# Documented API whose users live outside src/; each entry names them.
ALLOWED = {
    # the DVDS writer: perfbench's tiny-train set-up and the data, CLI and
    # acceptance tests write packed datasets with it
    ("data", "save_packed_dataset"),
}


def _definitions_and_references():
    """(module, name) of every top-level definition, and of every reference."""
    defined, referenced = set(), set()
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text(), str(path))
        names, modules = {}, {}  # bare name -> (module, name); alias -> module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:
                    if node.module:
                        names[a.asname or a.name] = (node.module, a.name)
                    else:
                        modules[a.asname or a.name] = a.name
        for top in tree.body:
            owner = getattr(top, "name", None)
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add((module, owner))
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                        and node.value.id in modules:
                    referenced.add((modules[node.value.id], node.attr))
                elif isinstance(node, ast.Name) and node.id != owner:
                    referenced.add(names.get(node.id, (module, node.id)))
    return defined, referenced


def test_every_top_level_definition_is_referenced_from_src():
    defined, referenced = _definitions_and_references()
    unreferenced = defined - referenced - ALLOWED
    assert sorted(f"{module}.{name}" for module, name in unreferenced) == []


def test_every_allowlisted_name_is_one_the_scan_flags():
    defined, referenced = _definitions_and_references()
    assert ALLOWED <= defined - referenced


# The only code that may read ``requires_grad``: ``_make`` sets it on an op
# result, the tape drops the gradients of parents that need none, and the
# repr shows it. Rules return every parent's gradient and modules never ask.
REQUIRES_GRAD_READERS = {"tensor._make", "tensor.Tensor.backward", "tensor.Tensor.__repr__"}


def _requires_grad_readers():
    """``module.qualname`` of each def (or module) whose body reads ``.requires_grad``.
    A store, or a ``requires_grad=True`` keyword argument, is no read."""
    readers = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        elif isinstance(node, ast.Attribute) and node.attr == "requires_grad" \
                and isinstance(node.ctx, ast.Load):
            readers.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.stem)
    return readers


def test_only_the_tape_reads_requires_grad():
    readers = _requires_grad_readers()
    assert sorted(readers - REQUIRES_GRAD_READERS) == []
    assert readers >= REQUIRES_GRAD_READERS  # the list names no reader that is gone


def _tensor_calls():
    """``(path:line, passes dtype)`` of every call to ``Tensor`` or ``T.Tensor``;
    ``dtype`` is ``Tensor``'s third parameter, by keyword or by position."""
    calls = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and (
                    isinstance(node.func, ast.Name) and node.func.id == "Tensor"
                    or isinstance(node.func, ast.Attribute) and node.func.attr == "Tensor"):
                casts = len(node.args) >= 3 or any(k.arg == "dtype" for k in node.keywords)
                calls.append((f"{path.name}:{node.lineno}", casts))
    return calls


def test_no_call_in_src_passes_dtype_to_tensor():
    calls = _tensor_calls()
    assert calls  # the scan sees the constructor's callers
    assert [where for where, casts in calls if casts] == []
