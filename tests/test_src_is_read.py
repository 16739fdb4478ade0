"""Every function, class and method in ``src/repro`` has a reader in
the product: in ``src/``, ``examples/`` or ``benchmarks/``.

The twin of ``test_one_scheduler_path.py``.  Test scaffolding and the
scalar reference twins of vectorized passes live in ``tests/``
(``synth.py``, ``references.py``, ``reference_scheduler.py``), beside
the tests that use them, so ``src/`` holds only what the product runs.

A definition counts as read when its name appears anywhere in those
three trees as a loaded name or attribute, in an import, or in a
string constant that is an identifier or a dotted identifier (which
covers ``hook(parts, "admit")``, ``__all__`` entries and
``spans.TARGETS``).  Dunders are exempt, and so is a definition that a
``register_*(...)`` decorator records in a registry.  The rule goes by
name: a definition whose name is read for another reason passes, so
the guard catches code that only tests call, not every dead line.
"""

import ast
import os
import re

ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), os.pardir))
PRODUCT = ("src", "examples", "benchmarks")
DEFINITIONS = os.path.join("src", "repro")

IDENTIFIER = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*\Z")


def python_files(root, top):
    for folder, dirs, names in os.walk(os.path.join(root, top)):
        dirs[:] = sorted(name for name in dirs
                         if not name.startswith(".")
                         and name != "__pycache__")
        for name in sorted(names):
            if name.endswith(".py"):
                yield os.path.relpath(os.path.join(folder, name), root)


def reads(tree):
    """Every name ``tree`` reads, by the rule in the module docstring."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.update(node.name.split("."))
            if node.asname:
                out.add(node.asname)
        elif isinstance(node, ast.Constant) \
                and isinstance(node.value, str) \
                and IDENTIFIER.match(node.value):
            out.update(node.value.split("."))
    return out


def registered(node):
    """Whether a ``register_*(...)`` decorator records ``node``."""
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Call):
            func = decorator.func
            name = func.id if isinstance(func, ast.Name) else \
                getattr(func, "attr", "")
            if name.startswith("register_"):
                return True
    return False


def definitions(body, prefix=""):
    """``(qualified name, name, line)`` of every function, class and
    method in ``body``, nested classes included, exemptions left out."""
    for node in body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
            continue
        name = node.name
        dunder = name.startswith("__") and name.endswith("__")
        if not dunder and not registered(node):
            yield prefix + name, name, node.lineno
        if isinstance(node, ast.ClassDef):
            yield from definitions(node.body, prefix + name + ".")


def unread_definitions(root=ROOT):
    """``path:line qualified.name`` of each definition under
    ``src/repro`` that nothing in the product reads."""
    read = set()
    trees = {}
    for top in PRODUCT:
        for path in python_files(root, top):
            with open(os.path.join(root, path)) as handle:
                tree = ast.parse(handle.read(), path)
            read |= reads(tree)
            if path.startswith(DEFINITIONS + os.sep):
                trees[path] = tree
    unread = []
    for path, tree in sorted(trees.items()):
        for qualified, name, line in definitions(tree.body):
            if name not in read:
                unread.append("%s:%d %s" % (path, line, qualified))
    return unread


def test_every_src_definition_has_a_product_reader():
    """A function that only tests call belongs in ``tests/``; one that
    nothing calls should be deleted."""
    unread = unread_definitions()
    assert not unread, "%d definitions without a reader in %s:\n  %s" % (
        len(unread), ", ".join(PRODUCT), "\n  ".join(unread))


def test_guard_names_an_unread_definition(tmp_path):
    """The check has teeth: on a small tree it names exactly the
    definition nobody reads."""
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        "from .registry import register_pass\n\n\n"
        "def used():\n    return helper()\n\n\n"
        "def helper():\n    return 1\n\n\n"
        "def only_tests_call_me():\n    return 2\n\n\n"
        "@register_pass('name')\n"
        "def registered_pass():\n    return 3\n\n\n"
        "class Table:\n"
        "    def __len__(self):\n        return 0\n\n"
        "    def hooked(self):\n        return 4\n\n"
        "    def orphan(self):\n        return 5\n")
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "demo.py").write_text(
        "from repro.mod import Table, used\n\n"
        "used()\nhook(Table(), 'hooked')\n")
    assert unread_definitions(str(tmp_path)) == [
        os.path.join("src", "repro", "mod.py") + ":12 only_tests_call_me",
        os.path.join("src", "repro", "mod.py") + ":28 Table.orphan",
    ]
