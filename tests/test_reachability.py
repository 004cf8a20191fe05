"""Every definition under src/splinemart is reached from a program path.

A non-dunder function, method or class counts as reached when its name
appears as a Name, an Attribute or a string constant in reached code
outside its own body. Names are matched by spelling alone, so two
definitions that share a name are reached together; a Name that reads a
function's own local or argument is not a reference. Reached code is
module-level code (it runs at import), the class body and the dunder
methods of a reached class, and the body of a reached definition. Import
lines, ``__all__`` and docstrings reach nothing. The roots are read from
files: every ``bench/layers.json`` target, the names that
``tests/test_acceptance.py`` imports from splinemart or calls, ``cli.main``
and ``_Parser.error`` (argparse calls it). The scan iterates to a
fixpoint; a definition left over is code that only tests reach, which
belongs under tests/.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


@dataclass(eq=False)
class Definition:
    module: str
    qualname: str
    line: int
    parent: "Definition | None"
    is_class: bool

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]

    def encloses(self, other: "Definition | None") -> bool:
        while other is not None:
            if other is self:
                return True
            other = other.parent
        return False

    def __repr__(self):
        return f"{self.module}:{self.line} ({self.qualname})"


class _Scanner(ast.NodeVisitor):
    """Collects the definitions of one module and every name reference,
    each with the definition whose body holds it."""

    def __init__(self, module: str):
        self.module = module
        self.defs: list[Definition] = []
        self.refs: list[tuple[str, Definition | None]] = []
        self._owner: Definition | None = None
        #: names bound in the innermost function: a Name that loads one of
        #: them reads the local, not a definition
        self._locals: set[str] = set()

    def _visit_def(self, node):
        parent = self._owner
        qual = node.name if parent is None else f"{parent.qualname}.{node.name}"
        d = Definition(self.module, qual, node.lineno, parent, isinstance(node, ast.ClassDef))
        self.defs.append(d)
        self._owner, outer = d, self._locals
        if not d.is_class:
            bound = ast.walk(node)
            self._locals = {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)} | {
                n.id for n in bound if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Load)
            }
        body = node.body
        if ast.get_docstring(node) is not None:
            body = body[1:]
        for child in [*node.decorator_list, *getattr(node, "bases", []), *body]:
            self.visit(child)
        if not d.is_class:
            self.visit(node.args)
            if node.returns is not None:
                self.visit(node.returns)
        self._owner, self._locals = parent, outer

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _visit_def

    def visit_Import(self, node):
        pass

    visit_ImportFrom = visit_Import

    def visit_Assign(self, node):
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return
        self.generic_visit(node)

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load) and node.id not in self._locals:
            self.refs.append((node.id, self._owner))

    def visit_Attribute(self, node):
        self.refs.append((node.attr, self._owner))
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str) and node.value.isidentifier():
            self.refs.append((node.value, self._owner))


def scan_package(package: Path):
    """All definitions and references under a package directory."""
    defs: list[Definition] = []
    refs: list[tuple[str, Definition | None]] = []
    for path in sorted(package.rglob("*.py")):
        rel = path.relative_to(package.parent).with_suffix("")
        module = ".".join(p for p in rel.parts if p != "__init__")
        tree = ast.parse(path.read_text(), filename=str(path))
        body = tree.body[1:] if ast.get_docstring(tree) is not None else tree.body
        scanner = _Scanner(module)
        for node in body:
            scanner.visit(node)
        defs += scanner.defs
        refs += scanner.refs
    return defs, refs


def roots(root: Path, defs: list[Definition]) -> tuple[set[str], list[Definition]]:
    """Root names (matched like references) and root definitions."""
    by_target = {(d.module, d.qualname): d for d in defs}
    targets = ["splinemart.cli:main", "splinemart.cli:_Parser.error"]
    layers = json.loads((root / "bench" / "layers.json").read_text())
    for layer in layers["targets"]:
        targets += layer["targets"]
    root_defs = []
    for target in targets:
        module, qualname = target.split(":")
        assert (module, qualname) in by_target, f"root {target} is not defined"
        root_defs.append(by_target[module, qualname])

    names: set[str] = set()
    tree = ast.parse((root / "tests" / "test_acceptance.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("splinemart"):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                names.add(func.id)
            elif isinstance(func, ast.Attribute):
                names.add(func.attr)
    return names, root_defs


def unreached(root: Path = ROOT) -> list[Definition]:
    """The non-dunder definitions under root/src/splinemart that no root
    reaches, in source order."""
    defs, refs = scan_package(root / "src" / "splinemart")
    root_names, root_defs = roots(root, defs)
    reached: set[Definition] = set()

    def mark(d: Definition):
        reached.add(d)
        if d.parent is not None and d.parent.is_class:  # a method implies its class
            mark(d.parent)

    def live(ctx: Definition | None) -> bool:
        # module-level code runs at import; a dunder runs with its class
        while ctx is not None and _dunder(ctx.name):
            ctx = ctx.parent
        return ctx is None or ctx in reached

    for d in root_defs + [d for d in defs if d.name in root_names]:
        mark(d)
    changed = True
    while changed:
        changed = False
        names: dict[str, list[Definition | None]] = {}
        for name, ctx in refs:
            if live(ctx):
                names.setdefault(name, []).append(ctx)
        for d in defs:
            if d not in reached and any(not d.encloses(ctx) for ctx in names.get(d.name, ())):
                mark(d)
                changed = True
    return [d for d in defs if d not in reached and not _dunder(d.name)]


def test_every_src_definition_is_reached_from_a_program_path():
    left = unreached()
    assert not left, "reached only by tests, or by nothing:\n" + "\n".join(map(repr, left))


def test_scan_catches_an_unreached_definition(tmp_path):
    """A helper that only a dead method calls is named, and so are the dead
    method and a function whose name only a local variable spells; a
    method reached by attribute and a module-level call are not."""
    pkg = tmp_path / "src" / "splinemart"
    pkg.mkdir(parents=True)
    (pkg / "cli.py").write_text(
        "class _Parser:\n"
        "    def error(self, message):\n"
        "        pass\n"
        "def main():\n"
        "    unit = 3\n"
        "    return Box().used() + unit\n"
        "class Box:\n"
        "    def used(self):\n"
        "        return 1\n"
        "    def dead(self):\n"
        "        return helper()\n"
        "def helper():\n"
        "    return helper()\n"
        "def at_import():\n"
        "    return 2\n"
        "CONST = at_import()\n"
        "def unit():\n"
        "    return 0\n"
        "__all__ = ['dead']\n"
    )
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "layers.json").write_text(json.dumps({"targets": []}))
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_acceptance.py").write_text("")
    left = unreached(tmp_path)
    assert [d.qualname for d in left] == ["Box.dead", "helper", "unit"]
    assert repr(left[0]) == "splinemart.cli:10 (Box.dead)"

