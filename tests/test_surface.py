"""The package's surface is no larger than its users: every module-level
function, class and assigned name (a constant) of src/fsnet is loaded or
imported by some code in src/ or benchmarks/ outside its own definition. A
name only tests use belongs in tests/helpers.py.

Uses are resolved to the fsnet module they name: `from .numerics import
softmax` uses numerics.softmax, `ad.log` uses autodiff.log when ad is bound by
`from . import autodiff as ad` (or `from fsnet import ...`, `import
fsnet.autodiff as ad`, `import fsnet`), and a bare name uses the definition of
its own module. So np.log or autodiff.log is no use of a numerics.log. Names
reached another way (getattr with a string, a method of an instance) are not
seen; no module-level definition of src/fsnet is reached only so."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fsnet"
PACKAGE = ""  # what `import fsnet` binds: the package, whose attributes are modules


def _module_of(node: ast.ImportFrom) -> str | None:
    """The fsnet module node imports from, "" for the package, None if not fsnet."""
    if node.level > 0:
        return node.module or PACKAGE
    if node.module == "fsnet" or (node.module or "").startswith("fsnet."):
        return node.module.removeprefix("fsnet").removeprefix(".")
    return None


def _used_names(tree: ast.AST, skip: ast.AST | None, own: str) -> set[str]:
    """The "module.name"s of fsnet that tree, the source of module own,
    loads or imports outside skip."""
    modules = {}  # local name -> the fsnet module (or PACKAGE) it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _module_of(node) == PACKAGE:
            modules.update((alias.asname or alias.name, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                head, _, rest = alias.name.partition(".")
                if head == "fsnet":
                    modules[alias.asname or head] = rest if alias.asname else PACKAGE

    def resolve(expr: ast.expr) -> str | None:
        if isinstance(expr, ast.Name):
            return modules.get(expr.id)
        if isinstance(expr, ast.Attribute) and resolve(expr.value) == PACKAGE:
            return expr.attr  # fsnet.autodiff
        return None

    used, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(f"{own}.{node.id}")
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            module = resolve(node.value)
            if module:
                used.add(f"{module}.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and _module_of(node):
            used.update(f"{_module_of(node)}.{alias.name}" for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return used


def _definitions(tree: ast.Module) -> list[tuple[str, ast.stmt]]:
    """Each name a module-level statement of tree defines (a function, a
    class, or an assigned name such as a constant), with that statement."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            out += [(n.id, node) for n in names]
    return out


def _unused(trees: dict[Path, ast.Module], package: list[Path]) -> list[str]:
    """The "module.name"s defined at module level in the package's files
    that no file of trees uses outside the statement defining them."""
    used_by = {path: _used_names(tree, None, path.stem) for path, tree in trees.items()}
    return [
        f"{path.stem}.{name}"
        for path in package
        for name, node in _definitions(trees[path])
        if f"{path.stem}.{name}" not in _used_names(trees[path], node, path.stem)
        and not any(f"{path.stem}.{name}" in used_by[other] for other in trees if other != path)
    ]


def test_every_module_level_definition_has_a_user():
    package = sorted(SRC.glob("*.py"))
    paths = package + sorted((ROOT / "benchmarks").glob("*.py"))
    assert _unused({path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}, package) == []


def test_the_check_flags_an_unused_constant():
    sources = {
        "m": "USED, SPARE = 1, 2\nUNUSED = 3\nTYPED: int = 4\n\ndef f():\n    return USED\n",
        "other": "from .m import TYPED, f\n",
    }
    trees = {Path(f"{m}.py"): ast.parse(source) for m, source in sources.items()}
    assert _unused(trees, [Path("m.py")]) == ["m.SPARE", "m.UNUSED"]


def test_the_check_finds_a_definition_no_one_uses():
    tree = ast.parse("def used():\n    return used()\n\nx = 1\n")
    assert "m.used" not in _used_names(tree, tree.body[0], "m")
    assert "m.used" in _used_names(tree, None, "m")
    for source in (
        "from .m import used\n", "from fsnet.m import used as u\n", "from . import m\nm.used(1)\n",
        "from fsnet import m as a\na.used(1)\n", "import fsnet.m as a\na.used(1)\n",
        "import fsnet\nfsnet.m.used(1)\n",
    ):
        assert "m.used" in _used_names(ast.parse(source), None, "other"), source
    for source in (
        "import numpy as np\nnp.used(1)\n", "m.used(1)\n", "from . import n\nn.used(1)\n",
        "from numpy import used\n", "x = f()\nx.used\n", "import fsnet.n as m\nm.used(1)\n",
    ):
        assert "m.used" not in _used_names(ast.parse(source), None, "other"), source
