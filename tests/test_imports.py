"""Every import in src/ and tests/ is used, every private name and constant in src/, and
every config field.

An AST scan stands in for a linter: a name an import binds must be read
somewhere in its module, or be listed in the module's `__all__`. A
module-level `_`-prefixed function, class or constant in src/ must be read
somewhere in its own module, so deletions leave no private helper behind.
A module-level UPPER_CASE constant in src/ must be read by some module in
src/, as a name or as an attribute.
Every field of the run config's dataclasses must be read as an attribute
somewhere in src/ outside its class's own `__post_init__`, so a setting
whose last reader is deleted does not linger as a key that does nothing.
Likewise every option of every CLI subcommand must be read as `args.<dest>`
by the command's function or by a function it passes `args` to.
"""

import argparse
import ast
from pathlib import Path

from contention import cli

ROOT = Path(__file__).resolve().parent.parent
CONFIG_CLASSES = ("ScenarioConfig", "ModelConfig", "TrainConfig", "IngestConfig", "RunConfig")


def _imported(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, bound name) of every import, `from __future__` aside."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds `a`
            bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    return bound


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(path: Path) -> list[tuple[int, str]]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)
    return [(line, name) for line, name in _imported(tree) if name not in read]


def _assigned(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of every name a module-level assignment binds, tuple targets unpacked."""
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                names = t.elts if isinstance(t, ast.Tuple) else [t]
                bound += [(node.lineno, n.id) for n in names if isinstance(n, ast.Name)]
    return bound


def _read_names(tree: ast.Module) -> set[str]:
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def unused_privates(path: Path) -> list[tuple[int, str]]:
    """(line, name) of every module-level private definition its module never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    defined = [(node.lineno, node.name) for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    defined = sorted(defined + _assigned(tree))
    read = _read_names(tree)
    private = [(line, name) for line, name in defined
               if name.startswith("_") and not name.startswith("__")]
    return [(line, name) for line, name in private if name not in read]


def test_scan_finds_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from __future__ import annotations\nimport os\nimport numpy as np\n"
                      "from a.b import c, d\n__all__ = ['d']\nnp.zeros(1)\n")
    assert unused_imports(module) == [(2, "os"), (4, "c")]


def test_no_unused_imports():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert files
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in files for line, name in unused_imports(path)]
    assert found == []


def test_scan_finds_an_unused_private_name(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("_LIMIT = 3\n_SPARE: int = 4\n__version__ = '1'\n"
                      "def _used(x):\n    return x + _LIMIT\n"
                      "def _unused():\n    pass\n"
                      "class _Spare:\n    pass\n"
                      "def public():\n    return _used(1)\n")
    assert unused_privates(module) == [(2, "_SPARE"), (6, "_unused"), (8, "_Spare")]


def test_no_unused_private_names():
    files = sorted((ROOT / "src").rglob("*.py"))
    assert files
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in files for line, name in unused_privates(path)]
    assert found == []


def unread_constants(paths: list[Path]) -> list[tuple[str, int, str]]:
    """(file name, line, name) of every module-level UPPER_CASE constant that no
    module in `paths` reads, by name or as an attribute."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in paths}
    read = set()
    for tree in trees.values():
        read |= _read_names(tree)
        read |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    return [(name, line, const) for name, tree in trees.items()
            for line, const in _assigned(tree) if const.isupper() and const not in read]


def test_scan_finds_an_unread_constant(tmp_path):
    first, second = tmp_path / "a.py", tmp_path / "b.py"
    first.write_text("LIMIT = 3\nSPARE: int = 4\nLOW, HIGH = 1, 2\n__all__ = ['SPARE']\n")
    second.write_text("import a\nSTEP = a.LIMIT + LOW\nprint(STEP)\n")
    assert unread_constants([first, second]) == [("a.py", 2, "SPARE"), ("a.py", 3, "HIGH")]


def test_no_unread_constants():
    files = sorted((ROOT / "src").rglob("*.py"))
    assert files
    assert unread_constants(files) == []


def unread_config_fields(paths: list[Path], classes: tuple[str, ...]) -> list[str]:
    """`Class.field` for every annotated field of the named classes that no
    attribute read in `paths` takes, reads inside the class's own
    `__post_init__` (its validation) aside; a class not found is listed too."""
    fields, reads = {}, []  # reads: (attribute, class whose __post_init__ holds it, or None)
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        owner = {}
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and node.name in classes:
                fields[node.name] = [n.target.id for n in node.body if isinstance(n, ast.AnnAssign)]
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__":
                        owner.update({id(n): node.name for n in ast.walk(fn)})
        reads += [(n.attr, owner.get(id(n))) for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)]
    return [f"{cls} not found" for cls in classes if cls not in fields] + [
        f"{cls}.{name}" for cls in classes for name in fields.get(cls, [])
        if not any(attr == name and where != cls for attr, where in reads)]


def test_scan_finds_an_unread_config_field(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("class Cfg:\n    used: int = 1\n    checked: int = 2\n    dead: int = 3\n"
                      "    def __post_init__(self):\n        assert self.checked and self.used\n"
                      "class Other:\n    def __post_init__(self, cfg):\n        cfg.checked\n"
                      "def run(cfg):\n    return cfg.used\n")
    assert unread_config_fields([module], ("Cfg", "Gone")) == ["Gone not found", "Cfg.dead"]


def test_every_config_field_is_read():
    files = sorted((ROOT / "src").rglob("*.py"))
    assert unread_config_fields(files, CONFIG_CLASSES) == []


def unread_options(parser: argparse.ArgumentParser, tree: ast.Module) -> list[str]:
    """`command --option` for every option of every subcommand that the function
    in its `func` default never reads as `args.<dest>`, itself or through a
    function defined in `tree` that it passes `args` to."""
    reads, passes = {}, {}
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            nodes = list(ast.walk(fn))
            reads[fn.name] = {n.attr for n in nodes if isinstance(n, ast.Attribute)
                              and isinstance(n.value, ast.Name) and n.value.id == "args"}
            passes[fn.name] = {n.func.id for n in nodes if isinstance(n, ast.Call)
                               and isinstance(n.func, ast.Name)
                               and any(isinstance(a, ast.Name) and a.id == "args" for a in n.args)}

    def read_by(name, seen):
        seen.add(name)
        got = set(reads.get(name, ()))
        for callee in passes.get(name, set()) - seen:
            got |= read_by(callee, seen)
        return got

    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    found = []
    for command, sub in commands.choices.items():
        got = read_by(sub.get_default("func").__name__, set())
        found += [f"{command} {a.option_strings[0]}" for a in sub._actions
                  if a.option_strings and not isinstance(a, argparse._HelpAction)
                  and a.dest not in got]
    return found


def test_scan_finds_an_unread_option():
    def cmd(args):
        pass

    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers().add_parser("run")
    for option in ("--direct", "--helped", "--unread"):
        sub.add_argument(option)
    sub.set_defaults(func=cmd)
    tree = ast.parse("def helper(args):\n    return args.helped\n"
                     "def cmd(args):\n    return helper(args), args.direct\n")
    assert unread_options(parser, tree) == ["run --unread"]


def test_every_cli_option_is_read():
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    assert unread_options(cli.build_parser(), tree) == []
