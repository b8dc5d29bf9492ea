"""Every import in src/ and tests/ is used, every private name and constant in src/, and
every config field.

An AST scan stands in for a linter: a name an import binds must be read
somewhere in its module, or be listed in the module's `__all__`. A
module-level `_`-prefixed function, class or constant in src/ must be read
somewhere in its own module, so deletions leave no private helper behind.
A module-level UPPER_CASE constant in src/ must be read by some module in
src/, as a name or as an attribute. A top-level function or class in src/
must be named somewhere in src/ outside its own definition, so code that
only the tests call does not live on in the package.
Every field of the run config's dataclasses must be read as an attribute
somewhere in src/ outside its class's own `__post_init__`, so a setting
whose last reader is deleted does not linger as a key that does nothing.
Likewise every option of every CLI subcommand must be read as `args.<dest>`
by the command's function or by a function it passes `args` to.
The program keeps one JSON reader and one CSV writer: `json.load` or
`json.loads` is called in one function of src/contention/ only, and
`csv.writer` and `csv.DictWriter` appear nowhere in it. It keeps one dataset
reader too: only `data.read_blocks` calls `_read_into` or
`np.lib.format.open_memmap`, the two ways to a dataset file's values. Only
`data.open_input` spells the "is not found" and "cannot be read" errors of an
input file, so every reader opens its file there. One function,
`data.read_json_object`, holds an `except` clause that names KeyError,
LookupError or TypeError: the net that turns a missing or malformed field of
any JSON file into one error naming the file. Only it and `cli.main` catch
an error of the package's own, so the first fault met ends a run: none is
held for later. Only `data.open_input` and `cli.main` catch an OSError: the
first turns every one raised while an input is open into the input's error,
and the second reports an output that cannot be written, so no reader grows
an OSError net of its own.
The program keeps one forward pass: `np.tanh` is named in one function of
src/contention/ only, `model.forward`, so no stage or kernel repeats its math.
The ablation arms are one table: no arm's name is a string literal in
`sweeps.py` outside the keys of `sweeps.ARMS`, so no `if` on an arm's name
picks a treatment there.
No module of src/contention/ imports another module's `_`-prefixed name or
reads a `_`-prefixed attribute of a class defined in another module: what
one module keeps private, no other depends on.
"""

import argparse
import ast
import builtins
from pathlib import Path

from contention import cli, sweeps
from contention import errors as errors_module

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


def _named(node: ast.AST) -> set[str]:
    """Every name `node` holds as a Name, an Attribute or an import alias."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.alias):
            names |= {n.name, n.asname} - {None}
    return names


def unnamed_definitions(paths: list[Path]) -> list[tuple[str, int, str]]:
    """(file name, line, name) of every top-level function or class that no module
    in `paths` names outside that definition itself."""
    defined, namers = [], {}  # namers: name -> the (file, definition) or (file, None) naming it
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = node.name
                defined.append((path.name, node.lineno, own))
            for name in _named(node):
                namers.setdefault(name, set()).add((path.name, own))
    return [(file, line, name) for file, line, name in defined
            if not namers.get(name, set()) - {(file, name)}]


def test_scan_finds_an_unnamed_definition(tmp_path):
    first, second = tmp_path / "a.py", tmp_path / "b.py"
    first.write_text("def used():\n    pass\n"
                     "def recursive(n):\n    return recursive(n - 1)\n"
                     "class Spare:\n    pass\n"
                     "def by_attribute():\n    pass\n"
                     "def imported():\n    pass\n")
    second.write_text("import a\nfrom a import imported as renamed\n"
                      "used()\na.by_attribute()\n")
    assert unnamed_definitions([first, second]) == [("a.py", 3, "recursive"), ("a.py", 5, "Spare")]


def test_every_top_level_definition_is_named_in_src():
    files = sorted((ROOT / "src").rglob("*.py"))
    assert files
    assert unnamed_definitions(files) == []


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


def json_and_csv_io(paths: list[Path]) -> tuple[list[str], list[str]]:
    """The functions (`file:name`) that call `json.load` or `json.loads`, and the
    places (`file:line`) that name `csv.writer` or `csv.DictWriter`."""
    readers, writers = set(), []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module)):
                owner = f"{path.name}:{getattr(node, 'name', '<module>')}"
                readers |= {owner for n in _own_nodes(node) if _is_attr(n, "json", "load", "loads")}
            if _is_attr(node, "csv", "writer", "DictWriter"):
                writers.append(f"{path.name}:{node.lineno}")
    return sorted(readers), writers


def _is_attr(node: ast.AST, module: str, *names: str) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr in names
            and isinstance(node.value, ast.Name) and node.value.id == module)


def _own_nodes(scope: ast.AST):
    """The nodes of scope's body, not descending into nested function definitions."""
    stack = list(scope.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


def test_scan_finds_json_readers_and_csv_writers(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import csv, json\n"
                      "def first(p):\n    return json.loads(p)\n"
                      "def second(fh):\n    def inner():\n        return json.load(fh)\n"
                      "    return inner\n"
                      "def writes(fh):\n    return csv.writer(fh), csv.DictWriter\n"
                      "def fine():\n    return json.dumps(1), csv.reader([])\n")
    assert json_and_csv_io([module]) == (["m.py:first", "m.py:inner"], ["m.py:9", "m.py:9"])


def test_one_json_reader_and_no_csv_writer():
    files = sorted((ROOT / "src" / "contention").glob("*.py"))
    readers, writers = json_and_csv_io(files)
    assert len(readers) == 1, readers
    assert writers == []


def dataset_readers(paths: list[Path]) -> list[str]:
    """The functions (`file:name`) that call `_read_into` or `np.lib.format.open_memmap`."""
    readers = set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module)):
                owner = f"{path.name}:{getattr(node, 'name', '<module>')}"
                readers |= {owner for n in _own_nodes(node) if isinstance(n, ast.Call) and (
                    isinstance(n.func, ast.Name) and n.func.id == "_read_into"
                    or isinstance(n.func, ast.Attribute) and n.func.attr == "open_memmap")}
    return sorted(readers)


def test_scan_finds_dataset_readers(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import numpy as np\n"
                      "def reader(p):\n    return np.lib.format.open_memmap(p)\n"
                      "def blocks(fh):\n    return (_read_into(fh, b) for b in range(2))\n"
                      "def outer(fh):\n    def inner():\n        return _read_into(fh, 1)\n"
                      "    return inner\n"
                      "def names_only():\n    return _read_into, np.lib.format.open_memmap\n")
    assert dataset_readers([module]) == ["m.py:blocks", "m.py:inner", "m.py:reader"]


def test_one_dataset_reader():
    files = sorted((ROOT / "src" / "contention").glob("*.py"))
    assert dataset_readers(files) == ["data.py:read_blocks"]


# the messages of an input file that is missing or cannot be opened
INPUT_ERRORS = ("is not found", "cannot be read")


def input_error_messages(paths: list[Path]) -> list[str]:
    """The functions (`file:name`) holding a string that contains one of INPUT_ERRORS."""
    found = set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module)):
                owner = f"{path.name}:{getattr(node, 'name', '<module>')}"
                found |= {owner for n in _own_nodes(node) if isinstance(n, ast.Constant)
                          and isinstance(n.value, str) and any(m in n.value for m in INPUT_ERRORS)}
    return sorted(found)


def test_scan_finds_input_error_messages(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("def opener(path, what):\n    raise OSError(f'{what} {path} is not found')\n"
                      "def reader(path):\n    def inner(exc):\n"
                      "        return f'trace {path} cannot be read: {exc}'\n    return inner\n"
                      "def fine(path):\n    return f'{path} is not valid', 'cannot be written'\n"
                      "NOTE = 'a file that cannot be read'\n")
    assert input_error_messages([module]) == ["m.py:<module>", "m.py:inner", "m.py:opener"]


def test_one_opener_of_input_files():
    """Every reader opens its file through data.open_input, so no reader grows its own
    checks and messages for a missing or unopenable file."""
    files = sorted((ROOT / "src" / "contention").glob("*.py"))
    assert input_error_messages(files) == ["data.py:open_input"]


def catchers(paths: list[Path], errors: set[str]) -> list[str]:
    """The functions (`file:name`) holding an `except` clause that names one of `errors`."""
    found = set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module)):
                owner = f"{path.name}:{getattr(node, 'name', '<module>')}"
                found |= {owner for n in _own_nodes(node) if isinstance(n, ast.ExceptHandler)
                          and n.type is not None and _named(n.type) & errors}
    return sorted(found)


# the errors whose net turns a missing or malformed field into one error
FIELD_ERRORS = {"KeyError", "LookupError", "TypeError"}
PACKAGE_ERRORS = {name for name, value in vars(errors_module).items()
                  if isinstance(value, type) and issubclass(value, errors_module.ContentionError)}


def test_scan_finds_error_nets(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import builtins\n"
                      "def rows(x):\n    try:\n        return int(x[0])\n"
                      "    except (IndexError, ValueError):\n        return 0\n"
                      "def net(x):\n    try:\n        return x['a']\n"
                      "    except (KeyError, OverflowError):\n        return 0\n"
                      "def outer(x):\n    def inner():\n        try:\n            return x()\n"
                      "        except LookupError as exc:\n            raise ValueError from exc\n"
                      "    return inner\n"
                      "try:\n    rows(1)\nexcept builtins.TypeError:\n    pass\n")
    assert catchers([module], FIELD_ERRORS) == ["m.py:<module>", "m.py:inner", "m.py:net"]


def test_scan_finds_package_error_catchers(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from contention import errors\n"
                      "from contention.errors import ContentionError\n"
                      "def held(x):\n    try:\n        return x()\n"
                      "    except errors.SchemaError as exc:\n        return exc\n"
                      "def mapped(x):\n    try:\n        return x()\n"
                      "    except (OSError, ContentionError):\n        return 3\n"
                      "def broad(x):\n    try:\n        return x()\n"
                      "    except ValueError:\n        return 0\n")
    assert catchers([module], PACKAGE_ERRORS) == ["m.py:held", "m.py:mapped"]


def test_one_error_net_for_malformed_fields():
    files = sorted((ROOT / "src" / "contention").glob("*.py"))
    assert catchers(files, FIELD_ERRORS) == ["data.py:read_json_object"]


def test_the_first_fault_ends_the_run():
    """No function holds a package error for later or turns it into another outcome:
    read_json_object re-labels one with its file, and main turns it into an exit code."""
    files = sorted((ROOT / "src" / "contention").glob("*.py"))
    assert PACKAGE_ERRORS >= {"ContentionError", "DataError", "SchemaError", "NumericError"}
    assert catchers(files, PACKAGE_ERRORS) == ["cli.py:main", "data.py:read_json_object"]


# OSError, its aliases and its subclasses
OS_ERRORS = {name for name, value in vars(builtins).items()
             if isinstance(value, type) and issubclass(value, OSError)}


def test_scan_finds_os_error_catchers(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("def reader(path):\n    try:\n        return open(path).read()\n"
                      "    except (ValueError, IOError):\n        return ''\n"
                      "def missing(path):\n    try:\n        return open(path)\n"
                      "    except FileNotFoundError:\n        return None\n"
                      "def broad(x):\n    try:\n        return x()\n"
                      "    except Exception:\n        return 0\n")
    assert OS_ERRORS >= {"OSError", "IOError", "EnvironmentError", "FileNotFoundError"}
    assert catchers([module], OS_ERRORS) == ["m.py:missing", "m.py:reader"]


def test_os_errors_are_caught_by_the_input_opener_and_main_only():
    """An OSError raised while an input is open is that input's error, by data.open_input;
    main reports every other one as an output that cannot be written."""
    files = sorted((ROOT / "src" / "contention").glob("*.py"))
    assert catchers(files, OS_ERRORS) == ["cli.py:main", "data.py:open_input"]


def tanh_users(paths: list[Path]) -> list[str]:
    """The functions (`file:name`) that name `np.tanh`."""
    users = set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module)):
                owner = f"{path.name}:{getattr(node, 'name', '<module>')}"
                users |= {owner for n in _own_nodes(node) if _is_attr(n, "np", "tanh")}
    return sorted(users)


def test_scan_finds_tanh_users(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import numpy as np\n"
                      "def forward(x):\n    return np.tanh(x, out=x)\n"
                      "def stage(x):\n    def inner():\n        return np.tanh(x)\n"
                      "    return inner\n"
                      "ACTIVATION = np.tanh\n"
                      "def other(x):\n    return np.arctanh(x), x.tanh\n")
    assert tanh_users([module]) == ["m.py:<module>", "m.py:forward", "m.py:inner"]


def test_one_forward_implementation():
    files = sorted((ROOT / "src" / "contention").glob("*.py"))
    assert tanh_users(files) == ["model.py:forward"]


def arm_literals(path: Path, arms: tuple[str, ...]) -> list[str]:
    """`file:line: 'name'` for every string literal equal to one of `arms` that is not
    a key of the module-level table `ARMS = {...}`."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    keys = {id(key) for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
            and isinstance(node.value, ast.Dict)
            and any(isinstance(t, ast.Name) and t.id == "ARMS"
                    for t in (node.targets if isinstance(node, ast.Assign) else [node.target]))
            for key in node.value.keys}
    found = sorted((n.lineno, n.col_offset, n.value) for n in ast.walk(tree)
                   if isinstance(n, ast.Constant) and isinstance(n.value, str)
                   and n.value in arms and id(n) not in keys)
    return [f"{path.name}:{line}: {value!r}" for line, _, value in found]


def test_scan_finds_arm_names_outside_the_table(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("ARMS: dict = {'full': len, 'no-propagation': abs}\n"
                      "ORDER = ('full',)\n"
                      "def cell(arm, data):\n"
                      "    if arm == \"no-propagation\":\n"
                      "        return data\n"
                      "    return 'no-propagation arm', {'full' + arm: 1}\n")
    assert arm_literals(module, ("full", "no-propagation")) == [
        "m.py:2: 'full'", "m.py:4: 'no-propagation'", "m.py:6: 'full'"]


def test_ablation_arms_are_named_in_their_table_only():
    """An arm's treatment is its row of sweeps.ARMS, so no test of an arm's name
    picks one anywhere else in sweeps.py."""
    assert arm_literals(ROOT / "src" / "contention" / "sweeps.py", sweeps.ABLATION_ARMS) == []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_names_used_across_modules(paths: list[Path]) -> list[str]:
    """`file:line: name` for every import of a `_`-prefixed name, and every read of
    `Class._attr` where Class is defined in another module of `paths`."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in paths}
    home = {node.name: file for file, tree in trees.items() for node in tree.body
            if isinstance(node, ast.ClassDef)}
    found = []
    for file, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                found += [f"{file}:{node.lineno}: {node.module}.{a.name}"
                          for a in node.names if _private(a.name)]
            elif (isinstance(node, ast.Attribute) and _private(node.attr)
                  and isinstance(node.value, ast.Name) and home.get(node.value.id, file) != file):
                found.append(f"{file}:{node.lineno}: {node.value.id}.{node.attr}")
    return found


def test_scan_finds_private_names_used_across_modules(tmp_path):
    first, second = tmp_path / "a.py", tmp_path / "b.py"
    first.write_text("class Params:\n    _ORDER = ()\n    def size(self):\n"
                     "        return len(Params._ORDER) + len(self._ORDER)\n"
                     "def _helper():\n    pass\n__all__ = ['Params']\n")
    second.write_text("from a import Params, _helper, __all__\n"
                      "class Local:\n    _KEY = 1\n"
                      "def f(other):\n"
                      "    return Params._ORDER, Local._KEY, other._cache, _helper\n")
    assert private_names_used_across_modules([first, second]) == [
        "b.py:1: a._helper", "b.py:5: Params._ORDER"]


def test_no_private_name_is_used_across_modules():
    files = sorted((ROOT / "src" / "contention").glob("*.py"))
    assert private_names_used_across_modules(files) == []
