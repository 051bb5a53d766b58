"""The README's module table stays in step with the package, and its CLI
walkthrough and sweep spec example with the CLI."""

import ast
import builtins
import importlib
import re
import shlex
from pathlib import Path

from ctxseq.cli import SWEEP_SECTIONS, _sweep_values, build_parser
from ctxseq.config import RunConfig

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def fenced_block(after: str, language: str) -> str:
    """The first ```language block after the text `after`."""
    match = re.search(re.escape(after) + rf".*?```{language}\n(.*?)```", README, re.DOTALL)
    assert match, f"no ```{language} block after {after!r}"
    return match.group(1)


def walkthrough_commands() -> list[list[str]]:
    text = fenced_block("## CLI walkthrough", "sh").replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in text.splitlines() if line.startswith("ctxseq ")]


def test_walkthrough_commands_parse():
    commands = walkthrough_commands()
    parser = build_parser()
    assert {argv[0] for argv in commands} == {
        "generate", "train", "decode", "eval", "compile-context", "sweep", "dump-attention"
    }
    for argv in commands:
        parser.parse_args(argv)  # exits with status 2 on a flag the CLI does not take


def test_sweep_spec_example_is_valid(tmp_path):
    spec = tmp_path / "sweep.ini"
    spec.write_text(fenced_block("A sweep spec file", "ini"), encoding="utf-8")
    assert list(_sweep_values(RunConfig.load(spec))) == list(SWEEP_SECTIONS)


def test_module_table_names_every_module():
    table = re.search(r"## What is inside\n\n(.*?)\n\n", README, re.DOTALL).group(1)
    named = set(re.findall(r"^\| `ctxseq\.(\w+)` \|", table, re.MULTILINE))
    modules = {p.stem for p in (ROOT / "src" / "ctxseq").glob("*.py")} - {"__init__", "__main__"}
    assert named == modules


def package_names() -> tuple[set[str], set[str]]:
    """The names the package defines, and the string constants in its
    source. The names are its modules; each module's functions, classes,
    imports and assigned names; each class's methods, attributes and
    fields; and every attribute a method sets on `self`."""
    names, strings = {"ctxseq"}, set()
    for path in (ROOT / "src" / "ctxseq").glob("*.py"):
        names.add(path.stem)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for body in [tree.body] + [n.body for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]:
            for stmt in body:
                if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                    names.add(stmt.name)
                elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
                    names.update((a.asname or a.name).split(".")[0] for a in stmt.names)
                elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                    names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        for n in ast.walk(tree):
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store) and getattr(n.value, "id", None) == "self":
                names.add(n.attr)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                strings.add(n.value)
    return names, strings


def importable(dotted: str) -> bool:
    """Whether a dotted name such as `functools.cache` or `np.lexsort`
    (numpy by its usual alias) resolves by import and attribute lookup."""
    head, *rest = dotted.split(".")
    try:
        obj = importlib.import_module({"np": "numpy"}.get(head, head))
    except ImportError:
        return False
    for part in rest:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return bool(rest)


def test_module_table_names_only_what_exists():
    # Every backticked identifier in the table is a name the package
    # defines (each part of a dotted one), a builtin, an importable dotted
    # name or a file name the package reads or writes; so a row that still
    # names a removed function fails here.
    table = re.search(r"## What is inside\n\n(.*?)\n\n", README, re.DOTALL).group(1)
    names, strings = package_names()
    idents = {t for t in re.findall(r"`([^`]+)`", table) if re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*", t)}
    unknown = [
        t for t in sorted(idents)
        if not (set(t.split(".")) <= names or hasattr(builtins, t) or importable(t) or t in strings)
    ]
    assert unknown == []
