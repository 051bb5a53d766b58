"""Every name a module imports is used in that module, only the layers
above the beam search import it, every function, class and method the
library defines is used somewhere, and by the library itself unless an
allow-list gives its reason, every parameter of a library function or
method is read in its body, every defaulted parameter is set by some call
in the library or the benchmark's harness unless an allow-list gives its
reason, and every class field the library declares is read somewhere.

Stdlib `ast` scans, and one run of a fresh interpreter that imports the
model and the training loop. The import scan covers the library, the
tests, the demos and the tools. The orphan scans look for each library
definition's name, and for each field's name read as an attribute, in the
library, the tests, the demos and the benchmark, and for each oracle's name
in the oracles, the tests and the demos.
"""

import ast
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    p
    for d in ("src/ctxseq", "tests", "demos", "tools")
    for p in (ROOT / d).glob("*.py")
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # Names inside quoted annotations such as "Hypothesis | None".
    for note in _annotations(tree):
        for node in ast.walk(note):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda x: x[1]) if name not in used]


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg | ast.AnnAssign) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef) and node.returns is not None:
            yield node.returns


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_finds_an_unused_import():
    source = "import os\nimport numpy as np\nfrom typing import Sequence\nx: 'Sequence[int]' = np.zeros(1)\n"
    assert unused_imports(source) == ["line 1: os"]


def imported_modules(source: str) -> set[str]:
    """The short names of the modules `source` imports: `decoding` for
    `from .decoding import x`, `from . import decoding` and
    `import ctxseq.decoding` alike."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("ctxseq").lstrip(".")
            names |= {module.split(".")[0]} if module else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            names |= {alias.name.removeprefix("ctxseq.").split(".")[0] for alias in node.names}
    return names


# The modules that may sit on the beam search: the run config (for
# `DecodeConfig`), the experiments and the CLI. The model and the training
# loop below it embed phrase lists without it.
DECODING_IMPORTERS = {"cli.py", "config.py", "experiments.py"}


def test_only_the_layers_above_import_decoding():
    library = (ROOT / "src" / "ctxseq").glob("*.py")
    importers = {p.name for p in library if "decoding" in imported_modules(p.read_text(encoding="utf-8"))}
    assert importers - DECODING_IMPORTERS == set()


def test_training_loads_no_decoding_layer():
    # Run time, not source text: importing a submodule runs the package's
    # `__init__` first, so what it imports loads into every training process.
    code = (
        "import sys, ctxseq.train, ctxseq.model\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('ctxseq.'))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT / "src", capture_output=True, text=True, check=True, timeout=60
    ).stdout
    above = {f"ctxseq.{m}" for m in ("decoding", "fst", "experiments", "config", "cli", "metrics")}
    assert set(out.split()) & above == set()


def test_import_scan_names_modules():
    source = "from .decoding import x\nfrom . import model as m\nimport ctxseq.train\nfrom ctxseq import vocab\n"
    assert imported_modules(source) == {"decoding", "model", "train", "vocab"}


def _references(node: ast.AST) -> Counter:
    """How often each name appears as a variable or an attribute under `node`."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Name | ast.Attribute)
    )


def orphans(library: dict[str, str], others: list[str]) -> list[str]:
    """Top-level functions and classes of the `library` modules (label ->
    source), and their non-dunder methods, whose name appears in no module
    of `library` or `others` outside the definition itself."""
    trees = {label: ast.parse(source) for label, source in library.items()}
    total = sum((_references(t) for t in [*trees.values(), *map(ast.parse, others)]), Counter())
    found = []
    for label, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef | ast.ClassDef):
                continue
            defs = [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                defs += [
                    (f"{node.name}.{m.name}", m)
                    for m in node.body
                    if isinstance(m, ast.FunctionDef) and not (m.name.startswith("__") and m.name.endswith("__"))
                ]
            for qualname, d in defs:
                if total[d.name] == _references(d)[d.name]:
                    found.append(f"{label}: {qualname}")
    return found


def orphan_fields(library: dict[str, str], others: list[str]) -> list[str]:
    """Annotated fields of the `library` modules' top-level classes whose
    name is read as an attribute (`x.name`) in no module of `library` or
    `others`."""
    trees = {label: ast.parse(source) for label, source in library.items()}
    read = {
        n.attr
        for t in [*trees.values(), *map(ast.parse, others)]
        for n in ast.walk(t)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }
    return [
        f"{label}: {node.name}.{item.target.id}"
        for label, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name) and item.target.id not in read
    ]


# Fields that stay although no code reads them.
UNREAD_FIELDS = [
    # Every checkpoint's config.ini names it, and RunConfig rejects unknown
    # keys, so removing it would make every existing checkpoint unloadable.
    "src/ctxseq/train.py: TrainConfig.log_every",
]


def _library_and_others() -> tuple[dict[str, str], list[str]]:
    library = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in (ROOT / "src").rglob("*.py")}
    others = [p.read_text(encoding="utf-8") for d in ("tests", "demos", "perfbench") for p in (ROOT / d).rglob("*.py")]
    return library, others


def test_no_orphan_definitions():
    assert orphans(*_library_and_others()) == []


# Library definitions that no library code calls, kept for a reader outside
# `src/`; a new one fails the test below until it is called or listed here.
UNCALLED_DEFINITIONS = [
    # The acceptance tests' and the model tests' bound on the model size.
    "src/ctxseq/model.py: Recognizer.param_count",
    # The benchmark's independent re-score of every decoded result.
    "src/ctxseq/fst.py: FusionScorer.score_string",
    # The distractor-trend criterion of the trained acceptance tier.
    "src/ctxseq/experiments.py: trend_spearman",
    # The greedy conditioning split that demo 04 shows beside the rule-based one.
    "src/ctxseq/conditioning.py: split_greedy",
]


def test_every_library_definition_is_called_by_the_library_or_listed():
    library, _ = _library_and_others()
    assert sorted(orphans(library, [])) == sorted(UNCALLED_DEFINITIONS)


def unread_parameters(library: dict[str, str]) -> list[str]:
    """Parameters of the `library` modules' top-level functions, and of
    their classes' non-dunder methods (a dunder's signature is Python's),
    that the function's body never reads. A nested function reading an
    outer parameter counts; the nested function's own parameters are not
    scanned."""
    found = []
    for label, source in library.items():
        for node in ast.parse(source).body:
            defs = [(node.name, node)] if isinstance(node, ast.FunctionDef) else []
            if isinstance(node, ast.ClassDef):
                defs = [
                    (f"{node.name}.{m.name}", m)
                    for m in node.body
                    if isinstance(m, ast.FunctionDef) and not (m.name.startswith("__") and m.name.endswith("__"))
                ]
            for qualname, d in defs:
                a = d.args
                params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, [a.vararg, a.kwarg])]
                names = (n for s in d.body for n in ast.walk(s) if isinstance(n, ast.Name))
                read = {n.id for n in names if isinstance(n.ctx, ast.Load)}
                found += [f"{label}: {qualname}({p.arg})" for p in params if p.arg not in read]
    return found


def test_every_library_parameter_is_read():
    library, _ = _library_and_others()
    assert unread_parameters(library) == []


def test_scan_finds_an_unread_parameter():
    library = (
        "def scale(x, k, unused=None):\n    return x * k\n"
        "def outer(g, kept):\n    def inner():\n        return g\n    kept = None\n    return inner\n"
        "class Box:\n"
        "    def __exit__(self, *exc):\n        pass\n"
        "    def open(self, *args, **kwargs):\n        return self, kwargs\n"
    )
    assert unread_parameters({"lib.py": library}) == [
        "lib.py: scale(unused)", "lib.py: outer(kept)", "lib.py: Box.open(args)"
    ]


def unset_defaults(library: dict[str, str], callers: list[str]) -> list[str]:
    """Defaulted parameters of the `library` modules' top-level functions,
    and of their classes' non-dunder methods, that no call in `library` or
    `callers` passes, by keyword or by position. Calls are matched by the
    called name alone, as the orphan scan matches references; a method's
    positions start after `self`, and a call with `*args` or `**kwargs`
    counts as passing every parameter it could reach."""
    trees = [ast.parse(source) for source in [*library.values(), *callers]]
    calls = [n for t in trees for n in ast.walk(t) if isinstance(n, ast.Call)]
    found = []
    for label, source in library.items():
        for node in ast.parse(source).body:
            defs = [(node.name, node, 0)] if isinstance(node, ast.FunctionDef) else []
            if isinstance(node, ast.ClassDef):
                defs = [
                    (f"{node.name}.{m.name}", m, 1)
                    for m in node.body
                    if isinstance(m, ast.FunctionDef) and not (m.name.startswith("__") and m.name.endswith("__"))
                ]
            for qualname, d, bound in defs:
                a = d.args
                positional = [*a.posonlyargs, *a.args]
                first = len(positional) - len(a.defaults)
                defaulted = [(p, i - bound) for i, p in enumerate(positional) if i >= first]
                defaulted += [(p, None) for p, v in zip(a.kwonlyargs, a.kw_defaults) if v is not None]
                named = [c for c in calls if getattr(c.func, "id", getattr(c.func, "attr", None)) == d.name]
                found += [
                    f"{label}: {qualname}({p.arg})" for p, at in defaulted if not any(_passes(c, p.arg, at) for c in named)
                ]
    return found


def _passes(call: ast.Call, name: str, at: int | None) -> bool:
    """Whether `call` passes the parameter `name`, which sits at position
    `at` of the call (None: keyword only)."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    return at is not None and (len(call.args) > at or any(isinstance(x, ast.Starred) for x in call.args))


# Defaulted parameters that no scanned call sets.
UNSET_DEFAULTS = [
    # The console script and `python -m ctxseq` call `main()` bare; the
    # tests pass their own argument lists.
    "src/ctxseq/cli.py: main(argv)",
]


def test_every_default_is_set_by_some_call_or_listed():
    # The callers are the library and the benchmark's harness, whose calls
    # cannot change with the library.
    library, _ = _library_and_others()
    harness = [(ROOT / "perfbench" / f"{n}.py").read_text(encoding="utf-8") for n in ("workloads", "run", "tracing")]
    assert unset_defaults(library, harness) == UNSET_DEFAULTS


def test_scan_finds_an_unset_default():
    library = (
        "def pick(x, k=1, *, flip=False, sign=1):\n    return x\n"
        "class Box:\n"
        "    def __init__(self, w=1):\n        self.w = w\n"
        "    def grow(self, by=1, times=1):\n        return by * times\n"
        "    def shrink(self, by=1):\n        return by\n"
        "pick(1, 2)\n"
        "Box().grow(2)\n"
    )
    callers = ["pick(0, sign=-1)\nopts = {}\nBox().shrink(**opts)\n"]
    assert unset_defaults({"lib.py": library}, callers) == [
        "lib.py: pick(flip)", "lib.py: Box.grow(times)"
    ]


def test_no_orphan_oracles():
    # Every oracle function is named by some test or demo.
    oracles = ROOT / "tests" / "oracles.py"
    others = [
        p.read_text(encoding="utf-8") for d in ("tests", "demos") for p in (ROOT / d).glob("*.py") if p != oracles
    ]
    assert orphans({"tests/oracles.py": oracles.read_text(encoding="utf-8")}, others) == []


def test_no_orphan_fields():
    assert orphan_fields(*_library_and_others()) == UNREAD_FIELDS


def test_scan_finds_an_orphan():
    library = (
        "def used():\n    pass\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "class Box:\n"
        "    def __init__(self):\n        self.open()\n"
        "    def open(self):\n        pass\n"
        "    def shut(self):\n        pass\n"
    )
    assert orphans({"lib.py": library}, ["used()\nBox()\n"]) == ["lib.py: recursive", "lib.py: Box.shut"]


def test_scan_finds_an_orphan_field():
    library = (
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Box:\n"
        "    width: int\n"
        "    depth: int\n"
        "    label: str = ''\n"
        "    def area(self):\n        return self.width * 2\n"
    )
    others = ["box = Box(1, 2)\nbox.depth = 3\nprint(box.label)\n"]
    assert orphan_fields({"lib.py": library}, others) == ["lib.py: Box.depth"]
