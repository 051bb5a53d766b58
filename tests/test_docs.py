"""The README's module table stays in step with the package, and its CLI
walkthrough and sweep spec example with the CLI."""

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
