"""Run configuration: one sectioned key=value file plus flag overrides.

Sections map onto the library dataclasses ([task], [model], [sampler],
[train], [decode]); a [run] section holds the global seed. A section or key
outside these is an error. The commands that build a model or a corpus
(generate, train, decode, dump-attention) write the fully resolved
configuration into their output directory.
"""

from __future__ import annotations

import configparser
import typing
from dataclasses import fields

from .corpus import SyntheticTaskConfig
from .decoding import DecodeConfig
from .model import ModelConfig
from .sampler import SamplerConfig
from .train import TrainConfig


def _coerce(raw: str, typ, section: str, key: str):
    """Parse one value of `[section] key`: an int, a float, a str, a
    fixed-length tuple such as tuple[int, int], or a tuple[str, ...]."""
    if typing.get_origin(typ) is tuple:
        args = typing.get_args(typ)
        parts = [p.strip() for p in raw.split(",") if p.strip()]
        if args[-1] is Ellipsis:
            return tuple(_coerce(p, args[0], section, key) for p in parts)
        if len(parts) != len(args):
            raise ValueError(f"[{section}] {key} needs {len(args)} comma-separated values, got {len(parts)}")
        return tuple(_coerce(p, t, section, key) for p, t in zip(parts, args))
    if typ is int or typ is float:
        try:
            return typ(raw)
        except ValueError:
            raise ValueError(f"[{section}] {key} = {raw!r} is not {'an int' if typ is int else 'a number'}") from None
    return raw


class RunConfig:
    _SECTIONS = {
        "task": SyntheticTaskConfig,
        "model": ModelConfig,
        "sampler": SamplerConfig,
        "train": TrainConfig,
        "decode": DecodeConfig,
    }

    # Every section and key a run config may set.
    _KNOWN = {"run": ("seed",), **{name: tuple(f.name for f in fields(cls)) for name, cls in _SECTIONS.items()}}

    def __init__(self, sections: dict[str, dict[str, str]] | None = None):
        self.sections = sections or {}

    @classmethod
    def load(cls, path=None) -> "RunConfig":
        """Read a config file; raises ValueError when it does not parse."""
        cfg = cls()
        if path is not None:
            parser = configparser.ConfigParser()
            with open(path, "r", encoding="utf-8") as f:
                try:
                    parser.read_file(f)
                    cfg.sections = {s: dict(parser[s]) for s in parser.sections()}
                except configparser.Error as exc:
                    raise ValueError(f"config file {path}: {' '.join(str(exc).split())}") from None
        return cfg

    def override(self, assignment: str) -> None:
        """Apply one 'section.key=value' command-line override."""
        target, _, value = assignment.partition("=")
        section, _, key = target.partition(".")
        if not section or not key or not _:
            raise ValueError(f"override must look like section.key=value, got {assignment!r}")
        self.sections.setdefault(section, {})[key] = value

    def check_known(self, known: dict[str, typing.Collection[str]]) -> None:
        """Raise ValueError naming the first section or key outside `known`
        (section -> its keys) and listing the known ones."""
        for name, keys in self.sections.items():
            if name not in known:
                listed = ", ".join(f"[{s}]" for s in known)
                raise ValueError(f"unknown section [{name}]; the known sections are {listed}")
            for key in keys:
                if key not in known[name]:
                    raise ValueError(f"unknown key {key!r} in [{name}]; the known keys are {', '.join(known[name])}")

    @property
    def seed(self) -> int:
        return _coerce(self.sections.get("run", {}).get("seed", "0"), int, "run", "seed")

    def _build(self, section: str, **from_task):
        self.check_known(self._KNOWN)
        cls = self._SECTIONS[section]
        hints = typing.get_type_hints(cls)
        kwargs = dict(from_task)
        for key, raw in self.sections.get(section, {}).items():
            value = _coerce(raw, hints[key], section, key)
            if key in kwargs and kwargs[key] != value:
                raise ValueError(f"[{section}] {key} = {value} differs from the task's {kwargs[key]}")
            kwargs[key] = value
        if "seed" in self._KNOWN[section] and "seed" not in kwargs:
            kwargs["seed"] = self.seed
        return cls(**kwargs)

    def task(self) -> SyntheticTaskConfig:
        return self._build("task")

    def model(self) -> ModelConfig:
        return self._build("model", feature_dim=self.task().feature_dim)

    def sampler(self) -> SamplerConfig:
        return self._build("sampler")

    def train(self) -> TrainConfig:
        return self._build("train")

    def decode(self) -> DecodeConfig:
        return self._build("decode")

    def resolved_text(self) -> str:
        """Every section fully expanded, suitable for reproduction."""
        lines = ["[run]", f"seed = {self.seed}", ""]
        for name in self._SECTIONS:
            obj = getattr(self, name)()
            lines.append(f"[{name}]")
            for f in fields(obj):
                value = getattr(obj, f.name)
                if isinstance(value, tuple):
                    value = ",".join(str(v) for v in value)
                lines.append(f"{f.name} = {value}")
            lines.append("")
        return "\n".join(lines)
