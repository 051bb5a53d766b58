"""Fuzz tests of the file loaders: any bytes give a loaded object or a
ValueError, never another exception. Each test is seeded with the malformed
inputs that once escaped as other exceptions or loaded silently."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctxseq.config import RunConfig
from ctxseq.corpus import read_manifest
from ctxseq.fst import load_context
from ctxseq.tensor import load_tensors

CKPT_MAGIC = b"CTXSEQ-TENSORS-1\n"
CONTEXT = (
    b"CTXSEQ-CONTEXT-1\nalphabet <space> a b\nstrategy end-of-word\nbonus 1.0\n"
    b"states 2\nstart 0\nfinals 0:0.0\n0 a <eps> 0.5 1\n1 <space> <eps> 0.5 0\n"
)
CONFIG = b"[run]\nseed = 3\n\n[model]\nencoder_units = 6\n"
RECORD = b'{"id": "u1", "features_path": "f.bin", "transcript": "a b", "bias_phrases": ["a"]}\n'


def loads_or_value_error(loader, data: bytes):
    """Write `data` to a file and load it; returns the object, or None when
    the loader raised ValueError. Any other exception fails the test."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "input"
        path.write_bytes(data)
        try:
            return loader(path)
        except ValueError:
            return None


def spliced(base: bytes):
    """`base` with one stretch replaced by arbitrary bytes."""
    return st.tuples(
        st.integers(0, len(base)), st.integers(0, 16), st.binary(max_size=24)
    ).map(lambda t: base[: t[0]] + t[2] + base[t[0] + t[1] :])


SETTINGS = settings(max_examples=150, deadline=None)


@given(st.one_of(st.binary(max_size=64), spliced(CKPT_MAGIC + b'[["a", [2]], ["b", []]]\n' + b"\0" * 24)))
@example(CKPT_MAGIC + b"5\n")
@example(CKPT_MAGIC + b'[["a", "x"]]\n')
@example(CKPT_MAGIC + b'[["a", [1]], ["a", [1]]]\n' + b"\0" * 16)
@example(CKPT_MAGIC + b'[["a", [1]]]\n' + b"\0" * 9)
@example(CKPT_MAGIC + b'[["a", [99999999999, 99999999999]]]\n')
@SETTINGS
def test_load_tensors(data):
    arrays = loads_or_value_error(load_tensors, data)
    if arrays is not None:
        assert all(isinstance(a, np.ndarray) and a.dtype == np.float64 for a in arrays.values())


@given(st.one_of(st.binary(max_size=64), spliced(CONTEXT)))
@example(CONTEXT.replace(b"0.5 1\n", b"0.5 5\n"))
@example(CONTEXT.replace(b"states 2", b"states 99999999999"))
@example(CONTEXT.replace(b"end-of-word", b"bogus"))
@example(CONTEXT + b"0 a <eps> 9.0 1\n")
@SETTINGS
def test_load_context(data):
    machine = loads_or_value_error(load_context, data)
    if machine is not None:
        assert 0 <= machine.start < machine.n_states
        assert all(0 <= a.src < machine.n_states and 0 <= a.dst < machine.n_states for a in machine.arcs)


@given(st.one_of(st.binary(max_size=64), spliced(RECORD * 2)))
@example(b"5\n")
@example(RECORD.replace(b'["a"]', b"5"))
@example(RECORD.replace(b'"a b"', b"5"))
@example(RECORD.replace(b'"u1"', b"null"))
@example(RECORD.replace(b'"bias_phrases"', b'"bias_prefixes"'))
@example(RECORD.replace(b"}", b', "bias_prefixes": ["", "x"]}'))
@example(b"[" * 100000 + b"\n")
@SETTINGS
def test_read_manifest(data):
    utts = loads_or_value_error(read_manifest, data)
    if utts is not None:
        for u in utts:
            assert all(isinstance(v, str) for v in (u.id, u.features_path, u.transcript))
            assert all(isinstance(p, str) for p in u.bias_phrases)
            assert u.bias_prefixes is None or all(isinstance(p, str) for p in u.bias_prefixes)
            assert u.bias_prefixes is None or len(u.bias_prefixes) == len(u.bias_phrases)


@given(st.one_of(st.binary(max_size=64), spliced(CONFIG)))
@example(b"seed = 3\n[model\n")
@example(CONFIG + b"[model]\n")
@example(CONFIG + b"x = %(y\n")
@example(CONFIG + b"encoder_units = 7\n")
@SETTINGS
def test_run_config_load(data):
    cfg = loads_or_value_error(RunConfig.load, data)
    if cfg is not None:
        assert all(isinstance(v, str) for sec in cfg.sections.values() for v in sec.values())
