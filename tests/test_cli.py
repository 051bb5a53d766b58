import json
from pathlib import Path

import numpy as np
import pytest

from ctxseq.cli import main
from ctxseq.config import RunConfig
from ctxseq.corpus import read_manifest
from ctxseq.fst import FusionScorer, load_context
from ctxseq.vocab import SPACE

CFG = """
[run]
seed = 3

[task]
alphabet_size = 8
lexicon_size = 10
oov_lexicon_size = 8
n_train = 6
n_dev = 2
n_test = 3
talkto_names = 6
talkto_utterances = 2
distractors_per_utterance = 2
noise_std = 0.1

[model]
encoder_layers = 1
encoder_units = 6
decoder_layers = 1
decoder_units = 6
attention_dim = 4
attention_heads = 2
bias_encoder_units = 4
embedding_dim = 4

[train]
steps = 4
batch_size = 3

[decode]
beam_width = 2
max_len = 12
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "run.ini"
    cfg_path.write_text(CFG)
    assert main(["generate", "--config", str(cfg_path), "--out", str(root / "corpus")]) == 0
    assert (
        main(
            [
                "train",
                "--config",
                str(cfg_path),
                "--data",
                str(root / "corpus" / "train.jsonl"),
                "--out",
                str(root / "ckpt"),
            ]
        )
        == 0
    )
    return root, cfg_path


class TestTrain:
    def test_checkpoint_layout(self, workspace):
        root, _ = workspace
        ckpt = root / "ckpt"
        assert (ckpt / "params.bin").exists()
        assert (ckpt / "vocab.txt").exists()
        assert (ckpt / "config.ini").exists()
        log = (ckpt / "loss_log.tsv").read_text().splitlines()
        assert len(log) == 4
        step, loss = log[0].split("\t")
        assert step == "0" and float(loss) > 0

    def test_fixed_seed_bit_identical_loss_log(self, workspace, tmp_path):
        root, cfg_path = workspace
        assert (
            main(
                [
                    "train",
                    "--config",
                    str(cfg_path),
                    "--data",
                    str(root / "corpus" / "train.jsonl"),
                    "--out",
                    str(tmp_path / "ckpt2"),
                ]
            )
            == 0
        )
        assert (tmp_path / "ckpt2" / "loss_log.tsv").read_bytes() == (
            root / "ckpt" / "loss_log.tsv"
        ).read_bytes()
        assert (tmp_path / "ckpt2" / "params.bin").read_bytes() == (
            root / "ckpt" / "params.bin"
        ).read_bytes()

    def test_unreadable_data_fails(self, workspace, tmp_path, capsys):
        _, cfg_path = workspace
        rc = main(
            [
                "train",
                "--config",
                str(cfg_path),
                "--data",
                str(tmp_path / "missing.jsonl"),
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestDecode:
    def test_writes_hypotheses_and_config(self, workspace, tmp_path):
        root, _ = workspace
        out = tmp_path / "dec"
        rc = main(
            [
                "decode",
                "--checkpoint",
                str(root / "ckpt"),
                "--data",
                str(root / "corpus" / "test_biased.jsonl"),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        lines = (out / "hypotheses.tsv").read_text().splitlines()
        utts = read_manifest(root / "corpus" / "test_biased.jsonl")
        assert len(lines) == len(utts)
        for line, u in zip(lines, utts):
            utt_id, text, total = line.split("\t")
            assert utt_id == u.id
            float(total)
        assert (out / "config.ini").exists()

    def test_identical_flags_identical_bytes(self, workspace, tmp_path):
        root, _ = workspace
        args = [
            "decode",
            "--checkpoint",
            str(root / "ckpt"),
            "--data",
            str(root / "corpus" / "test_unbiased.jsonl"),
            "--empty-bias",
        ]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "hypotheses.tsv").read_bytes() == (
            tmp_path / "b" / "hypotheses.tsv"
        ).read_bytes()

    def test_lam_zero_equals_no_fusion(self, workspace, tmp_path):
        root, _ = workspace
        base = [
            "decode",
            "--checkpoint",
            str(root / "ckpt"),
            "--data",
            str(root / "corpus" / "test_biased.jsonl"),
        ]
        assert main(base + ["--out", str(tmp_path / "plain")]) == 0
        assert (
            main(
                base
                + [
                    "--out",
                    str(tmp_path / "fused"),
                    "--strategy",
                    "every-subword",
                    "--lam",
                    "0.0",
                ]
            )
            == 0
        )
        plain = (tmp_path / "plain" / "hypotheses.tsv").read_text()
        fused = (tmp_path / "fused" / "hypotheses.tsv").read_text()
        assert plain == fused

    def test_context_with_arc_to_missing_state_fails_cleanly(self, workspace, tmp_path, capsys):
        root, _ = workspace
        context = tmp_path / "bad.ctx"
        context.write_text(
            "CTXSEQ-CONTEXT-1\nalphabet <space> a\nstrategy end-of-word\nbonus 1.0\n"
            "states 2\nstart 0\nfinals 0:0.0\n0 a <eps> 0.5 5\n"
        )
        rc = main(
            [
                "decode",
                "--checkpoint",
                str(root / "ckpt"),
                "--data",
                str(root / "corpus" / "test_biased.jsonl"),
                "--context",
                str(context),
                "--lam",
                "1",
                "--out",
                str(tmp_path / "dec"),
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "arc destination 5" in err


class TestEval:
    def test_end_to_end_wer(self, workspace, tmp_path):
        root, _ = workspace
        manifest = root / "corpus" / "test_unbiased.jsonl"
        utts = read_manifest(manifest)
        hyp = tmp_path / "hyp.tsv"
        with open(hyp, "w") as f:
            for i, u in enumerate(utts):
                text = u.transcript if i else "zz " + u.transcript
                f.write(f"{u.id}\t{text}\t0.0\n")
        out = tmp_path / "eval"
        assert main(["eval", "--hyp", str(hyp), "--data", str(manifest), "--out", str(out)]) == 0
        report = (out / "wer_report.tsv").read_text().splitlines()
        total = report[-1].split("\t")
        assert total[0] == "TOTAL"
        ref_words = sum(len(u.transcript.split()) for u in utts)
        assert total[4] == str(ref_words)
        assert float(total[5]) == pytest.approx(1 / ref_words, abs=1e-4)


class TestCompileContext:
    def test_round_trip_and_scores(self, workspace, tmp_path):
        root, _ = workspace
        phrases = tmp_path / "phrases.txt"
        phrases.write_text("cat\ncall\n".replace("cat", "ca"))
        out1 = tmp_path / "ctx1.txt"
        out2 = tmp_path / "ctx2.txt"
        base = [
            "compile-context",
            "--phrases",
            str(phrases),
            "--checkpoint",
            str(root / "ckpt"),
            "--strategy",
            "every-subword",
            "--bonus",
            "2.0",
        ]
        assert main(base + ["--out", str(out1)]) == 0
        assert main(base + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        scorer = FusionScorer(load_context(out1))
        total, _ = scorer.score_string(["c", "a", SPACE])
        assert total == pytest.approx(2.0)

    def test_needs_alphabet_source(self, tmp_path, capsys):
        phrases = tmp_path / "p.txt"
        phrases.write_text("a\n")
        rc = main(
            [
                "compile-context",
                "--phrases",
                str(phrases),
                "--strategy",
                "end-of-word",
                "--out",
                str(tmp_path / "c.txt"),
            ]
        )
        assert rc == 1
        assert "alphabet" in capsys.readouterr().err


class TestSweep:
    def test_empty_spec_succeeds(self, tmp_path, capsys):
        spec = tmp_path / "empty.ini"
        spec.write_text("")
        out = tmp_path / "report"
        assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 0
        assert "nothing to do" in capsys.readouterr().out
        assert list(out.iterdir()) == []

    def test_single_experiment_single_report(self, workspace, tmp_path):
        root, _ = workspace
        spec = tmp_path / "spec.ini"
        spec.write_text(
            "[attention]\n"
            f"checkpoint = {root / 'ckpt'}\n"
            f"manifest = {root / 'corpus' / 'test_biased.jsonl'}\n"
        )
        out = tmp_path / "report"
        assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 0
        files = sorted(p.name for p in out.iterdir())
        assert files == ["attention.tsv"]


class TestDumpAttention:
    def test_rows_sum_to_one(self, workspace, tmp_path):
        root, _ = workspace
        out = tmp_path / "attn"
        rc = main(
            [
                "dump-attention",
                "--checkpoint",
                str(root / "ckpt"),
                "--data",
                str(root / "corpus" / "test_biased.jsonl"),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        files = [p for p in out.iterdir() if p.name.startswith("attention_")]
        assert len(files) == 1
        rows = files[0].read_text().splitlines()
        utts = read_manifest(root / "corpus" / "test_biased.jsonl")
        header = rows[0].split("\t")
        assert len(header) == 2 + 1 + len(utts[0].bias_phrases)
        for row in rows[1:]:
            values = [float(v) for v in row.split("\t")[2:]]
            assert abs(sum(values) - 1.0) < 1e-9


class TestRunConfig:
    def test_overrides_and_types(self, tmp_path):
        cfg_path = tmp_path / "c.ini"
        cfg_path.write_text("[task]\nalphabet_size = 9\nframes_per_grapheme = 2,3\n")
        cfg = RunConfig.load(cfg_path)
        cfg.override("task.alphabet_size=10")
        cfg.override("decode.beam_width=7")
        task = cfg.task()
        assert task.alphabet_size == 10
        assert task.frames_per_grapheme == (2, 3)
        assert cfg.decode().beam_width == 7

    def test_global_seed_flows_to_sections(self):
        cfg = RunConfig({"run": {"seed": "42"}})
        assert cfg.task().seed == 42
        assert cfg.train().seed == 42

    def test_unknown_key_rejected(self):
        cfg = RunConfig({"task": {"bogus": "1"}})
        with pytest.raises(ValueError, match="unknown key"):
            cfg.task()

    def test_bad_override_format(self):
        with pytest.raises(ValueError, match="section.key=value"):
            RunConfig().override("nonsense")

    def test_resolved_text_round_trips(self, tmp_path):
        cfg = RunConfig({"run": {"seed": "5"}, "model": {"encoder_units": "12"}})
        path = tmp_path / "resolved.ini"
        cfg.save_resolved(path)
        again = RunConfig.load(path)
        assert again.model().encoder_units == 12
        assert again.seed == 5
