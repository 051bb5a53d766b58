import json
import math
import shutil

import numpy as np
import pytest

from ctxseq import experiments
from ctxseq.cli import load_checkpoint, main
from ctxseq.conditioning import BiasEntry, split_rule_based
from ctxseq.config import RunConfig
from ctxseq.corpus import read_manifest, write_manifest
from ctxseq.experiments import decode_corpus
from ctxseq.fst import FusionScorer, compile_context, load_context
from ctxseq.tensor import save_tensors
from ctxseq.vocab import SPACE, Vocabulary

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


def vocab_only_checkpoint(tmp_path, letters: str):
    """A directory holding only the vocabulary over `letters`, all that
    `compile-context` reads of a checkpoint."""
    ckpt = tmp_path / letters
    ckpt.mkdir()
    Vocabulary.from_alphabet(letters).save(ckpt / "vocab.txt")
    return ckpt


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

    @pytest.mark.parametrize(
        "setting, message",
        [("steps=0", "steps must be >= 1, got 0"), ("batch_size=0", "batch_size must be >= 1, got 0"),
         ("lr=0", "lr must be > 0, got 0.0")],
        ids=["steps", "batch_size", "lr"],
    )
    def test_bad_train_config_fails_cleanly(self, workspace, tmp_path, capsys, setting, message):
        root, cfg_path = workspace
        args = ["train", "--config", str(cfg_path), "--data", str(root / "corpus" / "train.jsonl")]
        assert main(args + ["--out", str(tmp_path / "ckpt"), f"--set=train.{setting}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    def test_bad_model_config_fails_cleanly(self, workspace, tmp_path, capsys):
        # A model without encoder units used to train and exit 0.
        root, cfg_path = workspace
        out = tmp_path / "ckpt"
        args = ["train", "--config", str(cfg_path), "--data", str(root / "corpus" / "train.jsonl")]
        assert main(args + ["--out", str(out), "--set=model.encoder_units=0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "encoder_units must be >= 1, got 0" in err
        assert not out.exists()

    def test_checkpoint_every_saves_step_files(self, workspace, tmp_path):
        root, cfg_path = workspace
        out = tmp_path / "ckpt"
        args = ["train", "--config", str(cfg_path), "--data", str(root / "corpus" / "train.jsonl")]
        assert main(args + ["--out", str(out), "--checkpoint-every", "2"]) == 0
        assert sorted(p.name for p in out.glob("params_step*.bin")) == [
            "params_step000002.bin", "params_step000004.bin"
        ]
        assert (out / "params_step000004.bin").read_bytes() == (out / "params.bin").read_bytes()

    def test_negative_checkpoint_every_fails_cleanly(self, workspace, tmp_path, capsys):
        # `(step + 1) % -1 == 0` used to save a checkpoint at every step.
        root, cfg_path = workspace
        out = tmp_path / "ckpt"
        args = ["train", "--config", str(cfg_path), "--data", str(root / "corpus" / "train.jsonl")]
        assert main(args + ["--out", str(out), "--checkpoint-every=-1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--checkpoint-every must be >= 0, got -1" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "spoil, message",
        [
            (lambda path, dim: save_tensors(path, {"features": np.zeros((4, dim + 2))}),
             "feature dim {wide} does not match config {dim}"),
            (lambda path, dim: path.write_bytes(path.read_bytes()[:-8]), "truncated tensor file while reading 'features'"),
        ],
        ids=["wrong-width", "truncated"],
    )
    def test_bad_feature_file_is_named_before_step_0(self, workspace, tmp_path, capsys, spoil, message):
        # It used to surface only at the step that first sampled the
        # utterance, or without naming it.
        root, cfg_path = workspace
        utts = read_manifest(root / "corpus" / "train.jsonl")
        dim = utts[0].load_features().shape[1]
        bad = tmp_path / "bad.bin"
        shutil.copy(utts[-1].features_path, bad)
        spoil(bad, dim)
        utts[-1].features_path = str(bad)
        write_manifest(tmp_path / "m.jsonl", utts)
        out = tmp_path / "ckpt"
        args = ["train", "--config", str(cfg_path), "--data", str(tmp_path / "m.jsonl"), "--out", str(out)]
        assert main(args + ["--checkpoint-every", "1"]) == 1
        want = f"error: utterance {utts[-1].id} ({bad}): " + message.format(wide=dim + 2, dim=dim)
        assert capsys.readouterr().err.strip() == want
        assert not out.exists()  # no config or vocabulary that looks like a checkpoint

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

    def test_empty_manifest_fails_cleanly(self, workspace, tmp_path, capsys):
        root, _ = workspace
        manifest = tmp_path / "empty.jsonl"
        manifest.write_text("")
        out = tmp_path / "dec"
        assert main(["decode", "--checkpoint", str(root / "ckpt"), "--data", str(manifest), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"no utterances in manifest {manifest}" in err
        assert not (out / "hypotheses.tsv").exists()

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

    @pytest.mark.parametrize(
        "flag, message",
        [("--max-len=0", "max_len must be >= 1, got 0"), ("--lam=-1", "lam must be a finite number >= 0, got -1.0"),
         ("--lam=nan", "got nan"), ("--lam=inf", "got inf")],
        ids=["max_len", "lam-negative", "lam-nan", "lam-inf"],
    )
    def test_bad_decode_config_fails_cleanly(self, workspace, tmp_path, capsys, flag, message):
        root, _ = workspace
        out = tmp_path / "dec"
        args = ["decode", "--checkpoint", str(root / "ckpt"), "--data", str(root / "corpus" / "test_biased.jsonl")]
        assert main(args + ["--out", str(out), flag]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not (out / "hypotheses.tsv").exists()

    @pytest.mark.parametrize("bonus", ["nan", "inf"])
    def test_bonus_must_be_finite(self, workspace, tmp_path, capsys, bonus):
        # An infinite bonus used to fuse with infinite weights.
        root, _ = workspace
        out = tmp_path / "dec"
        args = ["decode", "--checkpoint", str(root / "ckpt"), "--data", str(root / "corpus" / "test_biased.jsonl")]
        assert main(args + ["--out", str(out), "--strategy", "every-subword", "--lam", "1", "--bonus", bonus]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"bonus_per_word must be a finite number > 0, got {bonus}" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "manifest, extra",
        [("test_biased", []), ("test_biased", ["--empty-bias"]), ("test_unbiased", [])],
        ids=["biased", "empty-bias", "no-lists"],
    )
    def test_unknown_strategy_rejected(self, workspace, tmp_path, capsys, manifest, extra):
        # It used to pass unchecked wherever no context was compiled.
        root, _ = workspace
        out = tmp_path / "dec"
        args = ["decode", "--checkpoint", str(root / "ckpt"), "--data", str(root / "corpus" / f"{manifest}.jsonl")]
        with pytest.raises(SystemExit) as exc:
            main(args + ["--out", str(out), "--strategy", "bogus", *extra])
        assert exc.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err
        assert not out.exists()

    def test_context_and_strategy_exclusive(self, workspace, tmp_path, capsys):
        # `--context` used to win silently.
        root, _ = workspace
        out = tmp_path / "dec"
        args = ["decode", "--checkpoint", str(root / "ckpt"), "--data", str(root / "corpus" / "test_biased.jsonl")]
        with pytest.raises(SystemExit) as exc:
            main(args + ["--out", str(out), "--context", str(tmp_path / "ctx.txt"), "--strategy", "every-subword"])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_prefix_count_mismatch_fails_cleanly(self, workspace, tmp_path, capsys):
        # Zipping 1 prefix with several phrases used to decode with 1 phrase.
        root, _ = workspace
        record = json.loads((root / "corpus" / "test_biased.jsonl").read_text().splitlines()[0])
        n = len(record["bias_phrases"])
        assert n > 1
        data = tmp_path / "m.jsonl"
        data.write_text(json.dumps({**record, "bias_prefixes": [""]}) + "\n")
        out = tmp_path / "dec"
        args = ["decode", "--checkpoint", str(root / "ckpt"), "--data", str(data), "--conditioning", "manifest"]
        assert main(args + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"line 1: field 'bias_prefixes' has length 1, field 'bias_phrases' length {n}" in err
        assert not (out / "hypotheses.tsv").exists()

    def test_manifest_conditioning_decodes_the_manifest_entries(self, workspace, tmp_path):
        root, _ = workspace
        model, cfg = load_checkpoint(root / "ckpt")
        utts = read_manifest(root / "corpus" / "test_talkto.jsonl")
        for u in utts:
            entries = split_rule_based(u.bias_phrases)
            u.bias_phrases, u.bias_prefixes = [e.phrase for e in entries], [e.prefix for e in entries]
        data = tmp_path / "m.jsonl"
        write_manifest(data, utts)
        out = tmp_path / "dec"
        args = ["decode", "--checkpoint", str(root / "ckpt"), "--data", str(data), "--conditioning", "manifest"]
        assert main(args + ["--out", str(out)]) == 0
        entries_fn = lambda u: [BiasEntry(p, z) for p, z in zip(u.bias_prefixes, u.bias_phrases)]
        want = decode_corpus(model, read_manifest(data), cfg.decode(), entries_fn=entries_fn)
        lines = (out / "hypotheses.tsv").read_text().splitlines()
        assert lines == [f"{u.id}\t{r.text}\t{r.total!r}" for u, r in zip(utts, want)]

    def test_manifest_conditioning_needs_prefixes(self, workspace, tmp_path, capsys):
        root, _ = workspace
        data = root / "corpus" / "test_biased.jsonl"
        first = read_manifest(data)[0]
        out = tmp_path / "dec"
        args = ["decode", "--checkpoint", str(root / "ckpt"), "--data", str(data), "--conditioning", "manifest"]
        assert main(args + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: utterance {first.id} has no bias_prefixes in the manifest\n"
        assert not out.exists()

    def test_empty_bias_with_strategy_fuses_the_manifest_list(self, workspace, tmp_path):
        # `--empty-bias` used to drop the fusion too: the no-CLAS baseline is
        # the empty CLAS list plus shallow fusion of each utterance's list.
        root, _ = workspace
        model, cfg = load_checkpoint(root / "ckpt")
        data = root / "corpus" / "test_biased.jsonl"
        out = tmp_path / "dec"
        args = ["decode", "--checkpoint", str(root / "ckpt"), "--data", str(data), "--empty-bias"]
        assert main(args + ["--out", str(out), "--strategy", "every-subword", "--lam", "1"]) == 0
        utts = read_manifest(data)
        alphabet = model.vocab.graphemes
        fusion = lambda u: FusionScorer(compile_context(u.bias_phrases, alphabet, "every-subword", 1.0))
        cfg.override("decode.lam=1")
        want = decode_corpus(model, utts, cfg.decode(), fusion_per_utt=fusion, phrases_fn=lambda u: [])
        assert any(r.log_fusion != 0.0 for r in want)
        lines = (out / "hypotheses.tsv").read_text().splitlines()
        assert lines == [f"{u.id}\t{r.text}\t{r.total!r}" for u, r in zip(utts, want)]

    @pytest.mark.parametrize("conditioning", ["manifest", "rule-based"])
    def test_empty_bias_rejects_conditioning(self, workspace, tmp_path, capsys, monkeypatch, conditioning):
        # `--empty-bias --conditioning manifest` used to decode unconditioned,
        # even over a manifest without bias_prefixes.
        root, _ = workspace

        def no_decode(*args, **kwargs):
            raise AssertionError("decoded")

        monkeypatch.setattr(experiments, "beam_search", no_decode)
        out = tmp_path / "dec"
        args = ["decode", "--checkpoint", str(root / "ckpt"), "--data", str(root / "corpus" / "test_biased.jsonl")]
        assert main(args + ["--out", str(out), "--empty-bias", "--conditioning", conditioning]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"drop --conditioning {conditioning}" in err
        assert not out.exists()

    def test_context_over_foreign_graphemes_fails_cleanly(self, workspace, tmp_path, capsys):
        # A context over letters the model cannot emit used to decode with a
        # fusion that never fires.
        root, _ = workspace
        phrases = tmp_path / "p.txt"
        phrases.write_text("zq\nxq\n")
        ckpt = vocab_only_checkpoint(tmp_path, "zqx")
        context = tmp_path / "ctx.txt"
        args = ["compile-context", "--phrases", str(phrases), "--checkpoint", str(ckpt), "--strategy", "every-subword"]
        assert main(args + ["--out", str(context)]) == 0
        out = tmp_path / "dec"
        args = ["decode", "--checkpoint", str(root / "ckpt"), "--data", str(root / "corpus" / "test_biased.jsonl")]
        assert main(args + ["--context", str(context), "--lam", "1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: context {context} has graphemes the model cannot emit: q x z\n"
        assert not out.exists()

    def test_unknown_phrase_token_fails_cleanly_without_output(self, workspace, tmp_path, capsys):
        root, _ = workspace
        record = json.loads((root / "corpus" / "test_biased.jsonl").read_text().splitlines()[0])
        data = tmp_path / "m.jsonl"
        data.write_text(json.dumps({**record, "bias_phrases": ["zq"]}) + "\n")
        out = tmp_path / "dec"
        assert main(["decode", "--checkpoint", str(root / "ckpt"), "--data", str(data), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: unknown token 'z'\n"
        assert not out.exists()

    @staticmethod
    def decode_with_context(workspace, tmp_path, arcs: str) -> int:
        root, _ = workspace
        context = tmp_path / "bad.ctx"
        context.write_text(
            "CTXSEQ-CONTEXT-1\nalphabet <space> a\nstrategy end-of-word\nbonus 1.0\n"
            "states 2\nstart 0\nfinals 0:0.0\n" + arcs
        )
        return main(
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

    def test_context_with_arc_to_missing_state_fails_cleanly(self, workspace, tmp_path, capsys):
        assert self.decode_with_context(workspace, tmp_path, "0 a <eps> 0.5 5\n") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "arc destination 5" in err

    def test_context_with_duplicate_arc_fails_cleanly(self, workspace, tmp_path, capsys):
        arcs = "0 a <eps> 0.5 1\n0 a <eps> 9.0 1\n"
        assert self.decode_with_context(workspace, tmp_path, arcs) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "second arc from state 0 on 'a'" in err

    @pytest.mark.parametrize(
        "manifest, message",
        [
            (b"5", "manifest is not a list"),
            (b'[["embedding", "x"]]', "is not [name, list of ints >= 0]"),
            (b'[["no_bias", [1]], ["no_bias", [1]]]', "names 'no_bias' twice"),
        ],
    )
    def test_malformed_checkpoint_fails_cleanly(self, workspace, tmp_path, capsys, manifest, message):
        root, _ = workspace
        ckpt = tmp_path / "ckpt"
        shutil.copytree(root / "ckpt", ckpt)
        (ckpt / "params.bin").write_bytes(b"CTXSEQ-TENSORS-1\n" + manifest + b"\n" + b"\0" * 16)
        args = ["decode", "--checkpoint", str(ckpt), "--data", str(root / "corpus" / "test_biased.jsonl")]
        assert main(args + ["--out", str(tmp_path / "dec")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: checkpoint {ckpt}: ") and message in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("seed = 3\n[model\n", "File contains no section headers"),
            ("[model]\nencoder_units = 6\n[model]\n", "section 'model' already exists"),
        ],
    )
    def test_malformed_checkpoint_config_fails_cleanly(self, workspace, tmp_path, capsys, text, message):
        root, _ = workspace
        ckpt = tmp_path / "ckpt"
        shutil.copytree(root / "ckpt", ckpt)
        (ckpt / "config.ini").write_text(text)
        args = ["decode", "--checkpoint", str(ckpt), "--data", str(root / "corpus" / "test_biased.jsonl")]
        assert main(args + ["--out", str(tmp_path / "dec")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {ckpt / 'config.ini'}:") and message in err

    def test_checkpoint_with_trailing_bytes_fails_cleanly(self, workspace, tmp_path, capsys):
        root, _ = workspace
        ckpt = tmp_path / "ckpt"
        shutil.copytree(root / "ckpt", ckpt)
        with open(ckpt / "params.bin", "ab") as f:
            f.write(b"\0")
        args = ["decode", "--checkpoint", str(ckpt), "--data", str(root / "corpus" / "test_biased.jsonl")]
        assert main(args + ["--out", str(tmp_path / "dec")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: checkpoint {ckpt}: ") and "1 bytes after its last array" in err

    @pytest.mark.parametrize(
        "spoil, message",
        [
            (lambda d: (d / "params.bin").write_bytes((d / "params.bin").read_bytes()[:-8]),
             "truncated tensor file while reading '"),
            (lambda d: save_tensors(d / "params.bin", {}), "checkpoint missing parameters: ["),
            (lambda d: (d / "vocab.txt").write_text("a\n"), "vocabulary must contain '<s>' exactly once"),
            (lambda d: Vocabulary.from_alphabet("ab").save(d / "vocab.txt"), "shape mismatch for embedding: "),
        ],
        ids=["truncated-params", "no-params", "vocab-without-specials", "short-vocab"],
    )
    def test_checkpoint_that_does_not_load_is_named(self, workspace, tmp_path, capsys, spoil, message):
        root, _ = workspace
        ckpt = tmp_path / "ckpt"
        shutil.copytree(root / "ckpt", ckpt)
        spoil(ckpt)
        args = ["decode", "--checkpoint", str(ckpt), "--data", str(root / "corpus" / "test_biased.jsonl")]
        assert main(args + ["--out", str(tmp_path / "dec")]) == 1
        assert capsys.readouterr().err.startswith(f"error: checkpoint {ckpt}: {message}")

    def test_utterance_with_wrong_feature_dim_is_named(self, workspace, tmp_path, capsys):
        root, _ = workspace
        dim = load_checkpoint(root / "ckpt")[0].config.feature_dim
        utts = read_manifest(root / "corpus" / "test_biased.jsonl")
        bad = tmp_path / "bad.bin"
        save_tensors(bad, {"features": np.zeros((4, dim + 2))})
        utts[1].features_path = str(bad)
        write_manifest(tmp_path / "m.jsonl", utts)
        out = tmp_path / "dec"
        args = ["decode", "--checkpoint", str(root / "ckpt"), "--data", str(tmp_path / "m.jsonl"), "--out", str(out)]
        assert main(args) == 1
        err = capsys.readouterr().err
        want = f"error: utterance {utts[1].id} ({bad}): feature dim {dim + 2} does not match config {dim}"
        assert err.strip() == want
        assert not out.exists()


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


    def test_blank_lines_are_skipped(self, workspace, tmp_path):
        root, _ = workspace
        manifest = root / "corpus" / "test_unbiased.jsonl"
        lines = [f"{u.id}\t{u.transcript}\t0.0\n" for u in read_manifest(manifest)]
        reports = []
        for name, text in (("plain", "".join(lines)), ("blank", "\n" + "  \n".join(lines))):
            hyp = tmp_path / f"{name}.tsv"
            hyp.write_text(text)
            assert main(["eval", "--hyp", str(hyp), "--data", str(manifest), "--out", str(tmp_path / name)]) == 0
            reports.append((tmp_path / name / "wer_report.tsv").read_text())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize(
        "second_line, message",
        [
            ("{id}\t{text}\t0.0", "line 2: second hypothesis for utterance {id}"),
            ("{id}\t{text}", "line 2: expected `id text total`, got 2 fields"),
        ],
    )
    def test_malformed_hypothesis_file_fails_cleanly(self, workspace, tmp_path, capsys, second_line, message):
        root, _ = workspace
        manifest = root / "corpus" / "test_unbiased.jsonl"
        u = read_manifest(manifest)[0]
        hyp = tmp_path / "hyp.tsv"
        hyp.write_text(f"{u.id}\t{u.transcript}\t0.0\n" + second_line.format(id=u.id, text=u.transcript) + "\n")
        assert main(["eval", "--hyp", str(hyp), "--data", str(manifest), "--out", str(tmp_path / "eval")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {hyp} ") and message.format(id=u.id) in err

    def test_hypothesis_for_unknown_utterance_fails_cleanly(self, workspace, tmp_path, capsys):
        root, _ = workspace
        manifest = root / "corpus" / "test_unbiased.jsonl"
        hyp = tmp_path / "hyp.tsv"
        hyp.write_text("nobody\ta b\t0.0\n")
        assert main(["eval", "--hyp", str(hyp), "--data", str(manifest), "--out", str(tmp_path / "eval")]) == 1
        assert capsys.readouterr().err == "error: hypothesis for unknown utterance nobody\n"
        assert not (tmp_path / "eval").exists()

    def test_missing_hypotheses_fail_cleanly(self, workspace, tmp_path, capsys):
        root, _ = workspace
        manifest = root / "corpus" / "test_unbiased.jsonl"
        utts = read_manifest(manifest)
        hyp = tmp_path / "hyp.tsv"
        hyp.write_text(f"{utts[1].id}\t{utts[1].transcript}\t0.0\n")
        assert main(["eval", "--hyp", str(hyp), "--data", str(manifest), "--out", str(tmp_path / "eval")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {hyp} has no hypothesis for {len(utts) - 1} of the {len(utts)} utterances")
        assert err.rstrip().endswith(f"the first being {utts[0].id}")
        assert not (tmp_path / "eval").exists()

    def test_empty_manifest_fails_cleanly(self, tmp_path, capsys):
        # Zero reference words used to end in a ZeroDivisionError after the
        # report's header line was written.
        manifest, hyp = tmp_path / "empty.jsonl", tmp_path / "empty.tsv"
        manifest.write_text("")
        hyp.write_text("")
        assert main(["eval", "--hyp", str(hyp), "--data", str(manifest), "--out", str(tmp_path / "eval")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"no utterances in manifest {manifest}" in err
        assert not (tmp_path / "eval" / "wer_report.tsv").exists()


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
        args = ["compile-context", "--phrases", str(phrases), "--strategy", "end-of-word"]
        with pytest.raises(SystemExit) as exc:
            main(args + ["--out", str(tmp_path / "c.txt")])
        assert exc.value.code == 2
        assert "the following arguments are required: --checkpoint" in capsys.readouterr().err
        assert not (tmp_path / "c.txt").exists()

    def test_unknown_strategy_rejected(self, tmp_path, capsys):
        phrases = tmp_path / "p.txt"
        phrases.write_text("ab\n")
        args = ["compile-context", "--phrases", str(phrases), "--strategy", "bogus"]
        with pytest.raises(SystemExit) as exc:
            main(args + ["--out", str(tmp_path / "c.txt")])
        assert exc.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err
        assert not (tmp_path / "c.txt").exists()

    def test_grapheme_outside_alphabet_fails_cleanly(self, tmp_path, capsys):
        phrases = tmp_path / "p.txt"
        phrases.write_text("ab\nabc\n")
        ckpt = vocab_only_checkpoint(tmp_path, "ab")
        args = ["compile-context", "--phrases", str(phrases), "--checkpoint", str(ckpt), "--strategy", "end-of-word"]
        assert main(args + ["--out", str(tmp_path / "c.txt")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "grapheme 'c' of word 'abc' outside the alphabet" in err

    def test_unreadable_vocabulary_names_the_checkpoint(self, tmp_path, capsys):
        # It used to say only what was wrong with the vocabulary.
        phrases = tmp_path / "p.txt"
        phrases.write_text("ab\n")
        ckpt = vocab_only_checkpoint(tmp_path, "ab")
        (ckpt / "vocab.txt").write_text("a\n")
        args = ["compile-context", "--phrases", str(phrases), "--checkpoint", str(ckpt), "--strategy", "end-of-word"]
        assert main(args + ["--out", str(tmp_path / "c.txt")]) == 1
        want = f"error: checkpoint {ckpt}: vocabulary must contain '<s>' exactly once"
        assert capsys.readouterr().err.startswith(want)
        assert not (tmp_path / "c.txt").exists()

    @pytest.mark.parametrize("bonus", ["nan", "inf", "0", "-1"])
    def test_bonus_must_be_finite_and_positive(self, tmp_path, capsys, bonus):
        # A NaN or infinite bonus used to compile into a context file that
        # `load_context` rejects.
        phrases = tmp_path / "p.txt"
        phrases.write_text("ab\n")
        ckpt = vocab_only_checkpoint(tmp_path, "ab")
        args = ["compile-context", "--phrases", str(phrases), "--checkpoint", str(ckpt), "--strategy", "every-subword"]
        assert main(args + ["--bonus", bonus, "--out", str(tmp_path / "c.txt")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "bonus_per_word must be a finite number > 0" in err
        assert not (tmp_path / "c.txt").exists()


class TestSweep:
    def test_empty_spec_succeeds(self, tmp_path, capsys):
        spec = tmp_path / "empty.ini"
        spec.write_text("")
        out = tmp_path / "report"
        assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 0
        assert "nothing to do" in capsys.readouterr().out
        assert list(out.iterdir()) == []

    def test_malformed_spec_fails_cleanly(self, tmp_path, capsys):
        spec = tmp_path / "spec.ini"
        spec.write_text("[attention]\n[attention]\n")
        assert main(["sweep", "--spec", str(spec), "--out", str(tmp_path / "report")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "section 'attention' already exists" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[distractor]\ncounts = 1\n", "unknown section [distractor]; the known sections are "
             "[distractors], [strategies], [conditioning], [attention]"),
            ("[distractors]\ncheckpoint = ckpt\nmanifest = m.jsonl\n", "[distractors] lacks the key 'counts'"),
            ("[attention]\nmanifest = m.jsonl\n", "[attention] lacks the key 'checkpoint'"),
            ("[strategies]\nstrategies = end-of-word\nlams = 1,x\n", "[strategies] lams = 'x' is not a number"),
            ("[attention]\ncheckpoint = ckpt\nmanifest = m.jsonl\ntreshold = 0.99\n",
             "unknown key 'treshold' in [attention]; the known keys are checkpoint, manifest"),
        ],
        ids=["unknown-section", "missing-counts", "missing-checkpoint", "bad-lambda", "unknown-key"],
    )
    def test_spec_errors_name_section_and_key(self, tmp_path, capsys, text, message):
        spec = tmp_path / "spec.ini"
        spec.write_text(text)
        out = tmp_path / "report"
        assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "section, keys, report",
        [
            ("distractors", "counts = 0\n", "distractor_curve.tsv"),
            ("strategies", "strategies = end-of-word\nlams = 0\n", "strategy_table.tsv"),
            ("conditioning", "", "conditioning.tsv"),
            ("attention", "", "attention.tsv"),
        ],
        ids=["distractors", "strategies", "conditioning", "attention"],
    )
    def test_empty_manifest_fails_cleanly(self, workspace, tmp_path, capsys, section, keys, report):
        root, _ = workspace
        manifest = tmp_path / "empty.jsonl"
        manifest.write_text("")
        spec = tmp_path / "spec.ini"
        spec.write_text(f"[{section}]\ncheckpoint = {root / 'ckpt'}\nmanifest = {manifest}\n{keys}")
        out = tmp_path / "report"
        assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"no utterances in manifest {manifest}" in err
        assert not (out / report).exists()

    def test_distractors_need_a_bias_list_per_utterance(self, workspace, tmp_path, capsys):
        root, _ = workspace
        corpus = root / "corpus"
        biased = (corpus / "test_biased.jsonl").read_text().splitlines()[:2]
        unbiased = (corpus / "test_unbiased.jsonl").read_text().splitlines()[:1]
        manifest = tmp_path / "mixed.jsonl"
        manifest.write_text("\n".join(biased + unbiased) + "\n")
        first_without = read_manifest(manifest)[2]
        assert first_without.bias_phrases == []
        spec = tmp_path / "spec.ini"
        spec.write_text(f"[distractors]\ncheckpoint = {root / 'ckpt'}\nmanifest = {manifest}\ncounts = 0,1\n")
        out = tmp_path / "report"
        assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"utterance {first_without.id} has no bias phrase" in err
        assert not (out / "distractor_curve.tsv").exists()

    @pytest.mark.parametrize(
        "section, keys, message",
        [
            ("distractors", "counts =\n", "[distractors] counts needs one or more counts >= 0, got []"),
            ("distractors", "counts = 2,-1\n", "[distractors] counts needs one or more counts >= 0, got [2, -1]"),
            ("strategies", "strategies =\nlams = 0\n", "[strategies] strategies is empty"),
            ("strategies", "strategies = end-of-word\nlams =\n", "[strategies] lams is empty"),
            ("strategies", "strategies = end-of-word\nlams = 0\nbonus = nan\n",
             "unknown key 'bonus' in [strategies]; the known keys are checkpoint, manifest, strategies, lams"),
        ],
        ids=["no-counts", "negative-count", "no-strategies", "no-lams", "nan-bonus"],
    )
    def test_empty_or_negative_grid_fails_before_decoding(
        self, workspace, tmp_path, capsys, monkeypatch, section, keys, message
    ):
        root, _ = workspace

        def no_decode(*args, **kwargs):
            raise AssertionError("decoded")

        monkeypatch.setattr(experiments, "beam_search", no_decode)
        spec = tmp_path / "spec.ini"
        manifest = root / "corpus" / "test_biased.jsonl"
        spec.write_text(f"[{section}]\ncheckpoint = {root / 'ckpt'}\nmanifest = {manifest}\n{keys}")
        out = tmp_path / "report"
        assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "later, message",
        [
            ("[strategies]\n{inputs}strategies = end-of-word\nlams =\n", "[strategies] lams is empty"),
            ("[attention]\ncheckpoint = {ckpt}\n", "[attention] lacks the key 'manifest'"),
            ("[conditioning]\ncheckpoint = {ckpt}\nmanifest =\n[attention]\n{inputs}threshold = x\n",
             "unknown key 'threshold' in [attention]; the known keys are checkpoint, manifest"),
            ("[strategies]\n{inputs}strategies = bogus\nlams = 0\n", "unknown strategy 'bogus'"),
            ("[strategies]\n{inputs}strategies = end-of-word\nlams = -1\n",
             "lam must be a finite number >= 0, got -1.0"),
            ("[attention]\ncheckpoint = {ckpt}-absent\nmanifest = {manifest}\n",
             "No such file or directory: '{ckpt}-absent/config.ini'"),
        ],
        ids=["empty-lams", "missing-manifest", "bad-threshold", "unknown-strategy", "negative-lam", "absent-checkpoint"],
    )
    def test_every_section_checked_before_the_first_decode(
        self, workspace, tmp_path, capsys, monkeypatch, later, message
    ):
        # A valid [distractors] section runs first; a fault in a later section
        # used to surface only after its sweep had decoded and written a report.
        root, _ = workspace

        def no_decode(*args, **kwargs):
            raise AssertionError("decoded")

        monkeypatch.setattr(experiments, "beam_search", no_decode)
        ckpt, manifest = root / "ckpt", root / "corpus" / "test_biased.jsonl"
        inputs = f"checkpoint = {ckpt}\nmanifest = {manifest}\n"
        spec = tmp_path / "spec.ini"
        spec.write_text(
            f"[distractors]\n{inputs}counts = 0,1\n" + later.format(inputs=inputs, ckpt=ckpt, manifest=manifest)
        )
        out = tmp_path / "report"
        assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message.format(ckpt=ckpt) in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[distractors]\n{inputs}counts = 0,500\n", "cannot cover N=500"),
            ("[distractors]\n{inputs}counts = 0,1\n[conditioning]\n{inputs}",
             "does not extend the trigger 'talk to'"),
        ],
        ids=["pool-too-small", "conditioning-after-distractors"],
    )
    def test_fault_while_decoding_leaves_no_output(self, workspace, tmp_path, capsys, text, message):
        # A section that fails as it runs used to leave `--out` behind, with
        # the reports of the sections before it.
        root, _ = workspace
        inputs = f"checkpoint = {root / 'ckpt'}\nmanifest = {root / 'corpus' / 'test_biased.jsonl'}\n"
        spec = tmp_path / "spec.ini"
        spec.write_text(text.format(inputs=inputs))
        out = tmp_path / "report"
        assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not out.exists()

    def test_checkpoint_that_does_not_load_is_named(self, workspace, tmp_path, capsys):
        # A sweep reads several checkpoints; the error says which one failed.
        root, _ = workspace
        bad = tmp_path / "bad"
        shutil.copytree(root / "ckpt", bad)
        (bad / "params.bin").write_bytes((bad / "params.bin").read_bytes()[:-8])
        manifest = root / "corpus" / "test_biased.jsonl"
        spec = tmp_path / "spec.ini"
        spec.write_text(
            f"[distractors]\ncheckpoint = {root / 'ckpt'}\nmanifest = {manifest}\ncounts = 0\n"
            f"[attention]\ncheckpoint = {bad}\nmanifest = {manifest}\n"
        )
        out = tmp_path / "report"
        assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: checkpoint {bad}: truncated tensor file while reading '")
        assert not out.exists()

    def test_all_four_experiments(self, workspace, tmp_path):
        root, _ = workspace
        ckpt, corpus = root / "ckpt", root / "corpus"
        spec = tmp_path / "spec.ini"
        spec.write_text(
            f"[distractors]\ncheckpoint = {ckpt}\nmanifest = {corpus / 'test_biased.jsonl'}\ncounts = 0,1,2\n"
            f"[strategies]\ncheckpoint = {ckpt}\nmanifest = {corpus / 'test_biased.jsonl'}\n"
            "strategies = end-of-word,beginning-of-word,every-subword\nlams = 0,0.5\n"
            f"[conditioning]\ncheckpoint = {ckpt}\nmanifest = {corpus / 'test_talkto.jsonl'}\n"
            f"[attention]\ncheckpoint = {ckpt}\nmanifest = {corpus / 'test_biased.jsonl'}\n"
        )
        out = tmp_path / "report"
        assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "attention.tsv", "conditioning.tsv", "distractor_curve.tsv", "strategy_table.tsv"
        ]
        rows = lambda name: [line.split("\t") for line in (out / name).read_text().splitlines()]
        curve = rows("distractor_curve.tsv")
        assert [n for n, _ in curve] == ["0", "1", "2"]
        table = rows("strategy_table.tsv")
        assert [strat for strat, _, _ in table] == ["end-of-word", "beginning-of-word", "every-subword"]
        assert all(float(lam) in (0.0, 0.5) for _, lam, _ in table)
        conditioning = rows("conditioning.tsv")
        assert [k for k, _ in conditioning] == ["unconditioned", "conditioned"]
        wers = [float(r[-1]) for r in curve + table + conditioning]
        assert all(math.isfinite(w) and w >= 0 for w in wers)

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

    def test_utt_id_picks_the_utterance(self, workspace, tmp_path, capsys):
        root, _ = workspace
        data = root / "corpus" / "test_biased.jsonl"
        last = read_manifest(data)[-1]
        args = ["dump-attention", "--checkpoint", str(root / "ckpt"), "--data", str(data)]
        assert main(args + ["--utt-id", last.id, "--out", str(tmp_path / "attn")]) == 0
        assert [p.name for p in (tmp_path / "attn").glob("attention_*")] == [f"attention_{last.id}.tsv"]
        assert main(args + ["--utt-id", "nobody", "--out", str(tmp_path / "none")]) == 1
        assert capsys.readouterr().err == "error: utterance nobody not in manifest\n"
        assert not (tmp_path / "none").exists()

    def test_empty_manifest_fails_cleanly(self, workspace, tmp_path, capsys):
        root, _ = workspace
        manifest = tmp_path / "empty.jsonl"
        manifest.write_text("")
        args = ["dump-attention", "--checkpoint", str(root / "ckpt"), "--data", str(manifest)]
        assert main(args + ["--out", str(tmp_path / "attn")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"no utterances in manifest {manifest}" in err


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

    def test_malformed_config_flag_fails_cleanly(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.ini"
        cfg_path.write_text("seed = 3\n[model\n")
        assert main(["generate", "--config", str(cfg_path), "--out", str(tmp_path / "corpus")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "File contains no section headers" in err

    @pytest.mark.parametrize("command", ["generate", "train"])
    def test_zero_attention_heads_fail_cleanly(self, workspace, tmp_path, capsys, command):
        root, _ = workspace
        cfg_path = tmp_path / "c.ini"
        cfg_path.write_text("[model]\nattention_heads = 0\n")
        args = [command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]
        if command == "train":
            args += ["--data", str(root / "corpus" / "train.jsonl")]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "attention_heads must be >= 1, got 0" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value, got", [("2,5,7", 3), ("3", 1)])
    def test_fixed_length_tuple_needs_its_count(self, value, got):
        cfg = RunConfig({"task": {"word_len_range": value}})
        with pytest.raises(ValueError, match=rf"\[task\] word_len_range needs 2 comma-separated values, got {got}"):
            cfg.task()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[decode]\nlam = abc\n", "[decode] lam = 'abc' is not a number"),
            ("[task]\nalphabet_size = x\n", "[task] alphabet_size = 'x' is not an int"),
            ("[run]\nseed = x\n", "[run] seed = 'x' is not an int"),
        ],
        ids=["float", "int", "seed"],
    )
    def test_malformed_number_names_its_key(self, tmp_path, capsys, text, message):
        cfg_path = tmp_path / "c.ini"
        cfg_path.write_text(text)
        small = ["n_train=1", "n_dev=1", "n_test=1", "talkto_names=2", "talkto_utterances=1"]
        args = ["generate", "--config", str(cfg_path), "--out", str(tmp_path / "corpus")]
        assert main(args + [f"--set=task.{kv}" for kv in small]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    def test_bad_config_writes_nothing(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.ini"
        cfg_path.write_text("[decode]\nlam = abc\n")
        out = tmp_path / "corpus"
        assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_model_feature_dim_must_match_task(self):
        with pytest.raises(ValueError, match=r"\[model\] feature_dim = 99 differs from the task's 33"):
            RunConfig({"model": {"feature_dim": "99"}}).model()
        assert RunConfig({"model": {"feature_dim": "33"}}).model().feature_dim == 33

    @pytest.mark.parametrize(
        "setting, message",
        [("word_len_range=1,1", "lexicon_size + oov_lexicon_size = 100 exceeds the 10 distinct words"),
         ("talkto_names=100000", "talkto_names = 100000 exceeds the 10000 distinct names"),
         ("carriers=play {x}", "carrier 'play {x}' must have a {phrase} field and no other"),
         ("carriers=play", "carrier 'play' must have a {phrase} field and no other"),
         ("carriers=", "carriers must not be empty"),
         ("noise_std=-1", "noise_std must be >= 0, got -1.0"),
         ("distractors_per_utterance=-1", "distractors_per_utterance must be >= 0, got -1"),
         ("lexicon_size=-5", "lexicon_size must be >= 0, got -5"),
         ("n_train=-1", "n_train must be >= 0, got -1")],
        ids=["words", "names", "carrier-field", "carrier-no-field", "no-carriers", "noise", "distractors", "lexicon",
             "n-train"],
    )
    def test_undrawable_corpus_fails_cleanly(self, tmp_path, capsys, setting, message):
        # The generator used to draw forever, or to fail or succeed after
        # writing part of the corpus.
        out = tmp_path / "corpus"
        assert main(["generate", "--out", str(out), f"--set=task.{setting}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not out.exists()

    def test_unknown_key_rejected(self):
        cfg = RunConfig({"task": {"bogus": "1"}})
        with pytest.raises(ValueError, match="unknown key"):
            cfg.task()

    @pytest.mark.parametrize(
        "text, flags, message",
        [
            ("[trian]\nsteps = 3\n", [], "unknown section [trian]; the known sections are "
             "[run], [task], [model], [sampler], [train], [decode]"),
            ("", ["--set", "tsk.n_train=2"], "unknown section [tsk]"),
            ("[run]\nsead = 3\n", [], "unknown key 'sead' in [run]; the known keys are seed"),
        ],
        ids=["section", "override-section", "run-key"],
    )
    def test_unknown_name_fails_and_writes_nothing(self, tmp_path, capsys, text, flags, message):
        cfg_path = tmp_path / "c.ini"
        cfg_path.write_text(text)
        out = tmp_path / "corpus"
        assert main(["generate", "--config", str(cfg_path), "--out", str(out), *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["generate", "train"])
    @pytest.mark.parametrize(
        "setting, message",
        [("tsk.n_train=2", "unknown section [tsk]"), ("decode.lam=abc", "[decode] lam = 'abc' is not a number")],
        ids=["unknown-section", "bad-value"],
    )
    def test_config_checked_before_out_is_made(self, workspace, tmp_path, capsys, command, setting, message):
        root, _ = workspace
        out = tmp_path / "out"
        args = [command, "--set", setting, "--out", str(out)]
        if command == "train":
            args += ["--data", str(root / "corpus" / "train.jsonl")]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not out.exists()

    def test_unknown_key_lists_the_known_ones(self):
        with pytest.raises(ValueError, match=r"unknown key 'bogus' in \[decode\]; the known keys are beam_width, "):
            RunConfig({"decode": {"bogus": "1"}}).decode()

    def test_bad_override_format(self):
        with pytest.raises(ValueError, match="section.key=value"):
            RunConfig().override("nonsense")

    def test_resolved_text_round_trips(self, tmp_path):
        cfg = RunConfig({"run": {"seed": "5"}, "model": {"encoder_units": "12"}})
        path = tmp_path / "resolved.ini"
        path.write_text(cfg.resolved_text())
        again = RunConfig.load(path)
        assert again.model().encoder_units == 12
        assert again.seed == 5
