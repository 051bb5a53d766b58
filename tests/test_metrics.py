import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxseq.metrics import compute_wer, corpus_wer

from oracles import brute_force_edit_distance

words = st.lists(st.sampled_from(["a", "b", "c", "dd"]), max_size=10)


class TestComputeWer:
    def test_identical_is_zero(self):
        report = compute_wer("a b c", "a b c")
        assert report.wer == 0.0
        assert report.errors == 0

    def test_single_substitution(self):
        report = compute_wer("a b c", "a x c")
        assert report.substitutions == 1
        assert report.insertions == 0
        assert report.deletions == 0
        assert report.wer == pytest.approx(1 / 3)

    def test_insertion_and_deletion(self):
        assert compute_wer("a b c d", "a b c").insertions == 1
        assert compute_wer("a b", "a b c").deletions == 1

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError, match="empty reference"):
            compute_wer("a", "")

    def test_empty_hypothesis(self):
        report = compute_wer("", "a b")
        assert report.deletions == 2
        assert report.wer == 1.0

    def test_randomized_pairs_match_brute_force(self):
        rng = np.random.default_rng(0)
        vocab = ["a", "b", "c", "d"]
        for _ in range(300):
            ref = [vocab[i] for i in rng.integers(0, 4, size=10)]
            hyp = [vocab[i] for i in rng.integers(0, 4, size=rng.integers(0, 11))]
            report = compute_wer(" ".join(hyp), " ".join(ref))
            assert report.errors == brute_force_edit_distance(hyp, ref)

    @given(words.filter(bool), words)
    @settings(max_examples=150, deadline=None)
    def test_zero_iff_equal(self, ref, hyp):
        report = compute_wer(" ".join(hyp), " ".join(ref))
        assert (report.errors == 0) == (hyp == ref)
        assert report.errors == brute_force_edit_distance(hyp, ref)


class TestCorpusWer:
    def test_micro_average(self):
        total = corpus_wer([("a b", "a b"), ("x", "a")])
        assert total.ref_words == 3
        assert total.errors == 1
        assert total.wer == pytest.approx(1 / 3)

    def test_no_pairs_have_no_wer(self):
        total = corpus_wer([])
        assert total.ref_words == 0 and total.errors == 0
        with pytest.raises(ValueError, match="undefined over zero reference words"):
            total.wer
