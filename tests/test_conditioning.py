import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxseq.conditioning import (
    BiasEntry,
    PrefixTable,
    compute_mask,
    plain_entries,
    split_greedy,
    split_rule_based,
)
from ctxseq.corpus import SyntheticTaskConfig, generate_corpus, read_manifest
from ctxseq.vocab import BIAS_END, EOS, SOS, SPACE, graphemize

from oracles import reference_compute_mask

# Prefixes over a two-letter alphabet collide often: duplicates, empty and
# all-whitespace prefixes, and prefixes equal up to case and spacing.
_prefixes = st.lists(st.sampled_from(["a", "b", "A", "B", " ", "  ", "\t"]), max_size=6).map("".join)
_hypotheses = st.lists(st.sampled_from(["a", "b", SPACE, BIAS_END]), max_size=12)
# Symbol streams in mixed case, with repeated and leading spaces and the
# markers that render to nothing.
_streams = st.lists(st.sampled_from(["a", "b", "A", "B", SPACE, BIAS_END, SOS, EOS]), max_size=16)
_NOISE = [SPACE, SPACE, BIAS_END, SOS, EOS, "a", "B"]


def _walk(table, symbols):
    """The state of the hypothesis `symbols`, advanced from the start."""
    state = PrefixTable.START
    for symbol in symbols:
        state = table.advance(state, symbol)
    return state


@st.composite
def _spelled(draw, texts: list[str]) -> list[str]:
    """Symbols spelling one of `texts` in random case, with spaces, markers
    and letters drawn before, between and after its characters."""
    symbols = []
    for ch in (draw(st.sampled_from(texts)) if texts else "") + " ":
        symbols += draw(st.lists(st.sampled_from(_NOISE), max_size=2))
        symbols.append(SPACE if ch.isspace() else draw(st.sampled_from([ch.lower(), ch.upper()])))
    return symbols


class TestComputeMask:
    def test_all_empty_prefixes_give_zero_mask(self):
        entries = plain_entries(["alpha", "beta"])
        for hyp in ("", "alpha", "some random text"):
            mask = compute_mask(entries, graphemize(hyp))
            assert np.array_equal(mask, np.zeros(3))

    def test_non_substring_masked(self):
        entries = [BiasEntry("talk to p", "pharmacy")]
        mask = compute_mask(entries, graphemize("talk to q"))
        assert mask[1] == np.inf and mask[0] == 0.0

    def test_prefix_enables_once_detected(self):
        entries = [BiasEntry("the cat", "sat")]
        assert compute_mask(entries, graphemize("the cat s"))[1] == 0.0
        assert compute_mask(entries, graphemize("the ca"))[1] == np.inf

    def test_bias_tokens_stripped_before_matching(self):
        entries = [BiasEntry("ab", "x")]
        hyp = graphemize("a") + [BIAS_END] + graphemize("b")
        assert compute_mask(entries, hyp)[1] == 0.0

    def test_raw_substring_semantics(self):
        # the prefix may match inside words: literal string inclusion
        entries = [BiasEntry("ca", "x")]
        assert compute_mask(entries, graphemize("a cat"))[1] == 0.0

    def test_shape(self):
        entries = plain_entries(["a", "b", "c"])
        mask = compute_mask(entries, [])
        assert mask.shape == (4,)
        assert mask[0] == 0.0

    def test_table_groups_entries_by_normalized_prefix(self):
        entries = [BiasEntry(p, "x") for p in ("Talk  To p", "", "talk to p", "talk to q", " ")]
        table = PrefixTable([e.prefix for e in entries])
        assert table.prefixes == ["talk to p", "talk to q"]
        assert table.group_of.tolist() == [0, 1, 0, 1, 2, 0]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_prefixes, max_size=12), st.lists(_hypotheses, min_size=1, max_size=4))
    def test_equals_reference_loop(self, prefixes, hypotheses):
        entries = [BiasEntry(p, f"phrase{i}") for i, p in enumerate(prefixes)]
        for hyp in hypotheses:
            assert np.array_equal(compute_mask(entries, hyp), reference_compute_mask(entries, hyp))

    def test_symbols_form_builds_no_table(self, monkeypatch):
        def refuse(self, entries):
            raise AssertionError("compute_mask(entries, symbols) compiled a PrefixTable")

        monkeypatch.setattr(PrefixTable, "__init__", refuse)
        entries = [BiasEntry(p, "x") for p in ("ab", "", "ab", "A  B", "ba", "ab")]
        assert compute_mask(entries, graphemize("a b")).tolist() == [0.0, np.inf, 0.0, np.inf, 0.0, np.inf, np.inf]


class TestPrefixAutomaton:
    """A decoder advances each hypothesis's state by its one new symbol; the
    state's boolean `closed` row must equal the whole-string reference at
    every step."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_prefixes, max_size=12), st.data())
    def test_state_after_every_symbol_equals_reference(self, prefixes, data):
        entries = [BiasEntry(p, f"phrase{i}") for i, p in enumerate(prefixes)]
        table = PrefixTable([e.prefix for e in entries])  # shared by the streams, as by the rows of a beam
        for _ in range(data.draw(st.integers(1, 4))):
            symbols = data.draw(_streams | _spelled(prefixes))
            state = PrefixTable.START
            assert np.array_equal(compute_mask(table, state), reference_compute_mask(entries, []) == np.inf)
            for k, symbol in enumerate(symbols, start=1):
                state = table.advance(state, symbol)
                want = reference_compute_mask(entries, symbols[:k])
                assert np.array_equal(compute_mask(table, state), want == np.inf), symbols[:k]
                assert np.array_equal(compute_mask(entries, symbols[:k]), want), symbols[:k]

    def test_real_size_talkto_list(self, tmp_path):
        # The 940 rule-based entries of the seed-1 talk-to list, whose
        # prefixes share long beginnings ("talk to a" begins "talk to ab...").
        # Each set draws from its own substream, so the other sets can be left out.
        task = replace(SyntheticTaskConfig(seed=1), n_train=0, n_dev=0, n_test=0)
        utts = read_manifest(generate_corpus(task, tmp_path).manifests["test_talkto"])
        entries = split_rule_based(utts[0].bias_phrases)
        assert len(utts) == 50 and len(entries) == 940
        table = PrefixTable([e.prefix for e in entries])
        for u in utts:
            symbols = graphemize(u.transcript)
            symbols.insert(symbols.index(SPACE), SPACE)  # "talk  to"
            symbols.insert(len(symbols) // 2 + 1, BIAS_END)
            state = PrefixTable.START
            for k, symbol in enumerate(symbols, start=1):
                state = table.advance(state, symbol)
                want = reference_compute_mask(entries, symbols[:k]) == np.inf
                assert np.array_equal(compute_mask(table, state), want), symbols[:k]

    def test_spaces_collapse_and_markers_keep_the_state(self):
        table = PrefixTable(["A b", "ba"])
        state = _walk(table, [SPACE, SOS, "a", SPACE, SPACE, BIAS_END])
        assert table.advance(state, BIAS_END) == table.advance(state, EOS) == state
        assert compute_mask(table, state).tolist() == [False, True, True]
        assert compute_mask(table, table.advance(state, "B")).tolist() == [False, False, True]
        assert compute_mask(table, _walk(table, graphemize("aba"))).tolist() == [False, True, False]

    def test_masks_are_shared_per_open_set_and_read_only(self):
        table = PrefixTable(["a", "b", "a"])
        first, second = _walk(table, ["a"]), _walk(table, ["b", "a"])
        assert compute_mask(table, first) is compute_mask(table, _walk(table, ["a", "a"]))
        assert compute_mask(table, second).tolist() == [False] * 4
        with pytest.raises(ValueError):
            compute_mask(table, first)[1] = False


class TestSplitRuleBased:
    def test_worked_example(self):
        entries = split_rule_based(["talk to pharmacy flashcards"])
        assert entries == [
            BiasEntry("talk to p", "pharmacy"),
            BiasEntry("talk to pharmacy", "flashcards"),
        ]

    def test_single_word_has_no_suffix_entry(self):
        entries = split_rule_based(["talk to x"])
        assert entries == [BiasEntry("talk to x", "x")]

    def test_missing_trigger_rejected(self):
        with pytest.raises(ValueError, match="trigger"):
            split_rule_based(["call mom"])
        with pytest.raises(ValueError, match="trigger"):
            split_rule_based(["talk to"])  # nothing after the trigger

    def test_entry_growth_on_synthetic_list(self):
        rng = np.random.default_rng(0)
        words = ["".join(rng.choice(list("abcdefgh"), size=4)) for _ in range(7000)]
        phrases = []
        for i in range(3255):
            name = words[2 * i]
            if rng.random() < 0.1:  # small share of multiword names
                name += " " + words[2 * i + 1]
            phrases.append(f"talk to {name}")
        entries = split_rule_based(phrases)
        assert len(entries) <= 1.15 * len(phrases)

    def test_prefix_sharing_shrinks(self):
        phrases = [f"talk to {w}" for w in ("apple", "apricot", "banana", "berry")]
        entries = split_rule_based(phrases)
        groups = {}
        for e in entries:
            groups.setdefault(e.prefix, 0)
            groups[e.prefix] += 1
        assert max(groups.values()) <= 2  # per first letter, not the full list


def brute_force_min_max_group(phrases: list[str]) -> int:
    """Minimal achievable max-group-size over all prefix-length assignments."""
    word_lists = [p.split() for p in phrases]
    best = len(phrases)
    for lens in itertools.product(*[range(len(w) + 1) for w in word_lists]):
        groups = {}
        for words, n in zip(word_lists, lens):
            key = " ".join(words[:n])
            groups[key] = groups.get(key, 0) + 1
        best = min(best, max(groups.values()))
    return best


class TestSplitGreedy:
    def test_max_share_below_one_rejected(self):
        with pytest.raises(ValueError, match="max_share must be >= 1"):
            split_greedy(["a x"], max_share=0)

    def test_single_phrase_keeps_empty_prefix(self):
        assert split_greedy(["a x"], max_share=10) == [BiasEntry("", "a x")]

    def test_max_share_at_least_count_keeps_all_empty(self):
        phrases = ["a x", "a y", "b z"]
        assert all(e.prefix == "" for e in split_greedy(phrases, max_share=3))

    def test_three_phrase_example(self):
        entries = split_greedy(["a x", "a y", "b z"], max_share=1)
        assert entries == [
            BiasEntry("a x", ""),
            BiasEntry("a y", ""),
            BiasEntry("b", "z"),
        ]
        # the greedy grouping is as tight as the brute-force optimum here
        groups = {}
        for e in entries:
            groups[e.prefix] = groups.get(e.prefix, 0) + 1
        assert max(groups.values()) == brute_force_min_max_group(["a x", "a y", "b z"])

    def test_content_preserved(self):
        phrases = ["a x", "a y", "b z", "a x q", "c", "c"]
        entries = split_greedy(phrases, max_share=1)
        rebuilt = sorted(" ".join(filter(None, (e.prefix, e.phrase))) for e in entries)
        assert rebuilt == sorted(phrases)

    def test_termination_invariant_random(self):
        rng = np.random.default_rng(5)
        vocab = ["a", "b", "c"]
        for _ in range(200):
            phrases = [
                " ".join(vocab[i] for i in rng.integers(0, 3, size=rng.integers(1, 4)))
                for _ in range(rng.integers(1, 7))
            ]
            max_share = int(rng.integers(1, 4))
            entries = split_greedy(phrases, max_share)
            groups: dict[str, list[BiasEntry]] = {}
            for e in entries:
                groups.setdefault(e.prefix, []).append(e)
            for members in groups.values():
                assert len(members) <= max_share or all(not e.phrase for e in members)
            rebuilt = sorted(" ".join(filter(None, (e.prefix, e.phrase))) for e in entries)
            assert rebuilt == sorted(phrases)

