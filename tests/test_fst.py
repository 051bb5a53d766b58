import itertools
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxseq import fst
from ctxseq.corpus import SyntheticTaskConfig, generate_corpus, read_manifest
from ctxseq.fst import (
    BEGINNING_OF_WORD,
    END_OF_WORD,
    EVERY_SUBWORD,
    FAIL,
    STRATEGIES,
    FusionScorer,
    apply_strategy,
    build_grammar,
    compile_context,
    compose_det_min,
    load_context,
    save_context,
)
from ctxseq.vocab import SPACE, normalize

from oracles import (
    _annotate,
    _compose,
    _determinize,
    accepts,
    build_speller,
    fusion_events,
    grammar_accepts,
    reference_compose_det_min,
    reference_gain_bound,
    reference_score_step,
)

AB_ALPHABET = [SPACE, "a", "b"]
CAT_ALPHABET = [SPACE, "c", "a", "t", "r", "s"]

# A well-formed two-state context file, as save_context writes it.
TWO_STATE_CONTEXT = [
    "CTXSEQ-CONTEXT-1",
    "alphabet <space> a b",
    "strategy end-of-word",
    "bonus 1.0",
    "states 2",
    "start 0",
    "finals 0:0.0",
    "0 a <eps> 0.5 1",
    "1 <space> <eps> 0.5 0",
]


def enumerate_accepted_word_strings(g, words, max_len):
    """All word sequences up to max_len accepted by the (possibly
    nondeterministic) grammar."""
    accepted = []
    for n in range(max_len + 1):
        for seq in itertools.product(words, repeat=n):
            states = {g.start}
            for w in seq:
                states = {a.dst for s in states for a in g.out(s) if a.ilabel == w}
                if not states:
                    break
            if states & set(g.finals):
                accepted.append(list(seq))
    return accepted


class TestBuildGrammar:
    def test_single_phrase_path_weight(self):
        g = build_grammar(["cat"], bonus_per_word=2.5)
        ok, weight = accepts(g, ["cat"])
        assert ok and weight == 2.5

    def test_multiword_path_weight(self):
        g = build_grammar(["the cat sat"], bonus_per_word=1.0)
        ok, weight = accepts(g, ["the", "cat", "sat"])
        assert ok and weight == 3.0

    def test_accepts_exactly_the_phrases(self):
        phrases = ["the cat sat", "the cat ran", "the dog sat"]
        g = build_grammar(phrases, bonus_per_word=1.0)
        words = sorted({w for p in phrases for w in p.split()})
        accepted = enumerate_accepted_word_strings(g, words, max_len=4)
        assert sorted(" ".join(s) for s in accepted if s) == sorted(phrases)
        assert grammar_accepts([], phrases)  # empty concatenation

    def test_phrase_loops_back_for_repeats(self):
        g = build_grammar(["cat"], bonus_per_word=1.0)
        ok, weight = accepts(g, ["cat", "cat"])
        assert ok and weight == 2.0

    def test_empty_phrase_rejected(self):
        with pytest.raises(ValueError):
            build_grammar([""], 1.0)
        with pytest.raises(ValueError):
            build_grammar([], 1.0)

    @pytest.mark.parametrize("bonus", [0.0, -1.0, float("nan"), float("inf"), float("-inf")])
    def test_bonus_must_be_finite_and_positive(self, bonus):
        # `bonus_per_word <= 0` used to let NaN and +inf through.
        with pytest.raises(ValueError, match=f"bonus_per_word must be a finite number > 0, got {bonus}"):
            build_grammar(["cat"], bonus)


class TestBuildSpeller:
    """The speller of the reference compiler in `oracles`."""

    def test_spells_word_through_space(self):
        s = build_speller(["cat"], CAT_ALPHABET)
        state = s.start
        outs = []
        for lab in ["c", "a", "t", SPACE]:
            arc = next(a for a in s.out(state) if a.ilabel == lab)
            outs.append(arc.olabel)
            state = arc.dst
        assert outs == ["<eps>", "<eps>", "<eps>", "cat"]
        assert state == s.start

    def test_shared_prefix_states(self):
        s = build_speller(["cat", "car"], CAT_ALPHABET)
        # root, c, ca, t-leaf, r-leaf: shared up to the divergence grapheme
        assert s.n_states == 5

    def test_round_trip_every_word(self):
        words = ["cat", "car", "tar", "a"]
        s = build_speller(words, CAT_ALPHABET)
        for word in words:
            state = s.start
            emitted = []
            for lab in list(word) + [SPACE]:
                arc = next(a for a in s.out(state) if a.ilabel == lab)
                if arc.olabel != "<eps>":
                    emitted.append(arc.olabel)
                state = arc.dst
            assert emitted == [word]

    def test_grapheme_outside_alphabet(self):
        with pytest.raises(ValueError, match="outside the alphabet"):
            build_speller(["dog"], CAT_ALPHABET)


class TestComposeDetMin:
    def test_single_phrase_acceptance_and_loop(self):
        c = compose_det_min(build_grammar(["cat"], 1.0), CAT_ALPHABET)
        assert accepts(c, ["c", "a", "t", SPACE])[0]
        assert accepts(c, ["c", "a", "t", SPACE, "c", "a", "t", SPACE])[0]
        assert not accepts(c, ["c", "a", "t"])[0]
        assert not accepts(c, ["c", "a"])[0]
        assert c.is_deterministic()

    def test_weight_is_bonus_times_words(self):
        phrases = ["a b", "b"]
        c = compose_det_min(build_grammar(phrases, 1.5), AB_ALPHABET)
        ok, w = accepts(c, ["a", SPACE, "b", SPACE])
        assert ok and w == pytest.approx(3.0)
        ok, w = accepts(c, ["b", SPACE])
        assert ok and w == pytest.approx(1.5)

    def test_exhaustive_language_equivalence(self):
        phrases = ["ab", "a b", "b"]
        c = compose_det_min(build_grammar(phrases, 1.0), AB_ALPHABET)
        for n in range(7):
            for labels in itertools.product(AB_ALPHABET, repeat=n):
                accepted, weight = accepts(c, labels)
                words = _render_words(labels)
                expected = words is not None and grammar_accepts(words, phrases)
                assert accepted == expected, f"{labels}"
                if accepted:
                    assert weight == pytest.approx(len(words))

    def test_minimization_reduces_or_keeps_state_count(self):
        phrases = ["the cat", "the car"]
        alphabet = [SPACE] + sorted(set("thecar"))
        g = build_grammar(phrases, 1.0)
        s = build_speller(["the", "cat", "car"], alphabet)
        from ctxseq.fst import _minimize

        d = _determinize(_compose(s, g))
        _annotate(d, 1.0)
        m = _minimize(d)
        assert m.n_states <= d.n_states

    def test_grapheme_outside_alphabet(self):
        with pytest.raises(ValueError, match="grapheme 'd' of word 'dog' outside the alphabet"):
            compile_context(["cat", "the dog"], CAT_ALPHABET + ["h", "e"], END_OF_WORD, 1.0)


def _render_words(labels) -> list[str] | None:
    """Word list if the label string is a complete spelled sequence, else None."""
    words, cur = [], []
    for lab in labels:
        if lab == SPACE:
            if not cur:
                return None
            words.append("".join(cur))
            cur = []
        else:
            cur.append(lab)
    return None if cur else words


class TestApplyStrategy:
    def _cat(self, strategy, bonus=3.0):
        return compile_context(["cat"], CAT_ALPHABET, strategy, bonus)

    def _path_weights(self, machine, labels):
        state, out = machine.start, []
        for lab in labels:
            arc = next(a for a in machine.out(state) if a.ilabel == lab)
            out.append(arc.weight)
            state = arc.dst
        return out, state

    def test_end_of_word_places_bonus_on_final_grapheme(self):
        weights, _ = self._path_weights(self._cat(END_OF_WORD), ["c", "a", "t", SPACE])
        assert weights == [0.0, 0.0, 3.0, 0.0]

    def test_beginning_of_word_places_bonus_on_first_grapheme(self):
        weights, _ = self._path_weights(self._cat(BEGINNING_OF_WORD), ["c", "a", "t", SPACE])
        assert weights == [3.0, 0.0, 0.0, 0.0]

    def test_every_subword_spreads_with_failure_refunds(self):
        m = self._cat(EVERY_SUBWORD)
        weights, _ = self._path_weights(m, ["c", "a", "t", SPACE])
        assert weights == [1.0, 1.0, 1.0, 0.0]
        refunds = {}
        state = m.start
        for lab in ["c", "a", "t"]:
            arc = next(a for a in m.out(state) if a.ilabel == lab)
            state = arc.dst
            fail = next(a for a in m.out(state) if a.ilabel == "<fail>")
            refunds[lab] = fail.weight
        assert refunds == {"c": -1.0, "a": -2.0, "t": 0.0}

    def test_complete_phrase_path_total_matches_end_of_word(self):
        for phrases in (["cat"], ["the cat"], ["a", "ab"], ["a b", "b"]):
            alphabet = [SPACE] + sorted({ch for p in phrases for ch in p if ch != " "})
            reference = None
            for strategy in STRATEGIES:
                m = compile_context(phrases, alphabet, strategy, 2.0)
                totals = []
                for p in phrases:
                    labels = [ch if ch != " " else SPACE for ch in p] + [SPACE]
                    weights, end = self._path_weights(m, labels)
                    assert end == m.start
                    totals.append(sum(weights))
                if reference is None:
                    reference = totals
                assert totals == pytest.approx(reference), strategy

    def test_compile_context_calls_each_stage_once(self, monkeypatch):
        calls = {"compose_det_min": 0, "apply_strategy": 0}

        def counting(name):
            inner = getattr(fst, name)

            def wrapper(*args):
                calls[name] += 1
                return inner(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(fst, name, counting(name))
        compile_context(["the cat", "cat"], CAT_ALPHABET + ["h", "e"], EVERY_SUBWORD, 1.0)
        assert calls == {"compose_det_min": 1, "apply_strategy": 1}

    def test_requires_deterministic_annotated_input(self):
        c = compose_det_min(build_grammar(["cat"], 1.0), CAT_ALPHABET)
        with pytest.raises(ValueError, match="strategy"):
            apply_strategy(c, "bogus")


class TestScoreStep:
    def test_cat_increments_every_subword(self):
        scorer = FusionScorer(compile_context(["cat"], CAT_ALPHABET, EVERY_SUBWORD, 3.0))
        total, incs = scorer.score_string(["c", "a", "t", SPACE])
        assert incs == [1.0, 1.0, 1.0, 0.0]
        assert total == 3.0

    def test_car_abandons_to_zero(self):
        scorer = FusionScorer(compile_context(["cat"], CAT_ALPHABET, EVERY_SUBWORD, 3.0))
        total, incs = scorer.score_string(["c", "a", "r", SPACE])
        assert incs == [1.0, 1.0, -2.0, 0.0]
        assert total == 0.0

    def test_restart_allows_match_from_any_position(self):
        # 'ab' begins mid-way through 'cab'
        scorer = FusionScorer(compile_context(["ab"], CAT_ALPHABET + ["b"], EVERY_SUBWORD, 2.0))
        total, _ = scorer.score_string(["c", "a", "b", SPACE])
        assert total == 2.0

    def test_deterministic_successor(self):
        scorer = FusionScorer(compile_context(["a b", "ab"], AB_ALPHABET, EVERY_SUBWORD, 1.0))
        for state in range(scorer.machine.n_states):
            for lab in AB_ALPHABET + ["z"]:
                first = scorer.score_step(state, lab)
                assert first == scorer.score_step(state, lab)


ADVERSARIAL_PHRASE_SETS = [
    ["a"],
    ["ab"],
    ["a", "ab"],
    ["a b"],
    ["a b", "b"],
    ["a", "a b"],
    ["ab", "ba"],
    ["aa", "ab"],
    ["a a"],
    ["b a b", "ba"],
    ["aab", "b"],
    ["a", "b", "ab", "ba", "aa"],
]


def check_oracle_equivalence(phrases, labels, bonus=2.0, scorers=None):
    """Cumulative scorer totals must track the string-scanning oracle's
    started/completed word counts at every position (after refund)."""
    events = fusion_events(list(labels), phrases)
    for strategy in STRATEGIES:
        if scorers is None:
            scorer = FusionScorer(compile_context(phrases, AB_ALPHABET, strategy, bonus))
        else:
            scorer = scorers[strategy]
        state, cum = scorer.start, 0.0
        for i, lab in enumerate(labels):
            state, inc = scorer.score_step(state, lab)
            cum += inc
            starts, comps = events[i]
            expected = bonus * (starts if strategy == BEGINNING_OF_WORD else comps)
            net = cum + scorer.finish(state)
            assert abs(net - expected) <= 1e-9, (
                f"{strategy} {phrases} {labels[: i + 1]}: net {net} != {expected}"
            )
            if lab == SPACE and strategy == EVERY_SUBWORD:
                assert scorer.finish(state) == 0.0  # pending clears at boundaries


class TestOracleEquivalence:
    @pytest.mark.parametrize("phrases", ADVERSARIAL_PHRASE_SETS, ids=lambda p: "+".join(p))
    def test_exhaustive_short_strings(self, phrases):
        scorers = {
            s: FusionScorer(compile_context(phrases, AB_ALPHABET, s, 2.0)) for s in STRATEGIES
        }
        for n in range(6):
            for labels in itertools.product(AB_ALPHABET, repeat=n):
                check_oracle_equivalence(phrases, labels, scorers=scorers)

    def test_randomized_longer_strings(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            n_phr = int(rng.integers(1, 5))
            phrases = []
            for _ in range(n_phr):
                n_words = int(rng.integers(1, 3))
                words = [
                    "".join(rng.choice(["a", "b"], size=rng.integers(1, 4)))
                    for _ in range(n_words)
                ]
                phrases.append(" ".join(words))
            phrases = sorted(set(phrases))
            labels = [AB_ALPHABET[i] for i in rng.integers(0, 3, size=rng.integers(0, 12))]
            check_oracle_equivalence(phrases, labels)


def context_bytes(machine) -> bytes:
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "ctx.txt"
        save_context(path, machine)
        return path.read_bytes()


def assert_matches_reference(phrases, alphabet, bonus=2.0):
    """`compile_context` writes the same bytes as the product-construction
    reference compiler, under every strategy."""
    g = build_grammar(phrases, bonus)
    s = build_speller(sorted({w for p in phrases for w in normalize(p).split()}), alphabet)
    reference = reference_compose_det_min(s, g)
    for strategy in STRATEGIES:
        ours = context_bytes(compile_context(phrases, alphabet, strategy, bonus))
        assert ours == context_bytes(apply_strategy(reference, strategy)), (phrases, strategy)


_abc_words = st.text("abc", min_size=1, max_size=3)
_abc_phrases = st.lists(_abc_words, min_size=1, max_size=4).map(" ".join)


class TestReferenceCompiler:
    @pytest.mark.parametrize("phrases", ADVERSARIAL_PHRASE_SETS, ids=lambda p: "+".join(p))
    def test_adversarial_sets(self, phrases):
        assert_matches_reference(phrases, AB_ALPHABET)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_abc_phrases, min_size=1, max_size=6))
    def test_random_lists(self, phrases):
        assert_matches_reference(phrases, [SPACE, "a", "b", "c"], bonus=1.5)

    def test_talkto_list(self, tmp_path):
        cfg = SyntheticTaskConfig(seed=1, n_train=1, n_dev=1, n_test=1, talkto_utterances=1)
        corpus = generate_corpus(cfg, tmp_path)
        phrases = read_manifest(corpus.manifests["test_talkto"])[0].bias_phrases
        assert len(phrases) == 520
        assert_matches_reference(phrases, [SPACE] + list(cfg.alphabet), bonus=1.0)


class TestSerialization:
    def test_round_trip_identical_bytes(self, tmp_path):
        m = compile_context(["the cat", "cat"], CAT_ALPHABET + ["h", "e"], EVERY_SUBWORD, 1.5)
        p1, p2 = tmp_path / "c1.ctx", tmp_path / "c2.ctx"
        save_context(p1, m)
        save_context(p2, load_context(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_recompile_identical_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.ctx", tmp_path / "b.ctx"
        save_context(p1, compile_context(["cat", "car"], CAT_ALPHABET, END_OF_WORD, 2.0))
        save_context(p2, compile_context(["cat", "car"], CAT_ALPHABET, END_OF_WORD, 2.0))
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_scores_match_in_memory(self, tmp_path):
        phrases = ["a b", "ab", "b"]
        m = compile_context(phrases, AB_ALPHABET, EVERY_SUBWORD, 2.0)
        path = tmp_path / "ctx.txt"
        save_context(path, m)
        loaded = FusionScorer(load_context(path))
        mem = FusionScorer(m)
        rng = np.random.default_rng(1)
        for _ in range(100):
            labels = [AB_ALPHABET[i] for i in rng.integers(0, 3, size=rng.integers(0, 10))]
            assert mem.score_string(labels) == loaded.score_string(labels)


def assert_table_matches_reference(m):
    """Every entry of the scorer's table, bit for bit, against a walk of the
    machine; the last column is read through a label outside the alphabet."""
    scorer = FusionScorer(m)
    for state in range(m.n_states):
        for label in m.meta["alphabet"] + ["z"]:
            j = scorer.column.get(label, -1)
            dst, inc = reference_score_step(m, state, label)
            got = (int(scorer.next[state, j]), repr(float(scorer.inc[state, j])))
            assert got == (dst, repr(inc)), (state, label)
        # The refund is what a label that no arc takes pays.
        assert repr(float(scorer.refund[state])) == repr(reference_score_step(m, state, "z")[1])


def load_lines(lines):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "ctx.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return load_context(path)


class TestCompiledTable:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(_abc_phrases, min_size=1, max_size=5), st.sampled_from(STRATEGIES), st.data())
    def test_equals_reference_walk(self, phrases, strategy, data):
        m = compile_context(phrases, [SPACE, "a", "b", "c"], strategy, 1.5)
        assert_table_matches_reference(m)
        # The same machine loaded from a file, with some non-start states'
        # `<fail>` arcs left out (a failing label retries from the start) and
        # some led to other states than the start.
        lines = context_bytes(m).decode("utf-8").splitlines()
        fails = [i for i, ln in enumerate(lines) if ln.split(" ")[1:2] == [FAIL]]
        dropped = data.draw(st.sets(st.sampled_from(fails), min_size=1))
        for i in data.draw(st.sets(st.sampled_from(fails))) - dropped:
            fields = lines[i].split(" ")
            lines[i] = " ".join(fields[:4] + [str(data.draw(st.integers(0, m.n_states - 1)))])
        assert_table_matches_reference(load_lines([ln for i, ln in enumerate(lines) if i not in dropped]))

    def test_loaded_context_without_fail_arcs(self):
        assert_table_matches_reference(load_lines(TWO_STATE_CONTEXT))


_ab_phrases = st.lists(st.text("ab", min_size=1, max_size=3), min_size=1, max_size=2).map(" ".join)

# Failures lead to the dead state 2, where every label costs 1: the table
# reaches a fixed point after two rows, and in states 1 and 2 ending at once
# (the refund alone) beats every label.
DEAD_END_CONTEXT = [
    "CTXSEQ-CONTEXT-1",
    "alphabet <space> a",
    "strategy end-of-word",
    "bonus 1.0",
    "states 3",
    "start 0",
    "finals 0:0.0",
    "0 a <eps> 1.0 1",
    "1 <fail> <eps> 0.5 2",
    "2 <fail> <eps> -1.0 2",
]


class TestGainBound:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(_ab_phrases, min_size=1, max_size=3), st.sampled_from([0.5, 1.0, 2.5]))
    def test_equals_enumeration(self, phrases, bonus):
        for strategy in STRATEGIES:
            m = compile_context(phrases, AB_ALPHABET, strategy, bonus)
            table = FusionScorer(m).gain_bound(4)
            assert table.shape == (5, m.n_states)
            for r in range(5):
                np.testing.assert_allclose(table[r], reference_gain_bound(FusionScorer(m), r), rtol=0, atol=1e-12)
            assert np.all(table[1:] >= table[:-1])
            # The rows do not depend on the horizon asked for.
            assert np.array_equal(FusionScorer(m).gain_bound(2), table[:3])

    @pytest.mark.parametrize("lines", [TWO_STATE_CONTEXT, DEAD_END_CONTEXT], ids=["growing", "fixed-point"])
    def test_loaded_context(self, lines):
        scorer = FusionScorer(load_lines(lines))
        table = scorer.gain_bound(5)
        for r in range(6):
            np.testing.assert_allclose(table[r], reference_gain_bound(scorer, r), rtol=0, atol=1e-12)

    def test_empty_context_gains_nothing(self):
        assert np.array_equal(FusionScorer(fst.Wfst(meta={"strategy": END_OF_WORD})).gain_bound(80), np.zeros((81, 1)))


class TestLoadContextValidation:
    def write(self, tmp_path, lines):
        path = tmp_path / "ctx.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_well_formed_file_loads(self, tmp_path):
        scorer = FusionScorer(load_context(self.write(tmp_path, TWO_STATE_CONTEXT)))
        assert scorer.score_string(["a", SPACE]) == (1.0, [0.5, 0.5])

    def test_arc_to_a_missing_state(self, tmp_path):
        lines = TWO_STATE_CONTEXT[:7] + ["0 a <eps> 0.5 5"]
        with pytest.raises(ValueError, match=r"line 8: arc destination 5 outside \[0, 2\)"):
            load_context(self.write(tmp_path, lines))

    @pytest.mark.parametrize(
        "index, line, message",
        [
            (7, "-1 a <eps> 0.5 1", "arc source -1"),
            (5, "start 2", "start state 2"),
            (6, "finals 3:0.0", "final state 3"),
            (6, "finals 0:inf", "non-finite final weight"),
            (7, "0 a <eps> nan 1", "non-finite line 8: arc weight"),
            (3, "bonus -inf", "non-finite bonus"),
            (7, "0 a <eps> 0.5", "line 8: expected .* got 4 fields"),
            (8, "1 <space> <eps> 0.5 0 0", "line 9: expected .* got 6 fields"),
            (4, "states 0", "declares 0 states"),
            (4, "states 99999999999", "declares 99999999999 states for 2 arcs"),
            (2, "strategy bogus", "unknown strategy 'bogus'"),
            (7, "0 z <eps> 0.5 1", "line 8: arc label 'z' outside the alphabet"),
            (8, "0 a <eps> 9.0 1", "line 9: second arc from state 0 on 'a'"),
        ],
    )
    def test_malformed_line_rejected(self, tmp_path, index, line, message):
        lines = list(TWO_STATE_CONTEXT)
        lines[index] = line
        with pytest.raises(ValueError, match=message):
            load_context(self.write(tmp_path, lines))

    @pytest.mark.parametrize("key", ["alphabet", "strategy", "bonus", "states", "start", "finals"])
    def test_missing_header_key(self, tmp_path, key):
        lines = [ln for ln in TWO_STATE_CONTEXT if ln.partition(" ")[0] != key]
        with pytest.raises(ValueError, match=f"lacks header keys: {key}"):
            load_context(self.write(tmp_path, lines))


def nondeterministic_machine() -> fst.Wfst:
    m = fst.Wfst(meta={"bonus": 1.0})
    end = m.add_state()
    m.add_arc(m.start, "a", "a", 0.0, end)
    m.add_arc(m.start, "a", "b", 0.0, end)
    return m


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: apply_strategy(nondeterministic_machine(), END_OF_WORD),
         "apply_strategy requires a deterministic context model"),
        (lambda: apply_strategy(fst.Wfst(meta={"bonus": 1.0}), END_OF_WORD),
         "context model lacks word-position annotations"),
        (lambda: FusionScorer(compose_det_min(build_grammar(["a"], 1.0), AB_ALPHABET)),
         "scorer needs a strategy-applied context model"),
    ],
    ids=["nondeterministic", "unannotated", "no-strategy"],
)
def test_machine_without_what_a_step_needs_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()
