import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ctxseq import tensor as T
from ctxseq.tensor import NEG_INF, Tape, Tensor

from oracles import (
    add,
    additive_scores,
    concat,
    finite_difference,
    log_softmax,
    max_rel_err,
    mul,
    reference_adam_step,
    reference_additive_attention,
    reference_attention_decoder,
    reference_attend_audio,
    reference_lstm_cell,
    reference_lstm_layer,
    reference_output_log_probs,
    sigmoid,
    softmax,
    sum_,
    tanh,
)


def scalar_loss(t: T.Tensor) -> T.Tensor:
    return sum_(t)


def check_grads(forward, params, tol=1e-6):
    """The taped gradient of `forward()` against central finite differences."""
    with Tape() as tape:
        tape.backward(forward())
    fd = finite_difference(lambda: float(forward().data), params)
    for name, t in params.items():
        assert max_rel_err(t.grad, fd[name]) < tol, name


def weighted(out: Tensor, seed) -> Tensor:
    """A scalar that weighs every entry of `out`; `seed` seeds the weights."""
    w = np.random.default_rng(seed).normal(size=out.shape)
    return sum_(mul(out, T.constant(w)))


def taped_bytes(forward, leaves: dict[str, Tensor]):
    """The bytes of every output and of every leaf gradient of one taped
    run; `forward()` returns (outputs, scalar loss)."""
    for t in leaves.values():
        t.grad[...] = 0.0
    with Tape() as tape:
        outs, loss = forward()
        tape.backward(loss)
    return [o.data.tobytes() for o in outs], {name: t.grad.tobytes() for name, t in leaves.items()}


class TestMatmul:
    def test_identity(self):
        m = T.constant([[2.0, -1.0], [0.5, 3.0]])
        eye = T.constant(np.eye(2))
        assert np.array_equal(T.matmul(eye, m).data, m.data)

    def test_hand_checkable(self):
        out = T.matmul(T.constant([[1.0, 2.0], [3.0, 4.0]]), T.constant([[1.0], [1.0]]))
        assert np.array_equal(out.data, [[3.0], [7.0]])

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 2\)"):
            T.matmul(T.constant(np.zeros((2, 3))), T.constant(np.zeros((2, 2))))

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        a = T.parameter(rng.normal(size=(3, 4)))
        b = T.parameter(rng.normal(size=(4, 2)))

        def loss_fn():
            return float(sum_(tanh(T.matmul(a, b))).data)

        with Tape() as tape:
            loss = sum_(tanh(T.matmul(a, b)))
            tape.backward(loss)
        fd = finite_difference(loss_fn, {"a": a, "b": b})
        assert max_rel_err(a.grad, fd["a"]) < 1e-6
        assert max_rel_err(b.grad, fd["b"]) < 1e-6


class TestElementwise:
    def test_tanh_zero(self):
        assert tanh(T.constant([0.0])).data[0] == 0.0

    def test_sigmoid_zero(self):
        assert sigmoid(T.constant([0.0])).data[0] == 0.5

    def test_tanh_grad_matches_finite_differences(self):
        x = T.parameter([0.3])
        with Tape() as tape:
            tape.backward(sum_(tanh(x)))
        fd = finite_difference(lambda: float(sum_(tanh(x)).data), {"x": x})
        assert max_rel_err(x.grad, fd["x"]) < 1e-8
        assert abs(x.grad[0] - (1.0 - math.tanh(0.3) ** 2)) < 1e-12

    def test_incompatible_shapes(self):
        with pytest.raises(ValueError):
            add(T.constant([1.0, 2.0]), T.constant([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError):
            mul(T.constant([1.0, 2.0]), T.constant([[1.0, 2.0]]))


class TestSoftmax:
    def test_symmetry(self):
        out = softmax(T.constant([0.0, 0.0, 0.0]))
        assert np.allclose(out.data, [1 / 3] * 3, atol=1e-15)

    def test_neg_inf_sentinel_maps_to_exact_zero(self):
        out = softmax(T.constant([2.5, NEG_INF]))
        assert out.data[0] == 1.0 and out.data[1] == 0.0

    def test_direct_formula(self):
        x = np.array([1.0, 2.0, 3.0])
        expected = np.exp(x) / np.exp(x).sum()
        assert np.abs(softmax(T.constant(x)).data - expected).max() < 1e-12

    def test_all_masked_is_an_error(self):
        with pytest.raises(ValueError, match="no unmasked entry"):
            softmax(T.constant([NEG_INF, NEG_INF]))

    @given(st.lists(st.floats(-30, 30), min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_rows_sum_to_one(self, xs):
        out = softmax(T.constant(xs))
        assert abs(out.data.sum() - 1.0) <= 1e-12
        assert (out.data >= 0).all() and (out.data <= 1).all()

    def test_mask_gradient_is_zero_on_masked_entries(self):
        x = T.parameter([0.2, NEG_INF, -0.4])
        with Tape() as tape:
            out = softmax(x)
            tape.backward(sum_(T.gather(out, [0])))
        assert x.grad[1] == 0.0

        def loss_fn():
            return float(sum_(T.gather(softmax(x), [0])).data)

        fd = finite_difference(loss_fn, {"x": x})
        assert max_rel_err(x.grad, fd["x"]) < 1e-6


class TestGather:
    def test_forward_selects_rows_in_order(self):
        m = T.constant([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        assert np.array_equal(T.gather(m, np.array([2, 0, 2])).data, [[5.0, 6.0], [1.0, 2.0], [5.0, 6.0]])
        v = T.constant([7.0, 8.0, 9.0])
        assert np.array_equal(T.gather(v, np.array([1])).data, [8.0])
        assert T.gather(v, np.array([], dtype=int)).data.shape == (0,)

    def test_backward_scatter_adds(self):
        m = T.parameter(np.arange(6.0).reshape(3, 2))
        w = T.constant([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        with Tape() as tape:
            picked = T.gather(m, np.array([2, 0, 2]))
            tape.backward(sum_(mul(picked, w)))
        # row 2 is picked twice, row 1 never
        assert np.array_equal(m.grad, [[3.0, 4.0], [0.0, 0.0], [6.0, 8.0]])

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        m = T.parameter(rng.normal(size=(4, 3)))
        index = np.array([3, 1, 3])

        def forward():
            return sum_(tanh(T.gather(m, index)))

        with Tape() as tape:
            tape.backward(forward())
        fd = finite_difference(lambda: float(forward().data), {"m": m})
        assert max_rel_err(m.grad, fd["m"]) < 1e-6
        assert np.all(m.grad[[0, 2]] == 0.0)

    def test_shape_errors(self):
        with pytest.raises(ValueError, match="1-D/2-D"):
            T.gather(T.constant(np.zeros((2, 2, 2))), np.array([0]))
        with pytest.raises(ValueError, match="1-D index"):
            T.gather(T.constant(np.zeros(3)), np.array([[0]]))


class TestLogSoftmax:
    def test_matches_log_of_softmax(self):
        x = T.constant([0.5, -1.0, 2.0])
        assert np.abs(log_softmax(x).data - np.log(softmax(x).data)).max() < 1e-12

    def test_grad(self):
        x = T.parameter([0.5, -1.0, 2.0])
        with Tape() as tape:
            tape.backward(sum_(T.gather(log_softmax(x), [1])))
        fd = finite_difference(lambda: float(sum_(T.gather(log_softmax(x), [1])).data), {"x": x})
        assert max_rel_err(x.grad, fd["x"]) < 1e-6

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(st.floats(-1e300, 1e300), st.sampled_from([0.0, 5e-324, -745.2, 709.8, 1e300, -1e300])),
            min_size=1,
            max_size=8,
        ),
        st.integers(1, 3),
        st.integers(1, 3),
    )
    def test_never_positive(self, values, repeats, rows):
        # Beam search stops early on this: a model score can only fall.
        # Repeating the values ties entries, the maximum among them.
        x = np.tile(values * repeats, (rows, 1))
        for logits in (x, x[0]):
            assert np.all(log_softmax(T.constant(logits)).data <= 0.0)


class TestLstmCell:
    def _zero_params(self, input_dim, hidden):
        return T.LstmParams(
            w=T.parameter(np.zeros((4 * hidden, input_dim + hidden))),
            b=T.parameter(np.zeros(4 * hidden)),
            hidden=hidden,
        )

    def test_zero_propagation(self):
        p = self._zero_params(3, 2)
        h, c = T.lstm_cell(np.array([[1.0, -2.0, 0.5]]), np.zeros((1, 2)), np.zeros((1, 2)), p)
        assert np.array_equal(h, [[0.0, 0.0]])
        assert np.array_equal(c, [[0.0, 0.0]])

    def test_hand_set_single_unit(self):
        w = np.array([[0.1, 0.2], [0.3, -0.4], [0.5, 0.6], [-0.7, 0.8]])
        b = np.array([0.01, 0.02, 0.03, 0.04])
        p = T.LstmParams(w=T.parameter(w), b=T.parameter(b), hidden=1)
        x, h_prev, c_prev = 0.7, 0.3, 0.4
        h, c = T.lstm_cell(np.array([[x]]), np.array([[h_prev]]), np.array([[c_prev]]), p)

        sig = lambda v: 1.0 / (1.0 + math.exp(-v))
        i = sig(0.1 * x + 0.2 * h_prev + 0.01)
        f = sig(0.3 * x - 0.4 * h_prev + 0.02)
        g = math.tanh(0.5 * x + 0.6 * h_prev + 0.03)
        o = sig(-0.7 * x + 0.8 * h_prev + 0.04)
        c_ref = f * c_prev + i * g
        assert abs(c[0, 0] - c_ref) < 1e-12
        assert abs(h[0, 0] - o * math.tanh(c_ref)) < 1e-12

    def test_forget_bias_initialized_to_one(self):
        p = T.init_lstm_params(np.random.default_rng(0), 3, 4)
        assert np.array_equal(p.b.data[4:8], np.ones(4))
        assert np.array_equal(p.b.data[:4], np.zeros(4))
        assert np.array_equal(p.b.data[8:], np.zeros(8))
        assert np.abs(p.w.data).max() <= 0.05

    def test_dimension_mismatch(self):
        p = self._zero_params(3, 2)
        with pytest.raises(ValueError):
            T.lstm_cell(np.array([[1.0]]), np.zeros((1, 2)), np.zeros((1, 2)), p)

    @pytest.mark.parametrize("rows", [1, 3])
    def test_fused_cell_bit_identical_to_op_chain(self, rows):
        # Two chained cells: the second reads the first one's states.
        rng = np.random.default_rng(30 + rows)
        p = T.init_lstm_params(rng, 3, 4)
        p.w.data[...] = rng.normal(size=p.w.data.shape)
        p.b.data[...] = rng.normal(size=p.b.data.shape)
        x0, x1, h0, c0 = (rng.normal(size=(rows, n)) for n in (3, 3, 4, 4))
        h1, c1 = T.lstm_cell(x0, h0, c0, p)
        h2, c2 = T.lstm_cell(x1, h1, c1, p)
        want_h1, want_c1 = reference_lstm_cell(T.constant(x0), T.constant(h0), T.constant(c0), p)
        want_h2, want_c2 = reference_lstm_cell(T.constant(x1), want_h1, want_c1, p)
        got = [t.tobytes() for t in (h1, c1, h2, c2)]
        assert got == [t.data.tobytes() for t in (want_h1, want_c1, want_h2, want_c2)]


class TestLstmLayer:
    def layer(self, rng, input_dim=3, hidden=4):
        p = T.init_lstm_params(rng, input_dim, hidden)
        p.w.data[...] = rng.normal(size=p.w.data.shape)
        p.b.data[...] = rng.normal(size=p.b.data.shape)
        return p

    @given(
        seed=st.integers(0, 1000),
        lengths=st.lists(st.integers(1, 6), min_size=1, max_size=5),
        table_rows=st.integers(1, 8),
    )
    @settings(max_examples=40, deadline=None)
    @example(seed=1, lengths=[2, 5, 2], table_rows=9)  # unsorted: steps of 3, 3, 1, 1, 1 rows
    @example(seed=2, lengths=[3, 3, 3], table_rows=4)  # tied lengths, rows read more than once
    @example(seed=3, lengths=[1, 1, 1], table_rows=1)  # one-step sequences reading one row
    @example(seed=4, lengths=[1], table_rows=2)
    def test_equals_chain_of_reference_cells(self, seed, lengths, table_rows):
        rng = np.random.default_rng(seed)
        p = self.layer(rng)
        table = T.parameter(rng.normal(size=(table_rows, 3)))
        rows = rng.integers(0, table_rows, size=sum(lengths))
        leaves = {"table": table, "w": p.w, "b": p.b}

        def run(layer):
            for t in leaves.values():
                t.grad[...] = 0.0
            with Tape() as tape:
                out = layer(table, rows, lengths, p)
                tape.backward(weighted(out, seed))
            return out.data, {name: t.grad.copy() for name, t in leaves.items()}

        (got, got_grads), (want, want_grads) = run(T.lstm_layer), run(reference_lstm_layer)
        assert got.shape == (sum(lengths), 4)
        assert np.abs(got - want).max() < 1e-12
        for name, g in got_grads.items():
            assert np.abs(g - want_grads[name]).max() < 1e-12, name

    def test_gradient_check(self):
        rng = np.random.default_rng(34)
        p = self.layer(rng, input_dim=2, hidden=2)
        table = T.parameter(rng.normal(size=(3, 2)))
        rows = [0, 2, 0, 1, 0]  # row 0 read three times, by both sequences
        check_grads(lambda: weighted(T.lstm_layer(table, rows, [2, 3], p), 35), {"table": table, "w": p.w, "b": p.b})

    def test_one_tape_node_and_the_same_values_without_a_tape(self):
        rng = np.random.default_rng(36)
        p = self.layer(rng)
        table = T.constant(rng.normal(size=(6, 3)))
        rows, lengths = np.arange(6), [1, 3, 2]
        with Tape() as tape:
            taped = T.lstm_layer(table, rows, lengths, p)
        assert len(tape) == 1
        assert T.lstm_layer(table, rows, lengths, p).data.tobytes() == taped.data.tobytes()

    # a zero length, no sequence, 5 rows for 6, 7 rows for 6
    @pytest.mark.parametrize("lengths", [[3, 0, 3], [], [2, 3], [4, 3]])
    def test_bad_lengths_rejected(self, lengths):
        p = self.layer(np.random.default_rng(37))
        with pytest.raises(ValueError, match="positive lengths summing to 6 rows"):
            T.lstm_layer(T.constant(np.zeros((2, 3))), [0, 1, 0, 1, 0, 1], lengths, p)

    def test_input_width_must_match(self):
        p = self.layer(np.random.default_rng(38))
        with pytest.raises(ValueError, match="input shape"):
            T.lstm_layer(T.constant(np.zeros((2, 4))), [0, 1], [1, 1], p)


def decoder_case(rng, rows, positions, n_layers, heads, utterances, n_values, n_keys, recorded_cache, targets):
    """(call, leaves) for `attention_decoder` on leaves drawn from `rng`:
    `call(decoder)` runs `decoder(ids, targets, embedding, layers, audio,
    bias, output)` with the (positions, rows) `targets`. Several utterances
    stack their frames and row b reads only one of them; a recorded cache
    is projected from leaf frames on the tape, else the audio keys and
    values are leaves."""
    n_emb, units, dh, adim, zdim, n_vocab = 2, 3, 2, 4, 2, 5
    width = heads * dh + zdim
    lengths = rng.integers(1, 5, size=utterances)
    shapes = {
        "embedding": (n_vocab, n_emb), "wo": (heads * dh, heads * dh), "h_x": (lengths.sum(), 3),
        "wd": (adim, units), "b": (adim,), "bias_keys": (n_keys, adim), "v": (adim,), "h_z": (n_values, zdim),
        "w_out": (n_vocab, width + units), "b_out": (n_vocab,),
    }
    for l in range(n_layers):
        shapes[f"w{l}"] = (4 * units, (n_emb + width if l == 0 else units) + units)
        shapes[f"b{l}"] = (4 * units,)
    for h in range(heads):
        shapes[f"wq{h}"] = (dh, units)
        shapes[f"wk{h}"] = shapes[f"wv{h}"] = (dh, 3)
        shapes[f"keys{h}"] = shapes[f"values{h}"] = (lengths.sum(), dh)
    leaves = {name: T.parameter(rng.normal(size=shape)) for name, shape in shapes.items()}
    layers = [T.LstmParams(leaves[f"w{l}"], leaves[f"b{l}"], units) for l in range(n_layers)]
    ids = rng.integers(0, n_vocab, size=(positions, rows))
    score_of = rng.integers(0, n_keys, size=n_values)
    closed = np.repeat(np.arange(utterances), lengths) != rng.integers(0, utterances, size=(rows, 1))

    def call(decoder):
        def cache(name, w):
            if recorded_cache:
                return [T.matmul_t(leaves["h_x"], leaves[f"{w}{h}"]) for h in range(heads)]
            return [leaves[f"{name}{h}"] for h in range(heads)]

        audio = ([leaves[f"wq{h}"] for h in range(heads)], cache("keys", "wk"), cache("values", "wv"), closed, leaves["wo"])
        bias = (leaves["wd"], leaves["b"], leaves["bias_keys"], leaves["v"], score_of, leaves["h_z"])
        return decoder(ids, targets, leaves["embedding"], layers, audio, bias, (leaves["w_out"], leaves["b_out"]))

    return call, leaves


def decoder_chain(ids, targets, embedding, layers, audio, bias, output) -> Tensor:
    """`attention_decoder` as the chain it fuses: `reference_attention_decoder`,
    `reference_output_log_probs` over its contexts and outputs, and the
    negated sum of the log-probabilities times one-hot `targets`, each its
    own tape node."""
    contexts, outputs = reference_attention_decoder(ids, embedding, layers, audio, bias)
    log_probs = reference_output_log_probs([contexts, outputs], *output)
    flat = targets.reshape(-1)
    hit = np.flatnonzero(flat >= 0)
    picks = np.zeros(log_probs.shape)
    picks[hit, flat[hit]] = 1.0
    return T.scale(sum_(mul(log_probs, T.constant(picks))), -1.0)


class TestAttentionDecoder:
    """The teacher-forced decoder, its output layer and its loss are one
    tape node whose loss and gradients match the chain it replaced
    (`decoder_chain`: the per-position chain of per-step ops, the output
    layer's chain and the picked sum) up to rounding."""

    @given(
        seed=st.integers(0, 10_000),
        rows=st.integers(1, 4),
        positions=st.integers(1, 4),
        n_layers=st.integers(1, 2),
        heads=st.integers(1, 2),
        utterances=st.integers(1, 3),
        n_values=st.integers(1, 4),
        n_keys=st.integers(1, 3),
        recorded_cache=st.booleans(),
        targets=st.lists(st.integers(-1, 4), min_size=16, max_size=16),
    )
    @settings(max_examples=40, deadline=None)
    @example(seed=1, rows=3, positions=4, n_layers=2, heads=2, utterances=2, n_values=4, n_keys=2,
             recorded_cache=True, targets=[1, 2, 0, 3, -1, 4, 2, -1, -1, 0, -1, -1] + [0] * 4)
    def test_equals_per_position_chain(
        self, seed, rows, positions, n_layers, heads, utterances, n_values, n_keys, recorded_cache, targets
    ):
        # The first positions·rows drawn targets, position by position; -1
        # pads a row's position, and may pad every one.
        rng = np.random.default_rng(seed)
        targets = np.array(targets[: positions * rows]).reshape(positions, rows)
        call, leaves = decoder_case(
            rng, rows, positions, n_layers, heads, utterances, n_values, n_keys, recorded_cache, targets
        )

        def run(decoder):
            for t in leaves.values():
                t.grad[...] = 0.0
            with Tape() as tape:
                loss = call(decoder)
                tape.backward(T.scale(loss, 0.5))  # a loss gradient other than 1, as a batch mean gives
            return float(loss.data), {name: t.grad.copy() for name, t in leaves.items()}

        (got, got_grads), (want, want_grads) = run(T.attention_decoder), run(decoder_chain)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
        for name, g in got_grads.items():
            w = want_grads[name]
            assert np.abs(g - w).max() <= 1e-12 * max(1.0, np.abs(w).max()), name

    def test_one_tape_node_and_the_same_values_without_a_tape(self):
        rng = np.random.default_rng(44)
        call, _ = decoder_case(rng, 3, 4, 2, 2, 2, 3, 2, recorded_cache=False, targets=rng.integers(-1, 5, size=(4, 3)))
        with Tape() as tape:
            taped = call(T.attention_decoder)
        assert len(tape) == 1 and taped.shape == ()
        assert call(T.attention_decoder).data.tobytes() == taped.data.tobytes()


def additive_case(rng, rows, n_values, n_keys):
    """(query, wd, b, keys, v, values) for `additive_attention`, drawn from
    `rng`: the parameters wd, b and v are `Tensor`s, the rest arrays."""
    shapes = ((rows, 3), (4, 3), (4,), (n_keys, 4), (4,), (n_values, 3))
    query, wd, b, keys, v, values = (rng.normal(size=shape) for shape in shapes)
    return query, T.constant(wd), T.constant(b), keys, T.constant(v), values


def additive_chain(query, wd, b, keys, v, score_of, closed, values):
    """`reference_additive_attention` on `additive_attention`'s arguments:
    its (context, alpha) as arrays."""
    c = T.constant
    context, alpha = reference_additive_attention(c(query), wd, b, c(keys), v, score_of, closed, c(values))
    return context.data, alpha.data


class TestFusedLayers:
    """The beam's audio and bias attentions and its output layer give the
    values, byte for byte, of the op chains in `tests/oracles.py`."""

    @given(
        seed=st.integers(0, 10_000),
        rows=st.integers(1, 16),
        heads=st.integers(1, 2),
        utterances=st.integers(1, 3),
        chained=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_multi_head_attention_bit_identical_to_op_chain(self, seed, rows, heads, utterances, chained):
        # Several utterances stack their frames and row b reads only its
        # own (the `closed` mask). Chained, the first output is also the
        # query of a second call.
        rng = np.random.default_rng(seed)
        width, dh = 3, 2
        lengths = rng.integers(1, 6, size=utterances)
        query = rng.normal(size=(rows, width))
        wo = T.constant(rng.normal(size=(width, heads * dh)))
        wq = [T.constant(rng.normal(size=(dh, width))) for _ in range(heads)]
        keys, values = ([T.constant(rng.normal(size=(lengths.sum(), dh))) for _ in range(heads)] for _ in range(2))
        closed = np.repeat(np.arange(utterances), lengths) != rng.integers(0, utterances, size=(rows, 1))
        got = [T.multi_head_attention(query, wq, keys, values, closed, wo)]
        want = [reference_attend_audio(T.constant(query), wq, keys, values, closed, wo)]
        if chained:
            got.append(T.multi_head_attention(got[0], wq, keys, values, closed, wo))
            want.append(reference_attend_audio(want[0], wq, keys, values, closed, wo))
        assert [o.tobytes() for o in got] == [o.data.tobytes() for o in want]

    @given(
        seed=st.integers(0, 10_000),
        rows=st.integers(1, 16),
        n_values=st.integers(1, 8),
        n_keys=st.integers(1, 4),
        chained=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_additive_attention_bit_identical_to_op_chain(self, seed, rows, n_values, n_keys, chained):
        # Value rows share keys through `score_of`, and nothing is closed
        # (`TestOpenPairScores` closes entries). Chained, the first context
        # is the query of a second call.
        rng = np.random.default_rng(seed)
        query, wd, b, keys, v, values = additive_case(rng, rows, n_values, n_keys)
        score_of = rng.integers(0, n_keys, size=n_values)
        closed = np.zeros((rows, n_values), dtype=bool)
        args = (wd, b, keys, v, score_of, closed, values)
        got = list(T.additive_attention(query, *args))
        want = list(additive_chain(query, *args))
        if chained:
            got.extend(T.additive_attention(got[0], *args))
            want.extend(additive_chain(want[0], *args))
        assert [o.tobytes() for o in got] == [o.tobytes() for o in want]

    @given(seed=st.integers(0, 10_000), rows=st.integers(1, 16))
    @settings(max_examples=40, deadline=None)
    def test_output_layer_bit_identical_to_op_chain(self, seed, rows):
        # Its gradients are checked through `attention_decoder`, above, and
        # `forward_loss`, in test_model.py.
        rng = np.random.default_rng(seed)
        c, d, w, b = (rng.normal(size=shape) for shape in ((rows, 2), (rows, 3), (4, 5), (4,)))
        w, b = T.constant(w), T.constant(b)
        got = T.output_layer(np.concatenate([c, d], axis=-1), w, b)
        assert got.tobytes() == reference_output_log_probs([T.constant(c), T.constant(d)], w, b).data.tobytes()

    def test_forward_only_bias_attention_bounds_its_tanh_block(self):
        # A decode step holds no tape, so the (B, U, A) tanh block is made
        # _SCORE_ROWS query rows at a time: here the whole block would be
        # 4 MiB, and a block of 8 of the 64 rows and its tanh take 1 MiB.
        rng = np.random.default_rng(42)
        rows, n_keys, adim = 64, 256, 32
        query, wd, b, keys, v, values = (
            rng.normal(size=shape) for shape in ((rows, 8), (adim, 8), (adim,), (n_keys, adim), (adim,), (n_keys, 4))
        )
        wd, b, v = T.constant(wd), T.constant(b), T.constant(v)
        score_of, closed = np.arange(n_keys), np.zeros((rows, n_keys), dtype=bool)
        tracemalloc.start()
        try:
            T.additive_attention(query, wd, b, keys, v, score_of, closed, values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < rows * n_keys * adim * 8 / 2


class CountingTanh:
    """Stands in for numpy in `tensor` and counts the vectors `np.tanh` is
    given along their last axis: each is one (query row, key) pair scored."""

    def __init__(self):
        self.pairs = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def tanh(self, x, *args, **kwargs):
        self.pairs += x.size // x.shape[-1]
        return np.tanh(x, *args, **kwargs)


def open_pairs(score_of, closed) -> int:
    """The (query row, key) pairs that some entry open for the row reads."""
    return len({(b, score_of[r]) for b, r in zip(*np.nonzero(~closed))})


class TestOpenPairScores:
    """When some entry is closed, the bias attention scores each query row
    only against the keys of its own open entries. Its values may differ
    from the op chain's in the last bits; with nothing closed they keep
    them."""

    @given(
        seed=st.integers(0, 10_000),
        rows=st.integers(1, 20),
        n_values=st.integers(1, 12),
        n_keys=st.integers(1, 6),
        p_closed=st.sampled_from([0.0, 0.3, 0.8, 1.0]),
    )
    @settings(max_examples=80, deadline=None)
    def test_scores_only_the_pairs_open_for_their_own_row(self, seed, rows, n_values, n_keys, p_closed):
        rng = np.random.default_rng(seed)
        query, wd, b, keys, v, values = additive_case(rng, rows, n_values, n_keys)
        score_of = rng.integers(0, n_keys, size=n_values)  # some keys may be read by no entry
        closed = rng.random((rows, n_values)) < p_closed
        closed[:, 0] = False
        counter = CountingTanh()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(T, "np", counter)
            context, alpha = T.additive_attention(query, wd, b, keys, v, score_of, closed, values)
        want = open_pairs(score_of, closed) if closed.any() else rows * n_keys
        assert counter.pairs == want
        assert np.all(alpha[closed] == 0.0)
        assert np.abs(alpha.sum(axis=1) - 1.0).max() <= 1e-15
        want_context, want_alpha = additive_chain(query, wd, b, keys, v, score_of, closed, values)
        assert np.abs(alpha - want_alpha).max() <= 1e-15
        assert np.abs(context - want_context).max() <= 1e-14

    @given(
        seed=st.integers(0, 10_000),
        rows=st.integers(1, 40),
        n_values=st.integers(2, 40),
        n_keys=st.integers(1, 30),
        p_closed=st.sampled_from([0.3, 0.8, 1.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_open_softmax_across_score_chunks(self, seed, rows, n_values, n_keys, p_closed):
        # The open cells' segments span several `_SCORE_ROWS` chunks of
        # scored pairs. With nothing closed the dense softmax runs, whose
        # bits the op chain's tests check.
        rng = np.random.default_rng(seed)
        query, wd, b, keys, v, values = additive_case(rng, rows, n_values, n_keys)
        score_of = rng.integers(0, n_keys, size=n_values)
        closed = rng.random((rows, n_values)) < p_closed
        closed[:, 0] = False
        assume(closed.any())
        counter = CountingTanh()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(T, "np", counter)
            context, alpha = T.additive_attention(query, wd, b, keys, v, score_of, closed, values)
        assert counter.pairs == open_pairs(score_of, closed)
        assert np.all(alpha[closed] == 0.0)
        assert np.abs(alpha.sum(axis=1) - 1.0).max() <= 1e-15
        want_context, want_alpha = additive_chain(query, wd, b, keys, v, score_of, closed, values)
        assert np.abs(alpha - want_alpha).max() <= 1e-15
        assert np.abs(context - want_context).max() <= 1e-14

    def test_open_entries_of_one_key_share_their_weight(self):
        # Row 0's open entries 0, 2 and 3 all read key 1: equal scores, so
        # exactly equal weights. Row 1 reads keys 1 and 2.
        rng = np.random.default_rng(44)
        query, wd, b, keys, v, values = additive_case(rng, 2, 4, 3)
        score_of, closed = np.array([1, 2, 1, 1]), np.array([[0, 1, 0, 0], [0, 0, 1, 1]], dtype=bool)
        context, alpha = T.additive_attention(query, wd, b, keys, v, score_of, closed, values)
        assert alpha[0].tolist() == [1 / 3, 0.0, 1 / 3, 1 / 3]
        assert alpha[1, 0] != alpha[1, 1] and alpha[1, 2:].tolist() == [0.0, 0.0]
        want_context, want_alpha = additive_chain(query, wd, b, keys, v, score_of, closed, values)
        assert np.abs(alpha - want_alpha).max() <= 1e-15
        assert np.abs(context - want_context).max() <= 1e-14

    @pytest.mark.parametrize(
        "score_of, closed",
        [
            # Key 1 is read by no entry, and key 3 only by a closed one.
            ([0, 2, 2, 3], [[0, 0, 0, 1], [0, 1, 0, 1]]),
            # Key 1 is open for row 0 through entry 1 and closed through entry 2.
            ([0, 1, 1, 2], [[0, 0, 1, 1], [0, 1, 0, 0]]),
            # Row 1's only open entry is entry 0 (no-bias).
            ([0, 1, 2, 1], [[0, 0, 1, 0], [0, 1, 1, 1]]),
            # A plain list closes nothing: every key is scored against every
            # row, as the chain scores them, and the bits are the chain's.
            ([0, 1, 2, 1], [[0, 0, 0, 0], [0, 0, 0, 0]]),
        ],
        ids=["unread-key", "key-open-and-closed-in-one-row", "only-no-bias-open", "nothing-closed"],
    )
    def test_edge_cases_equal_reference(self, score_of, closed):
        rng = np.random.default_rng(43)
        query, wd, b, keys, v, values = additive_case(rng, 2, 4, 4)
        score_of, closed = np.array(score_of), np.array(closed, dtype=bool)
        context, alpha = T.additive_attention(query, wd, b, keys, v, score_of, closed, values)
        want_context, want_alpha = additive_chain(query, wd, b, keys, v, score_of, closed, values)
        assert np.all(alpha[closed] == 0.0) and np.all(want_alpha[closed] == 0.0)
        assert np.abs(alpha - want_alpha).max() <= 1e-15
        assert np.abs(context - want_context).max() <= 1e-14
        if not closed.any():
            assert np.array_equal(alpha, want_alpha) and np.array_equal(context, want_context)


class TestRowwiseOps:
    """The row-wise ops on (B, D) inputs: each row equals the op on that row
    alone, and the backward matches central finite differences."""

    def test_concat_and_gather_columns(self):
        rng = np.random.default_rng(20)
        a = T.parameter(rng.normal(size=(3, 2)))
        b = T.parameter(rng.normal(size=(3, 4)))
        out = concat([a, b])
        columns = np.arange(1, 4)
        assert np.array_equal(out.data[1], concat([T.constant(a.data[1]), T.constant(b.data[1])]).data)
        assert np.array_equal(T.gather(out, columns, axis=-1).data, out.data[:, 1:4])
        check_grads(lambda: weighted(T.gather(concat([a, b]), columns, axis=-1), 1), {"a": a, "b": b})
        assert np.all(a.grad[:, 0] == 0.0) and np.all(b.grad[:, 2:] == 0.0)
        with pytest.raises(ValueError, match="all 1-D or all 2-D"):
            concat([a, T.constant(np.zeros(2))])

    def test_softmax_rows_with_different_dropped_entries(self):
        x = T.parameter([[0.2, NEG_INF, -0.4, 1.0], [NEG_INF, 0.5, 0.3, NEG_INF], [0.1, 0.2, 0.3, 0.4]])
        out = softmax(x)
        for row, got in zip(x.data, out.data):
            kept = row != NEG_INF
            e = np.exp(row[kept] - row[kept].max())
            assert np.abs(got[kept] - e / e.sum()).max() < 1e-15
            assert np.all(got[~kept] == 0.0)
        check_grads(lambda: weighted(softmax(x), 2), {"x": x})
        assert np.all(x.grad[x.data == NEG_INF] == 0.0)
        with pytest.raises(ValueError, match="no unmasked entry"):
            softmax(T.constant([[0.0, 1.0], [NEG_INF, NEG_INF]]))

    @given(data=st.data(), rows=st.integers(1, 5), width=st.integers(1, 8))
    @settings(max_examples=200, deadline=None)
    def test_masked_entry_gets_zero_weight_and_zero_gradient(self, data, rows, width):
        # Why no backward helper masks its softmax gradient: a -inf logit
        # gets a weight of exactly 0, so `_softmax_grad` gives it an exact
        # zero for any finite output gradient.
        finite = st.floats(-1e6, 1e6)
        x = data.draw(hnp.arrays(np.float64, (rows, width), elements=finite))
        g = data.draw(hnp.arrays(np.float64, (rows, width), elements=finite))
        masked = data.draw(hnp.arrays(bool, (rows, width)))
        keep = data.draw(hnp.arrays(np.intp, rows, elements=st.integers(0, width - 1)))
        masked[np.arange(rows), keep] = False  # every row keeps an entry
        x[masked] = NEG_INF
        od = T._softmax(x)
        assert np.all(od[masked] == 0.0)
        assert np.all(T._softmax_grad(g, od)[masked] == 0.0)

    def test_log_softmax_rows(self):
        x = T.parameter(np.random.default_rng(21).normal(size=(3, 5)))
        out = log_softmax(x)
        for row, got in zip(x.data, out.data):
            assert np.array_equal(got, log_softmax(T.constant(row)).data)
        check_grads(lambda: weighted(log_softmax(x), 3), {"x": x})

    def test_lstm_cell_rows(self):
        rng = np.random.default_rng(22)
        p = T.init_lstm_params(rng, 3, 2)
        p.w.data[...] = rng.normal(size=p.w.data.shape)
        x, h0, c0 = (rng.normal(size=(4, n)) for n in (3, 2, 2))
        h, c = T.lstm_cell(x, h0, c0, p)
        for i in range(4):
            hi, ci = T.lstm_cell(x[i : i + 1], h0[i : i + 1], c0[i : i + 1], p)
            assert np.abs(h[i] - hi[0]).max() < 1e-15
            assert np.abs(c[i] - ci[0]).max() < 1e-15
        with pytest.raises(ValueError, match="state shapes"):
            T.lstm_cell(x, np.zeros(2), np.zeros(2), p)

    @pytest.mark.parametrize("rows", [1, 3])  # the two weight-gradient forms
    def test_matmul_t(self, rows):
        rng = np.random.default_rng(23)
        x = T.parameter(rng.normal(size=(rows, 4)))
        w = T.parameter(rng.normal(size=(5, 4)))
        assert np.abs(T.matmul_t(x, w).data - x.data @ w.data.T).max() < 1e-14
        check_grads(lambda: weighted(T.matmul_t(x, w), 6), {"x": x, "w": w})
        with pytest.raises(ValueError, match="dimension mismatch"):
            T.matmul_t(x, T.constant(np.zeros((5, 3))))

    @pytest.mark.parametrize("rows", [1, 3])
    def test_additive_scores(self, rows):
        rng = np.random.default_rng(24)
        keys = T.parameter(rng.normal(size=(4, 2)))
        query = T.parameter(rng.normal(size=(rows, 2)))
        v = T.parameter(rng.normal(size=2))
        out = additive_scores(keys, query, v)
        for q, got in zip(query.data, out.data):
            assert np.abs(got - np.tanh(keys.data + q) @ v.data).max() < 1e-15
        params = {"keys": keys, "query": query, "v": v}
        check_grads(lambda: weighted(additive_scores(keys, query, v), 7), params)

    @pytest.mark.parametrize("rows", [1, 8, 21])
    def test_additive_scores_forward_only_equals_taped(self, rows):
        # The beam's scores are made a few query rows at a time, and each
        # row keeps the bits of the whole tanh block that training makes;
        # so with nothing closed additive_attention keeps the op chain's
        # bits. With some entry closed it scores only each row's open pairs
        # instead: closed entries are exactly 0 on both paths, and the rest
        # may differ in the last bits.
        rng = np.random.default_rng(26)
        keys, query, v = (rng.normal(size=shape) for shape in ((5, 6), (rows, 6), (6,)))
        assert np.array_equal(T._tanh_scores(keys, query, v), T._tanh_block(keys, query, v)[0])
        wd, b, values = (rng.normal(size=shape) for shape in ((6, 6), (6,), (7, 3)))
        wd, b, v = T.constant(wd), T.constant(b), T.constant(v)
        score_of = rng.integers(0, 5, size=7)
        some_closed = rng.random((rows, 7)) < 0.3
        some_closed[:, 0] = False
        assert some_closed.any()
        for closed in (np.zeros_like(some_closed), some_closed):
            got = T.additive_attention(query, wd, b, keys, v, score_of, closed, values)
            want = additive_chain(query, wd, b, keys, v, score_of, closed, values)
            if not closed.any():
                assert all(np.array_equal(g, w) for g, w in zip(got, want))
            assert np.all(got[1][closed] == 0.0) and np.all(want[1][closed] == 0.0)
            assert np.abs(got[1] - want[1]).max() <= 1e-15
            assert np.abs(got[0] - want[0]).max() <= 1e-14

    def test_gather_last_axis(self):
        m = T.parameter(np.random.default_rng(25).normal(size=(2, 3)))
        index = np.array([2, 2, 0])
        assert np.array_equal(T.gather(m, index, axis=-1).data, m.data[:, index])
        check_grads(lambda: weighted(T.gather(m, index, axis=-1), 8), {"m": m})
        assert np.all(m.grad[:, 1] == 0.0)
        with pytest.raises(ValueError, match="axis 0 or -1"):
            T.gather(m, index, axis=1)

    def test_stack_rows_and_blocks(self):
        rng = np.random.default_rng(26)
        r = T.parameter(rng.normal(size=3))
        blk = T.parameter(rng.normal(size=(2, 3)))
        out = T.stack([blk, r, blk])
        assert np.array_equal(out.data, np.vstack([blk.data, r.data, blk.data]))
        check_grads(lambda: weighted(T.stack([blk, r, blk]), 9), {"r": r, "blk": blk})
        with pytest.raises(ValueError, match="row shape mismatch"):
            T.stack([r, T.constant(np.zeros((2, 4)))])


class TestBackward:
    def test_sum_of_matvec(self):
        w = T.parameter([[1.0, 2.0], [3.0, 4.0]])
        x = T.constant([[5.0, 6.0]])
        with Tape() as tape:
            tape.backward(sum_(T.matmul_t(x, w)))
        assert np.array_equal(w.grad, [[5.0, 6.0], [5.0, 6.0]])

    def test_two_layer_tanh_net(self):
        rng = np.random.default_rng(11)
        w1 = T.parameter(rng.normal(size=(4, 3)) * 0.5)
        b1 = T.parameter(rng.normal(size=4) * 0.1)
        w2 = T.parameter(rng.normal(size=(2, 4)) * 0.5)
        x = T.constant(rng.normal(size=(1, 3)))

        def forward():
            hidden = tanh(add(T.matmul_t(x, w1), b1))
            return sum_(tanh(T.matmul_t(hidden, w2)))

        with Tape() as tape:
            tape.backward(forward())
        params = {"w1": w1, "b1": b1, "w2": w2}
        fd = finite_difference(lambda: float(forward().data), params)
        for name, t in params.items():
            assert max_rel_err(t.grad, fd[name]) < 1e-5

    def test_disconnected_parameter_has_zero_grad(self):
        used = T.parameter([1.0, 2.0])
        unused = T.parameter([3.0])
        with Tape() as tape:
            tape.backward(sum_(tanh(used)))
        assert np.array_equal(unused.grad, [0.0])

    def test_non_scalar_loss_is_an_error(self):
        x = T.parameter([1.0, 2.0])
        with Tape() as tape:
            out = tanh(x)
            with pytest.raises(ValueError, match="scalar"):
                tape.backward(out)

    def test_backward_visits_reverse_order(self):
        x = T.parameter([2.0])
        with Tape() as tape:
            a = T.scale(x, 3.0)
            b = tanh(a)
            loss = sum_(b)
            tape.backward(loss)
        fd = finite_difference(lambda: float(sum_(tanh(T.scale(x, 3.0))).data), {"x": x})
        assert max_rel_err(x.grad, fd["x"]) < 1e-6


class TestGradientBuffers:
    """Recorded outputs get a gradient buffer on first write and lose it once
    their node has run; a leaf weight's gradient gets the `g.T @ x` GEMM of
    each use, added in the backward of the node that uses it."""

    @given(
        seed=st.integers(0, 1000),
        rows=st.lists(st.integers(1, 4), min_size=1, max_size=5),
        lengths=st.lists(st.integers(1, 4), min_size=1, max_size=4),
        uses=st.integers(1, 4),
    )
    @example(seed=5, rows=[3], lengths=[3, 3, 1], uses=1)  # one use per weight, as in a training step
    @settings(max_examples=40, deadline=None)
    def test_leaf_weight_gradient_is_the_sum_over_uses(self, seed, rows, lengths, uses):
        # `uses` LSTM layers share one weight, each reading the last one's
        # output, as the weight of a `matmul_t` is shared by its calls.
        rng = np.random.default_rng(seed)
        w = T.parameter(rng.normal(size=(3, 4)))
        xs = [rng.normal(size=(n, 4)) for n in rows]
        gs = [rng.normal(size=(n, 3)) for n in rows]  # d loss / d (x @ w.T) of each use
        p = T.init_lstm_params(rng, 3, 3)
        p.w.data[...] = rng.normal(size=p.w.data.shape)
        every = np.arange(sum(lengths))
        lstm_x = T.constant(rng.normal(size=(len(every), 3)))
        lstm_gs = [T.constant(rng.normal(size=(len(every), 3))) for _ in range(uses)]

        def run(layer_params):
            terms = [sum_(mul(T.matmul_t(T.constant(x), w), T.constant(g))) for x, g in zip(xs, gs)]
            h = lstm_x
            for g, q in zip(lstm_gs, layer_params):
                h = T.lstm_layer(h, every, lengths, q)
                terms.append(sum_(mul(h, g)))
            loss = terms[0]
            for t in terms[1:]:
                loss = add(loss, t)
            return loss

        with Tape() as tape:
            tape.backward(run([p] * uses))
        got = [t.grad.copy() for t in (w, p.w, p.b)]
        # the same layers with a copy of the LSTM weights per use
        copies = [T.LstmParams(T.parameter(p.w.data), T.parameter(p.b.data), p.hidden) for _ in range(uses)]
        with Tape() as tape:
            tape.backward(run(copies))
        want = [
            sum(g.T @ x for g, x in zip(gs, xs)),
            sum(q.w.grad for q in copies),
            sum(q.b.grad for q in copies),
        ]
        for g, ref in zip(got, want):
            assert np.abs(g - ref).max() <= 1e-12 * np.abs(ref).max()
        if len(rows) == 1 and uses == 1:
            # a single use adds its one product into a zero buffer: the bytes
            # of that product, and of the same layer on a private weight copy
            assert got[0].tobytes() == (gs[0].T @ xs[0]).tobytes()
            assert got[1].tobytes() == copies[0].w.grad.tobytes()

    def test_recorded_weight_passes_its_gradient_on(self):
        # The weight of the outer matmul_t is itself recorded, as the
        # attention keys are: its producer reads its gradient.
        rng = np.random.default_rng(31)
        params = {
            "q": T.parameter(rng.normal(size=(2, 3))),
            "h": T.parameter(rng.normal(size=(4, 5))),
            "wk": T.parameter(rng.normal(size=(3, 5))),
        }

        def forward():
            keys = T.matmul_t(params["h"], params["wk"])
            return sum_(tanh(T.matmul_t(params["q"], keys)))

        with Tape() as tape:
            tape.backward(forward())
        fd = finite_difference(lambda: float(forward().data), params)
        for name, t in params.items():
            assert np.abs(fd[name]).max() > 1e-2, name
            assert max_rel_err(t.grad, fd[name]) < 1e-6, name

    def test_only_leaves_hold_gradients_after_backward(self):
        rng = np.random.default_rng(32)
        p = T.init_lstm_params(rng, 2, 3)
        w = T.parameter(rng.normal(size=(4, 3)))
        x = T.parameter(rng.normal(size=(3, 2)))
        with Tape() as tape:
            h = T.lstm_layer(x, [0, 1, 2], [2, 1], p)
            out = tanh(T.matmul_t(h, w))
            loss = sum_(out)
            assert all(t.grad is T.PENDING for t in (h, out, loss))
            tape.backward(loss)
        assert all(t.grad is None for t in (h, out, loss))
        assert all(isinstance(t.grad, np.ndarray) for t in (p.w, p.b, w, x))

    def test_node_the_loss_cannot_reach_never_runs(self):
        x = T.parameter([0.5, -1.0])
        ran = []
        with Tape() as tape:
            unused = T._record(T.Tensor(x.data * 2.0), lambda: ran.append("unused"))
            tanh(unused)
            tape.backward(sum_(tanh(x)))
        assert ran == []
        assert unused.grad is None
        assert np.array_equal(x.grad, 1.0 - np.tanh(x.data) ** 2)

    def test_second_backward_raises(self):
        x = T.parameter([0.5, -1.0])
        with Tape() as tape:
            loss = sum_(tanh(x))
            tape.backward(loss)
            first = x.grad.copy()
            with pytest.raises(ValueError, match="already ran"):
                tape.backward(loss)
        assert np.array_equal(x.grad, first)


class TestDeterminismAndInvariants:
    def test_forward_determinism_bit_identical(self):
        def run():
            rng = np.random.default_rng(42)
            p = T.init_lstm_params(rng, 3, 4)
            h, c = T.lstm_cell(rng.normal(size=(1, 3)), np.zeros((1, 4)), np.zeros((1, 4)), p)
            return softmax(T.constant(h)).data.tobytes()

        assert run() == run()

    def test_small_model_gradient_sweep(self):
        # <= 200 parameters: one LSTM layer over 3 steps + projection of the
        # last output + one log-softmax entry
        rng = np.random.default_rng(5)
        p = T.init_lstm_params(rng, 4, 4)  # 4*4*(4+4) + 16 = 144
        w = T.parameter(rng.normal(size=(3, 4)) * 0.3)  # 12
        x = T.constant(rng.normal(size=(3, 4)))

        def forward():
            h = T.gather(T.lstm_layer(x, [0, 1, 2], [3], p), [2])
            return sum_(T.gather(log_softmax(T.matmul_t(h, w)), [1], axis=-1))

        params = {"w": w, "lstm.w": p.w, "lstm.b": p.b}
        assert sum(t.data.size for t in params.values()) <= 200
        with Tape() as tape:
            tape.backward(forward())
        fd = finite_difference(lambda: float(forward().data), params)
        for name, t in params.items():
            rel = np.abs(t.grad - fd[name]) / np.maximum(
                np.maximum(np.abs(t.grad), np.abs(fd[name])), 1e-8
            )
            big = np.maximum(np.abs(t.grad), np.abs(fd[name])) > 1e-3
            assert rel.max() < 1e-4
            if big.any():
                assert rel[big].max() < 1e-6


class TestAdam:
    def test_minimizes_quadratic(self):
        x = T.parameter([5.0, -3.0])
        opt = T.Adam({"x": x}, lr=0.05)
        for _ in range(400):
            with Tape() as tape:
                loss = sum_(mul(x, x))
                opt.zero_grad()
                tape.backward(loss)
            opt.step()
        assert np.abs(x.data).max() < 1e-2

    @pytest.mark.parametrize("grad_scale", [0.01, 100.0])  # below and above CLIP_NORM
    def test_step_is_bit_identical_to_reference(self, grad_scale):
        rng = np.random.default_rng(33)
        # "big" has over 128 entries, so numpy sums its squares pairwise
        shapes = {"w": (5, 3), "b": (5,), "big": (31, 21), "s": ()}
        params = {name: T.parameter(rng.normal(size=shape)) for name, shape in shapes.items()}
        want = {name: t.data.copy() for name, t in params.items()}
        m = {name: np.zeros(shape) for name, shape in shapes.items()}
        v = {name: np.zeros(shape) for name, shape in shapes.items()}
        opt = T.Adam(params, lr=0.01)
        for step in range(1, 4):
            grads = {name: grad_scale * rng.normal(size=shape) for name, shape in shapes.items()}
            for name, t in params.items():
                t.grad[...] = grads[name]
            opt.step()
            reference_adam_step(want, grads, m, v, step, 0.01)
            for name, t in params.items():
                assert t.data.tobytes() == want[name].tobytes(), (name, step)

    def test_parameters_become_views_of_one_buffer(self):
        rng = np.random.default_rng(39)
        params = {"w": T.parameter(rng.normal(size=(3, 2))), "s": T.parameter(1.5), "b": T.parameter(np.ones(4))}
        before = {name: (t.data.copy(), t.data) for name, t in params.items()}
        for t in params.values():
            t.grad[...] = rng.normal(size=t.data.shape)
        opt = T.Adam(params, lr=0.01)
        for name, t in params.items():
            assert t.data.tobytes() == before[name][0].tobytes()
            assert t.data.shape == t.grad.shape == before[name][0].shape
        assert params["w"].data.base is params["b"].data.base is params["s"].data.base
        assert params["w"].grad.base is params["b"].grad.base is params["s"].grad.base
        opt.zero_grad()
        assert all(np.all(t.grad == 0.0) for t in params.values())
        for t in params.values():
            t.grad[...] = 1.0
        opt.step()
        # the update reaches the parameters, not the arrays they had before
        assert all(np.all(t.data != before[name][0]) for name, t in params.items())
        assert all(np.array_equal(before[name][1], before[name][0]) for name in params)

    def test_global_norm_clipping(self):
        x = T.parameter(np.zeros(4))
        x.grad[...] = np.array([30.0, 0.0, 0.0, 0.0])
        opt = T.Adam({"x": x}, lr=1.0)
        opt.step()
        # clipped gradient has norm CLIP_NORM = 5, so m-hat = 5 on the first coordinate
        assert abs(abs(x.data[0]) - 1.0) < 1e-6  # adam step of magnitude ~lr


class TestCheckpoint:
    def test_bit_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        arrays = {
            "a": rng.normal(size=(3, 4)),
            "b": rng.normal(size=7),
            "scalar": np.array(3.14159),
        }
        path = tmp_path / "params.bin"
        T.save_tensors(path, arrays)
        loaded = T.load_tensors(path)
        assert list(loaded) == list(arrays)
        for k in arrays:
            assert arrays[k].shape == loaded[k].shape
            assert arrays[k].tobytes() == loaded[k].tobytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a checkpoint\n")
        with pytest.raises(ValueError, match="version tag"):
            T.load_tensors(path)


class TestMalformedCheckpoint:
    @staticmethod
    def write(tmp_path, manifest: bytes, data: bytes = b""):
        path = tmp_path / "params.bin"
        path.write_bytes(b"CTXSEQ-TENSORS-1\n" + manifest + b"\n" + data)
        return path

    @pytest.mark.parametrize(
        "manifest, data, message",
        [
            (b"5", b"", "manifest is not a list"),
            (b"[5]", b"", "not \\[name, list of ints >= 0\\]"),
            (b'[["a", "x"]]', b"", "not \\[name, list of ints >= 0\\]"),
            (b'[["a", [-1]]]', b"", "not \\[name, list of ints >= 0\\]"),
            (b'[["a", [1.0]]]', b"\0" * 8, "not \\[name, list of ints >= 0\\]"),
            (b'[["a", [true]]]', b"\0" * 8, "not \\[name, list of ints >= 0\\]"),
            (b'[[1, [1]]]', b"\0" * 8, "not \\[name, list of ints >= 0\\]"),
            (b'[["a", [1]], ["a", [1]]]', b"\0" * 16, "names 'a' twice"),
            (b'[["a", [1]]]', b"\0" * 9, "1 bytes after its last array"),
            (b'[["a", [2]]]', b"\0" * 8, "truncated"),
            (b'[["a", [1000000000000, 1000000000000]]]', b"", "truncated"),
            (b"[" * 100000, b"", "nests too deeply"),
            (b"\xff", b"", "codec can.t decode"),
        ],
    )
    def test_rejected_with_value_error(self, tmp_path, manifest, data, message):
        with pytest.raises(ValueError, match=message):
            T.load_tensors(self.write(tmp_path, manifest, data))

    def test_empty_and_scalar_arrays_load(self, tmp_path):
        path = self.write(tmp_path, b'[["e", [0, 3]], ["s", []]]', np.array(2.5).tobytes())
        loaded = T.load_tensors(path)
        assert loaded["e"].shape == (0, 3) and loaded["s"].shape == () and loaded["s"] == 2.5


class TestSubstream:
    def test_named_streams_are_reproducible_and_distinct(self):
        a1 = T.substream(0, "sampler").normal(size=4)
        a2 = T.substream(0, "sampler").normal(size=4)
        b = T.substream(0, "init").normal(size=4)
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, b)


def attention_args(rows, closed):
    """`multi_head_attention` arguments: one head of width 2 over 2 frames."""
    w = T.constant(np.eye(2))
    return np.ones((rows, 2)), [w], [w], [w], np.array(closed), w


def bias_attention_args(closed):
    """`additive_attention` arguments: one query row over 2 value rows."""
    w = T.constant(np.eye(2))
    return np.ones((1, 2)), w, T.constant(np.zeros(2)), np.eye(2), T.constant(np.ones(2)), np.arange(2), np.array(closed), np.eye(2)


def nested_tapes():
    with Tape():
        with Tape():
            pass


@pytest.mark.parametrize(
    "call, error, message",
    [
        (nested_tapes, RuntimeError, "tapes do not nest"),
        (lambda: Tape().backward(Tensor(np.array(1.0))), ValueError, "loss was not recorded on a tape"),
        (lambda: T.stack([]), ValueError, "stack needs at least one row"),
        (lambda: softmax(Tensor(np.zeros((2, 2, 2)))), ValueError,
         r"^softmax takes a 1-D/2-D tensor, got shape \(2, 2, 2\)"),
        (lambda: log_softmax(Tensor(np.zeros((2, 2, 2)))), ValueError,
         r"^log_softmax takes a 1-D/2-D tensor, got shape \(2, 2, 2\)"),
        (lambda: log_softmax(T.constant([[0.0, np.nan]])), T.NonFiniteError, "non-finite logits"),
        (lambda: T.output_layer(np.array([[0.0, np.inf]]), T.constant(np.ones((2, 2))), T.constant(np.zeros(2))),
         T.NonFiniteError, "non-finite logits"),
        (lambda: T.multi_head_attention(*attention_args(rows=3, closed=[[False, False]] * 2)), ValueError,
         r"shape mismatch: query \(3, 2\), closed \(2, 2\)"),
        (lambda: T.multi_head_attention(*attention_args(rows=3, closed=[[False, False]] * 4)), ValueError,
         r"shape mismatch: query \(3, 2\), closed \(4, 2\)"),
        (lambda: T.multi_head_attention(*attention_args(rows=3, closed=[[False, False]])), ValueError,
         r"shape mismatch: query \(3, 2\), closed \(1, 2\)"),
        (lambda: T.multi_head_attention(*attention_args(rows=3, closed=[False, False])), ValueError,
         r"shape mismatch: query \(3, 2\), closed \(2,\)"),
        (lambda: T.multi_head_attention(*attention_args(rows=1, closed=[[True, True]])), ValueError,
         "no unmasked entry"),
        (lambda: T.additive_attention(*bias_attention_args(closed=[[True, True]])), ValueError, "no unmasked entry"),
        (lambda: T.additive_attention(*bias_attention_args(closed=[[False, True, False]])), ValueError,
         r"shape mismatch: closed \(1, 3\)"),
    ],
    ids=["nested-tape", "unrecorded-loss", "empty-stack", "softmax-3d", "log-softmax-3d", "log-softmax-nan",
         "output-inf", "audio-closed-rows", "audio-closed-more-rows", "audio-closed-one-row",
         "audio-closed-1d", "audio-all-closed",
         "bias-all-closed", "bias-closed-width"],
)
def test_misuse_rejected(call, error, message):
    with pytest.raises(error, match=message):
        call()
    assert Tape._active is None
