import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxseq import tensor as T
from ctxseq.tensor import NEG_INF, Tape, Tensor

from oracles import finite_difference, max_rel_err


def scalar_loss(t: T.Tensor) -> T.Tensor:
    return T.sum_(t)


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
            return float(T.sum_(T.tanh(T.matmul(a, b))).data)

        with Tape() as tape:
            loss = T.sum_(T.tanh(T.matmul(a, b)))
            tape.backward(loss)
        fd = finite_difference(loss_fn, {"a": a, "b": b})
        assert max_rel_err(a.grad, fd["a"]) < 1e-6
        assert max_rel_err(b.grad, fd["b"]) < 1e-6


class TestElementwise:
    def test_tanh_zero(self):
        assert T.tanh(T.constant([0.0])).data[0] == 0.0

    def test_sigmoid_zero(self):
        assert T.sigmoid(T.constant([0.0])).data[0] == 0.5

    def test_tanh_grad_matches_finite_differences(self):
        x = T.parameter([0.3])
        with Tape() as tape:
            tape.backward(T.sum_(T.tanh(x)))
        fd = finite_difference(lambda: float(T.sum_(T.tanh(x)).data), {"x": x})
        assert max_rel_err(x.grad, fd["x"]) < 1e-8
        assert abs(x.grad[0] - (1.0 - math.tanh(0.3) ** 2)) < 1e-12

    def test_incompatible_shapes(self):
        with pytest.raises(ValueError):
            T.add(T.constant([1.0, 2.0]), T.constant([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError):
            T.mul(T.constant([1.0, 2.0]), T.constant([[1.0, 2.0]]))


class TestSoftmax:
    def test_symmetry(self):
        out = T.softmax(T.constant([0.0, 0.0, 0.0]))
        assert np.allclose(out.data, [1 / 3] * 3, atol=1e-15)

    def test_neg_inf_sentinel_maps_to_exact_zero(self):
        out = T.softmax(T.constant([2.5, NEG_INF]))
        assert out.data[0] == 1.0 and out.data[1] == 0.0

    def test_direct_formula(self):
        x = np.array([1.0, 2.0, 3.0])
        expected = np.exp(x) / np.exp(x).sum()
        assert np.abs(T.softmax(T.constant(x)).data - expected).max() < 1e-12

    def test_all_masked_is_an_error(self):
        with pytest.raises(ValueError, match="no unmasked entry"):
            T.softmax(T.constant([NEG_INF, NEG_INF]))
        with pytest.raises(ValueError, match="no unmasked entry"):
            T.softmax(T.constant([1.0]), mask=np.array([np.inf]))

    @given(st.lists(st.floats(-30, 30), min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_rows_sum_to_one(self, xs):
        out = T.softmax(T.constant(xs))
        assert abs(out.data.sum() - 1.0) <= 1e-12
        assert (out.data >= 0).all() and (out.data <= 1).all()

    def test_mask_gradient_is_zero_on_masked_entries(self):
        x = T.parameter([0.2, 1.1, -0.4])
        mask = np.array([0.0, np.inf, 0.0])
        with Tape() as tape:
            out = T.softmax(x, mask=mask)
            tape.backward(T.pick(out, 0))
        assert x.grad[1] == 0.0

        def loss_fn():
            return float(T.pick(T.softmax(x, mask=mask), 0).data)

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
            tape.backward(T.sum_(T.mul(picked, w)))
        # row 2 is picked twice, row 1 never
        assert np.array_equal(m.grad, [[3.0, 4.0], [0.0, 0.0], [6.0, 8.0]])

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        m = T.parameter(rng.normal(size=(4, 3)))
        index = np.array([3, 1, 3])

        def forward():
            return T.sum_(T.tanh(T.gather(m, index)))

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
        assert np.abs(T.log_softmax(x).data - np.log(T.softmax(x).data)).max() < 1e-12

    def test_grad(self):
        x = T.parameter([0.5, -1.0, 2.0])
        with Tape() as tape:
            tape.backward(T.pick(T.log_softmax(x), 1))
        fd = finite_difference(lambda: float(T.pick(T.log_softmax(x), 1).data), {"x": x})
        assert max_rel_err(x.grad, fd["x"]) < 1e-6


class TestLstmCell:
    def _zero_params(self, input_dim, hidden):
        return T.LstmParams(
            w=T.parameter(np.zeros((4 * hidden, input_dim + hidden))),
            b=T.parameter(np.zeros(4 * hidden)),
            hidden=hidden,
        )

    def test_zero_propagation(self):
        p = self._zero_params(3, 2)
        h, c = T.lstm_cell(T.constant([1.0, -2.0, 0.5]), T.constant([0.0, 0.0]), T.constant([0.0, 0.0]), p)
        assert np.array_equal(h.data, [0.0, 0.0])
        assert np.array_equal(c.data, [0.0, 0.0])

    def test_hand_set_single_unit(self):
        w = np.array([[0.1, 0.2], [0.3, -0.4], [0.5, 0.6], [-0.7, 0.8]])
        b = np.array([0.01, 0.02, 0.03, 0.04])
        p = T.LstmParams(w=T.parameter(w), b=T.parameter(b), hidden=1)
        x, h_prev, c_prev = 0.7, 0.3, 0.4
        h, c = T.lstm_cell(T.constant([x]), T.constant([h_prev]), T.constant([c_prev]), p)

        sig = lambda v: 1.0 / (1.0 + math.exp(-v))
        i = sig(0.1 * x + 0.2 * h_prev + 0.01)
        f = sig(0.3 * x - 0.4 * h_prev + 0.02)
        g = math.tanh(0.5 * x + 0.6 * h_prev + 0.03)
        o = sig(-0.7 * x + 0.8 * h_prev + 0.04)
        c_ref = f * c_prev + i * g
        assert abs(c.data[0] - c_ref) < 1e-12
        assert abs(h.data[0] - o * math.tanh(c_ref)) < 1e-12

    def test_forget_bias_initialized_to_one(self):
        p = T.init_lstm_params(np.random.default_rng(0), 3, 4)
        assert np.array_equal(p.b.data[4:8], np.ones(4))
        assert np.array_equal(p.b.data[:4], np.zeros(4))
        assert np.array_equal(p.b.data[8:], np.zeros(8))
        assert np.abs(p.w.data).max() <= 0.05

    def test_dimension_mismatch(self):
        p = self._zero_params(3, 2)
        with pytest.raises(ValueError):
            T.lstm_cell(T.constant([1.0]), T.constant([0.0, 0.0]), T.constant([0.0, 0.0]), p)

    def test_full_cell_gradient_check(self):
        rng = np.random.default_rng(3)
        p = T.init_lstm_params(rng, 3, 2)
        x = T.constant(rng.normal(size=3))
        h0 = T.constant(rng.normal(size=2))
        c0 = T.constant(rng.normal(size=2))

        def forward():
            h, c = T.lstm_cell(x, h0, c0, p)
            return T.sum_(T.add(h, c))

        with Tape() as tape:
            tape.backward(forward())
        fd = finite_difference(lambda: float(forward().data), {"w": p.w, "b": p.b})
        assert max_rel_err(p.w.grad, fd["w"]) < 1e-5
        assert max_rel_err(p.b.grad, fd["b"]) < 1e-5


class TestBackward:
    def test_sum_of_matvec(self):
        w = T.parameter([[1.0, 2.0], [3.0, 4.0]])
        x = T.constant([5.0, 6.0])
        with Tape() as tape:
            tape.backward(T.sum_(T.matmul(w, x)))
        assert np.array_equal(w.grad, [[5.0, 6.0], [5.0, 6.0]])

    def test_two_layer_tanh_net(self):
        rng = np.random.default_rng(11)
        w1 = T.parameter(rng.normal(size=(4, 3)) * 0.5)
        b1 = T.parameter(rng.normal(size=4) * 0.1)
        w2 = T.parameter(rng.normal(size=(2, 4)) * 0.5)
        x = T.constant(rng.normal(size=3))

        def forward():
            hidden = T.tanh(T.add(T.matmul(w1, x), b1))
            return T.sum_(T.tanh(T.matmul(w2, hidden)))

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
            tape.backward(T.sum_(T.tanh(used)))
        assert np.array_equal(unused.grad, [0.0])

    def test_non_scalar_loss_is_an_error(self):
        x = T.parameter([1.0, 2.0])
        with Tape() as tape:
            out = T.tanh(x)
            with pytest.raises(ValueError, match="scalar"):
                tape.backward(out)

    def test_backward_visits_reverse_order(self):
        x = T.parameter([2.0])
        with Tape() as tape:
            a = T.scale(x, 3.0)
            b = T.tanh(a)
            loss = T.sum_(b)
            tape.backward(loss)
        fd = finite_difference(lambda: float(T.sum_(T.tanh(T.scale(x, 3.0))).data), {"x": x})
        assert max_rel_err(x.grad, fd["x"]) < 1e-6


class TestDeterminismAndInvariants:
    def test_forward_determinism_bit_identical(self):
        def run():
            rng = np.random.default_rng(42)
            p = T.init_lstm_params(rng, 3, 4)
            x = T.constant(rng.normal(size=3))
            h, c = T.lstm_cell(x, T.constant(np.zeros(4)), T.constant(np.zeros(4)), p)
            return T.softmax(h).data.tobytes()

        assert run() == run()

    def test_small_model_gradient_sweep(self):
        # <= 200 parameters: one LSTM layer + projection + softmax pick
        rng = np.random.default_rng(5)
        p = T.init_lstm_params(rng, 4, 4)  # 4*4*(4+4) + 16 = 144
        w = T.parameter(rng.normal(size=(3, 4)) * 0.3)  # 12
        xs = [T.constant(rng.normal(size=4)) for _ in range(3)]

        def forward():
            h = T.constant(np.zeros(4))
            c = T.constant(np.zeros(4))
            for x in xs:
                h, c = T.lstm_cell(x, h, c, p)
            return T.pick(T.log_softmax(T.matmul(w, h)), 1)

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
                loss = T.sum_(T.mul(x, x))
                opt.zero_grad()
                tape.backward(loss)
            opt.step()
        assert np.abs(x.data).max() < 1e-2

    def test_global_norm_clipping(self):
        x = T.parameter(np.zeros(4))
        x.grad[...] = np.array([30.0, 0.0, 0.0, 0.0])
        opt = T.Adam({"x": x}, lr=1.0, clip_norm=5.0)
        opt.step()
        # clipped gradient has norm 5, so m-hat = 5 on the first coordinate
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


class TestSubstream:
    def test_named_streams_are_reproducible_and_distinct(self):
        a1 = T.substream(0, "sampler").normal(size=4)
        a2 = T.substream(0, "sampler").normal(size=4)
        b = T.substream(0, "init").normal(size=4)
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, b)
