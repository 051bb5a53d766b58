"""Tour of the float64 autodiff core: tape, gradients, a gradient check, Adam.

Run: python demos/01_autodiff_basics.py
"""

import numpy as np

from ctxseq import tensor as T
from ctxseq.model import ModelConfig, Recognizer, embed_phrases
from ctxseq.vocab import Vocabulary, graphemize

# A tensor is a float64 array; a Tape records ops so backward can replay them
# in exact reverse. Parameters carry gradient buffers, constants do not.
# The loss here is the one training minimizes: a tiny recognizer's
# teacher-forced negative log-likelihood of "ab" for one utterance of four
# frames, with the phrase list ["ab"] embedded on the same tape.
cfg = ModelConfig(
    feature_dim=3, encoder_layers=1, encoder_units=4, decoder_layers=1, decoder_units=4,
    attention_dim=4, attention_heads=1, bias_encoder_units=4, embedding_dim=3,
)
model = Recognizer(cfg, Vocabulary.from_alphabet("ab"), seed=0)
x = np.random.default_rng(0).normal(size=(4, 3))
target = [model.vocab.index(g) for g in graphemize("ab")] + [model.vocab.eos]


def nll():
    return model.forward_loss([x], embed_phrases(model, ["ab"]), [target])


with T.Tape() as tape:
    loss = nll()
    print("tape nodes  :", len(tape))
    tape.backward(loss)

w = model.params["output.w"]
print("loss        :", float(loss.data))
print("dloss/d output.b:", np.round(model.params["output.b"].grad, 4))

# Spot-check the largest entry against central finite differences.
at = np.unravel_index(np.abs(w.grad).argmax(), w.shape)
step = 1e-5
orig = w.data[at]
w.data[at] = orig + step
hi = float(nll().data)
w.data[at] = orig - step
lo = float(nll().data)
w.data[at] = orig
fd = (hi - lo) / (2 * step)
print(f"finite diff for output.w{list(map(int, at))}: {fd:.10f}  (tape said {w.grad[at]:.10f})")

# A whole LSTM layer is one tape node, with a hand-written backward. It
# reads its inputs as rows of a table, here an embedding of 4 symbols: two
# sequences of 2 and 3 steps read rows 1, 3 and then 0, 2, 0. Inside, the
# longer sequence runs first, so the steps advance 2, 2 and then 1 rows;
# the outputs come back in input order. The forget gate starts open (bias 1).
rng = np.random.default_rng(0)
layer = T.init_lstm_params(rng, input_dim=3, hidden=4)
table = T.constant(rng.normal(size=(4, 3)))
with T.Tape() as tape:
    h = T.lstm_layer(table, [1, 3, 0, 2, 0], [2, 3], layer)
    print(f"\nlstm_layer: {len(tape)} tape node, last h {np.round(h.data[-1], 4)}")

# Adam with global-norm clipping fits the utterance: the loss falls.
opt = T.Adam(model.params, lr=0.05)
for i in range(100):
    with T.Tape() as tape:
        loss = nll()
        opt.zero_grad()
        tape.backward(loss)
    opt.step()
    if i in (0, 99):
        print(f"Adam step {i + 1:3d}: loss {float(loss.data):.5f}")

# Tensor files round-trip bit-exactly: a version tag, a manifest, raw floats.
import tempfile, pathlib

with tempfile.TemporaryDirectory() as d:
    path = pathlib.Path(d) / "demo.bin"
    model.save(path)
    back = T.load_tensors(path)
    print("\ntensor file round-trip bit-exact:", back["output.w"].tobytes() == w.data.tobytes())
