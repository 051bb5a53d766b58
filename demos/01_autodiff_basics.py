"""Tour of the float64 autodiff core: tape, gradients, a gradient check, Adam.

Run: python demos/01_autodiff_basics.py
"""

import numpy as np

from ctxseq import tensor as T

# A tensor is a float64 array; a Tape records ops so backward can replay them
# in exact reverse. Parameters carry gradient buffers, constants do not.
# Inputs are (B, D) stacks of rows; here B = 1. The loss is the squared norm
# of r = x @ w.T: `matmul_t`, then `mul` and `sum_`, three tape nodes.
w = T.parameter([[0.4, -0.1], [0.1, 0.3]])
x = T.constant([[1.0, 2.0]])


def squared_norm():
    r = T.matmul_t(x, w)
    return T.sum_(T.mul(r, r))


with T.Tape() as tape:
    loss = squared_norm()
    print("tape nodes  :", len(tape))
    tape.backward(loss)

print("loss        :", float(loss.data))
print("dloss/dw    :\n", w.grad)
print("2 r.T @ x   :\n", 2 * (x.data @ w.data.T).T @ x.data)

# Spot-check one entry against central finite differences.
step = 1e-5
orig = w.data[0, 1]
w.data[0, 1] = orig + step
hi = float(squared_norm().data)
w.data[0, 1] = orig - step
lo = float(squared_norm().data)
w.data[0, 1] = orig
fd = (hi - lo) / (2 * step)
print(f"finite diff for w[0,1]: {fd:.10f}  (tape said {w.grad[0, 1]:.10f})")

# A whole LSTM layer is one tape node too, with a hand-written backward. Its
# rows are grouped by step, longest sequence first: two sequences of 3 and
# 2 steps advance 2, 2 and then 1 rows. The forget gate starts open (bias 1).
rng = np.random.default_rng(0)
layer = T.init_lstm_params(rng, input_dim=3, hidden=4)
x = T.constant(rng.normal(size=(5, 3)))
with T.Tape() as tape:
    h = T.lstm_layer(x, [2, 2, 1], layer)
    nodes = len(tape)
    tape.backward(T.sum_(h))
print(f"\nlstm_layer: {nodes} tape node, last h {np.round(h.data[-1], 4)}")
print("dsum(h)/db, input gates:", np.round(layer.b.grad[:4], 4))

# Adam with global-norm clipping drives a small quadratic to zero.
p = T.parameter([4.0, -7.0])
opt = T.Adam({"p": p}, lr=0.1)
for i in range(200):
    with T.Tape() as tape:
        loss = T.sum_(T.mul(p, p))
        opt.zero_grad()
        tape.backward(loss)
    opt.step()
print("\nafter 200 Adam steps, p =", np.round(p.data, 5))

# Checkpoints round-trip bit-exactly: a version tag, a manifest, raw floats.
import tempfile, pathlib

with tempfile.TemporaryDirectory() as d:
    path = pathlib.Path(d) / "demo.bin"
    T.save_tensors(path, {"w": w.data, "p": p.data})
    back = T.load_tensors(path)
    print("\ncheckpoint round-trip bit-exact:", back["w"].tobytes() == w.data.tobytes())
