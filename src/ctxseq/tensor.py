"""Dense float64 arrays with reverse-mode differentiation on an explicit tape.

Everything is deliberately small: 1-D/2-D arrays, the handful of ops a stacked
recurrent attention model needs, and an Adam optimizer. There is one row
layout: `matmul_t` and the beam step's ops take (B, D) stacks of B rows (B
may be 1), `lstm_layer` reads the steps of each sequence in turn from the
rows of a table, `attention_decoder` every position's rows stacked position
by position, `matmul` takes two matrices, and none takes a vector. So a
training step, a beam step over B hypotheses and the phrase encoder over a
whole list run the same arithmetic. `scale` is shape-agnostic, and
`gather` selects rows or last-axis entries (a column range is `gather`
over `np.arange(start, stop)`).

Training records fused tape nodes with hand-written backwards (the
element-wise fusion of Appleyard, Kočiský & Blunsom 2016): `lstm_layer` runs
an LSTM layer as one node, with its input products hoisted out of the step
loop into one GEMM (the GEMM hoist of the same paper); and
`attention_decoder` runs every position of the teacher-forced decoder, its
LSTM layers, both attentions, the output layer and the loss, as one node.
The chains, and the primitive ops only they use, are the tests' oracles;
the two layers match chains of them up to rounding in the last bits.

The beam runs forward only, on arrays: `lstm_cell`, `multi_head_attention`,
`additive_attention` and `output_layer` take and return numpy arrays, with
the training nodes' arithmetic through the same helpers, so no beam value
can enter a taped graph. The additive scores make their (B, U, A) tanh
block a few query rows at a time, and with some entry closed they score
each query row only against the keys of its own open entries and take its
softmax over those entries alone.

A training step does each weight's weight-sized work once:

- A node records one output, which gets its gradient buffer on its first
  write, as a copy. `Tape.backward` skips a node whose output received no
  gradient and drops the output's gradient once its backward has run, so
  afterwards only leaves (parameters) hold gradients.
- A weight's gradient is `g.T @ x`, one GEMM per use, added in the
  backward of the node that uses it. `lstm_layer` and `attention_decoder`
  stack the rows of every step before that GEMM (the backward half of the
  GEMM hoist of Appleyard et al.), so every weight of a training step has
  one use and one GEMM.
- `Adam` keeps every parameter's data and gradient in one flat buffer each,
  the `Tensor`s holding views, so `zero_grad` and `Adam.step` are a few
  whole-buffer calls; the step evaluates its update with `out=` into one
  parameter-sized scratch buffer and the gradient buffer, so it allocates
  no parameter-sized temporary.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

NEG_INF = float("-inf")  # mask sentinel, handled explicitly by softmax

_MAGIC = b"CTXSEQ-TENSORS-1\n"


class NonFiniteError(FloatingPointError):
    """A forward value became NaN/Inf where finite numbers are required."""


class _Pending:
    """The `grad` of a recorded output that no gradient has reached yet."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "PENDING"


PENDING = _Pending()


class Tensor:
    """A dense float64 array plus an optional same-shape gradient buffer.

    `grad` is None for a constant, the buffer for a leaf made with
    `requires_grad`, and `PENDING` for an output recorded on a tape until a
    gradient reaches it.
    """

    __slots__ = ("data", "grad")

    def __init__(self, data: np.ndarray, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | _Pending | None = (
            np.zeros_like(self.data) if requires_grad else None
        )

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, grad={'yes' if isinstance(self.grad, np.ndarray) else 'no'})"


def parameter(data: np.ndarray | Sequence) -> Tensor:
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True)


def constant(data: np.ndarray | Sequence) -> Tensor:
    return Tensor(np.asarray(data, dtype=np.float64))


class Tape:
    """Ordered record of operations; backward replays it in exact reverse."""

    _active: "Tape | None" = None

    def __init__(self):
        self._nodes: list[tuple[Tensor, Callable[[], None]]] = []
        self._done = False

    def __enter__(self) -> "Tape":
        if Tape._active is not None:
            raise RuntimeError("tapes do not nest")
        Tape._active = self
        return self

    def __exit__(self, *exc) -> None:
        Tape._active = None

    def __len__(self) -> int:
        return len(self._nodes)

    def backward(self, loss: Tensor) -> None:
        """Add the gradient of `loss` into every leaf it reaches.

        Runs once per tape: the recorded outputs' gradients are dropped as it
        goes, so a second call raises ValueError.
        """
        if loss.data.shape != ():
            raise ValueError(f"backward requires a scalar loss, got shape {loss.data.shape}")
        if self._done:
            raise ValueError("backward already ran on this tape")
        if loss.grad is not PENDING:
            raise ValueError("loss was not recorded on a tape")
        self._done = True
        loss.grad = np.ones(())
        for out, fn in reversed(self._nodes):
            if out.grad is not PENDING:
                fn()
            out.grad = None


def _record(out: Tensor, backward_fn: Callable[[], None]) -> Tensor:
    tape = Tape._active
    if tape is not None:
        out.grad = PENDING
        tape._nodes.append((out, backward_fn))
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    if t.grad is PENDING:
        t.grad = np.array(g)  # a copy: operands may share `g`, or it is a view
    elif t.grad is not None:
        t.grad += g


def _scatter_add(t: Tensor, where, g: np.ndarray) -> None:
    """`_accum` of `g` into the entries `where` of `t`, repeats adding up."""
    if t.grad is PENDING:
        t.grad = np.zeros_like(t.data)  # a scatter-add needs a zero-filled buffer
    if t.grad is not None:
        np.add.at(t.grad, where, g)


# ---------------------------------------------------------------------------
# primitive ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of a (M, K) and a (K, N) tensor."""
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim != 2:
        raise ValueError(f"matmul needs 2-D operands, got shapes {a.shape} and {b.shape}")
    if ad.shape[1] != bd.shape[0]:
        raise ValueError(f"matmul dimension mismatch: {a.shape} @ {b.shape}")
    out = Tensor(ad @ bd)

    def backward():
        g = out.grad
        _accum(a, g @ bd.T)
        _accum(b, ad.T @ g)

    return _record(out, backward)


def matmul_t(x: Tensor, w: Tensor) -> Tensor:
    """`x @ w.T` for a (B, D) stack of rows x and a (N, D) matrix w; the
    transpose is a view, never a copy."""
    xd, wd = x.data, w.data
    if xd.ndim != 2 or wd.ndim != 2:
        raise ValueError(f"matmul_t needs a 2-D x and a 2-D w, got shapes {x.shape} and {w.shape}")
    if xd.shape[1] != wd.shape[1]:
        raise ValueError(f"matmul_t dimension mismatch: {x.shape} @ {w.shape}.T")
    out = Tensor(xd @ wd.T)

    def backward():
        g = out.grad
        _accum(w, g.T @ xd)
        _accum(x, g @ wd)

    return _record(out, backward)


def scale(a: Tensor, k: float) -> Tensor:
    out = Tensor(a.data * k)

    def backward():
        _accum(a, out.grad * k)

    return _record(out, backward)


def stack(blocks: Sequence[Tensor]) -> Tensor:
    """Stack rows into a matrix: a 1-D tensor adds one row, a 2-D tensor
    adds all of its rows. Every row must have the same width."""
    if not blocks:
        raise ValueError("stack needs at least one row")
    width = blocks[0].data.shape[-1]
    for r in blocks:
        if r.data.ndim not in (1, 2) or r.data.shape[-1] != width:
            raise ValueError(f"stack row shape mismatch: {r.shape} vs ({width},)")
    out = Tensor(np.vstack([r.data for r in blocks]))
    heights = [r.data.shape[0] if r.data.ndim == 2 else 1 for r in blocks]

    def backward():
        pos = 0
        for r, n in zip(blocks, heights):
            g = out.grad[pos : pos + n]
            _accum(r, g if r.data.ndim == 2 else g[0])
            pos += n

    return _record(out, backward)


def gather(a: Tensor, index: np.ndarray, axis: int = 0) -> Tensor:
    """Rows (axis 0) or last-axis entries (axis -1) `index` of a vector or
    matrix, in that order; repeats allowed.

    The backward scatter-adds into the selected positions, so positions that
    are not selected get exactly zero gradient.
    """
    if a.data.ndim not in (1, 2):
        raise ValueError(f"gather takes a 1-D/2-D tensor, got shape {a.shape}")
    if axis not in (0, -1):
        raise ValueError(f"gather works over axis 0 or -1, got {axis}")
    index = np.asarray(index, dtype=np.intp)
    if index.ndim != 1:
        raise ValueError(f"gather needs a 1-D index, got shape {index.shape}")
    where = (index,) if axis == 0 else (Ellipsis, index)
    out = Tensor(a.data[where])

    def backward():
        _scatter_add(a, where, out.grad)

    return _record(out, backward)


# ---------------------------------------------------------------------------
# the arithmetic of the fused layers, shared with the test oracles' op chains


def _check_open(closed: np.ndarray) -> None:
    """ValueError unless every row of the boolean mask `closed` leaves some
    entry open."""
    if closed.all(axis=-1).any():
        raise ValueError("no unmasked entry")


def _softmax(x: np.ndarray) -> np.ndarray:
    """Stabilized softmax over the last axis; NEG_INF entries map to exactly 0."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_grad(g: np.ndarray, od: np.ndarray) -> np.ndarray:
    """The input gradient of softmax output od for a finite output gradient
    g. A masked entry, whose weight `_softmax` makes exactly 0, gets an
    exact zero (of either sign), so no mask is needed here."""
    inner = (g * od).sum(axis=-1, keepdims=True)
    return od * (g - inner)


def _log_softmax_rows(x: np.ndarray) -> np.ndarray:
    if not np.isfinite(x).all():
        raise NonFiniteError("non-finite logits in log_softmax")
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _log_softmax_grad(g: np.ndarray, od: np.ndarray) -> np.ndarray:
    return g - np.exp(od) * g.sum(axis=-1, keepdims=True)


_SCORE_ROWS = 8  # query rows per tanh block of forward-only additive scores


def _tanh_block(kd: np.ndarray, qd: np.ndarray, vd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (B, U) scores `v . tanh(keys[u] + query[b])` and the (B, U, A)
    tanh block their backward reads."""
    t = kd + qd[:, None, :]
    np.tanh(t, out=t)
    return t @ vd, t


def _tanh_scores(kd: np.ndarray, qd: np.ndarray, vd: np.ndarray) -> np.ndarray:
    """The scores of `_tanh_block`, with each row's bits, for a caller that
    keeps no block: it is made a few query rows at a time, which bounds its
    size when a beam steps many rows. Every query row is scored against
    every key; `_open_scores` scores only the pairs a mask leaves open.
    """
    return np.concatenate([_tanh_block(kd, qd[i : i + _SCORE_ROWS], vd)[0] for i in range(0, len(qd), _SCORE_ROWS)])


def _open_scores(
    kd: np.ndarray, qd: np.ndarray, vd: np.ndarray, score_of: np.ndarray, closed: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The scores `v . tanh(keys[score_of[r]] + query[b])` of the (b, r)
    entries the boolean (B, R) `closed` leaves open; forward only. Returns
    the open entries as flat indices into C-ordered (B, R), hence in row
    order, their query rows, and their scores.

    Only the (row, distinct key) pairs that some open entry of the row reads
    are scored, a few query rows' worth of pairs at a time, as
    `_tanh_scores` makes its blocks. Pairs are flat indices into row-major
    (B, U).
    """
    n_entries, n_keys = closed.shape[1], len(kd)
    open_at = np.flatnonzero(~closed)
    row = open_at // n_entries
    pair_of = row * n_keys + score_of[open_at - row * n_entries]  # each open entry's (row, key) pair
    needed = np.zeros(len(qd) * n_keys, dtype=bool)
    needed[pair_of] = True
    pairs = np.flatnonzero(needed)
    scores = np.empty(len(needed))  # read only at the scored pairs
    n = _SCORE_ROWS * n_keys
    for i in range(0, len(pairs), n):
        chunk = pairs[i : i + n]
        query_row, key = np.divmod(chunk, n_keys)
        t = kd[key]
        t += qd[query_row]
        np.tanh(t, out=t)
        scores[chunk] = t @ vd
    return open_at, row, scores[pair_of]


def _tanh_args_grad(g: np.ndarray, t: np.ndarray, vd: np.ndarray) -> np.ndarray:
    """The gradient of the tanh arguments `keys[u] + query[b]` of
    `_tanh_block` for score gradient g: its sums over b and over u are the
    keys' and the queries' gradients."""
    return g[..., None] * vd * (1.0 - t * t)


def _tanh_v_grad(g: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The v gradient of `_tanh_block` for score gradient g; g and t may
    stack the rows of several calls."""
    return t.reshape(-1, t.shape[-1]).T @ g.reshape(-1)


def _score_grad(g_alpha: np.ndarray, alpha: np.ndarray, score_of: np.ndarray, n_keys: int) -> np.ndarray:
    """The (B, n_keys) key-score gradient of the weights alpha, a softmax
    over entries of which entry r reads the score of key `score_of[r]`, for
    weight gradient g_alpha."""
    g = np.zeros((len(alpha), n_keys))  # a scatter-add needs a zero-filled buffer
    np.add.at(g, (Ellipsis, score_of), _softmax_grad(g_alpha, alpha))
    return g


def _dot_heads(qs, keys, values, cd: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Scaled-dot attention of each head's (B, dh) query rows `qs[h]` over
    its (K, dh) `keys[h]` and `values[h]` arrays, with the additive (B, K)
    mask cd (0 or -inf): the heads joined along the last axis, and each
    head's (B, K) weights."""
    alphas = [_softmax((q @ k.T) * (1.0 / np.sqrt(q.shape[1])) + cd) for q, k in zip(qs, keys)]
    return np.concatenate([a @ v for a, v in zip(alphas, values)], axis=-1), alphas


def _dot_head_grad(g_head, q, k, v, alpha) -> tuple[np.ndarray, np.ndarray]:
    """The scaled score gradient g_s and the query gradient of one head of
    `_dot_heads` for its output gradient g_head; a closed frame's score
    gradient is an exact zero. The head's key and value gradients are
    `g_s.T @ q` and `alpha.T @ g_head`."""
    g_s = _softmax_grad(g_head @ v.T, alpha) * (1.0 / np.sqrt(q.shape[1]))
    return g_s, g_s @ k


# ---------------------------------------------------------------------------
# the beam step's attentions and output layer
#
# Forward only: the queries, the bias keys and values, and every result are
# arrays, so no result can enter a taped graph; the parameters and the audio
# keys and values are the `Tensor`s training makes on the tape. Training runs
# the same arithmetic, through the same helpers, in `attention_decoder`.


def multi_head_attention(
    query: np.ndarray,
    wq: Sequence[Tensor],
    keys: Sequence[Tensor],
    values: Sequence[Tensor],
    closed: np.ndarray,
    wo: Tensor,
) -> np.ndarray:
    """Multi-head scaled-dot attention of a (B, D) stack of query rows.

    Head h scores `(query @ wq[h].T) @ keys[h].T / sqrt(head width)`, adds
    -inf where the boolean `closed` is true and reads `softmax @ values[h]`;
    the heads are joined along the last axis and projected by `wo`.
    `closed` is (B, K), one row per query row.
    """
    if query.ndim != 2:
        raise ValueError(f"multi_head_attention needs a (B, D) query, got shape {query.shape}")
    if closed.shape != (query.shape[0], keys[0].data.shape[0]):
        raise ValueError(f"multi_head_attention shape mismatch: query {query.shape}, closed {closed.shape}")
    _check_open(closed)
    qs = [query @ w.data.T for w in wq]
    cat, _ = _dot_heads(qs, [k.data for k in keys], [v.data for v in values], np.where(closed, NEG_INF, 0.0))
    return cat @ wo.data.T


def additive_attention(
    query: np.ndarray,
    wd: Tensor,
    b: Tensor,
    keys: np.ndarray,
    v: Tensor,
    score_of: np.ndarray,
    closed: np.ndarray,
    values: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Additive attention of a (B, D) stack of query rows over the R rows of
    `values`; returns the (B, ·) context `alpha @ values` and the (B, R)
    weights alpha.

    Value row r reads the score of key row `score_of[r]` of the (U, A)
    `keys`: `v . tanh(keys[u] + query @ wd.T + b)`. Entries where the
    boolean (B, R) `closed` is true get exactly zero weight. With nothing
    closed every key is scored once per query row, as `attention_decoder`
    scores them, and the values keep its bits. With some entry closed, a
    query row is scored only against the keys of its own open entries
    (`_open_scores`), its softmax runs over those entries alone, and the
    open entries' weights match the dense scores' up to rounding in the
    last bits.
    """
    wdd, vd = wd.data, v.data
    if query.ndim != 2 or wdd.ndim != 2 or query.shape[1] != wdd.shape[1]:
        raise ValueError(f"additive_attention shape mismatch: query {query.shape}, wd {wd.shape}")
    if keys.ndim != 2 or vd.shape != keys.shape[1:] or b.data.shape != keys.shape[1:] or wdd.shape[0] != keys.shape[1]:
        raise ValueError(f"additive_attention shape mismatch: keys {keys.shape}, v {v.shape}, b {b.shape}, wd {wd.shape}")
    if closed.shape != (query.shape[0], values.shape[0]) or score_of.shape != values.shape[:1]:
        raise ValueError(
            f"additive_attention shape mismatch: closed {closed.shape}, score_of {score_of.shape}, "
            f"values {values.shape}, query {query.shape}"
        )
    _check_open(closed)
    q = query @ wdd.T + b.data
    if not closed.any():
        alpha = _softmax(_tanh_scores(keys, q, vd)[..., score_of])
        return alpha @ values, alpha
    # A softmax per row over its open entries only: they are contiguous
    # segments of the flat open scores, none empty, as `_check_open` checked.
    open_at, row, s = _open_scores(keys, q, vd, score_of, closed)
    starts = np.searchsorted(row, np.arange(len(q)))
    s -= np.maximum.reduceat(s, starts)[row]
    np.exp(s, out=s)
    s /= np.add.reduceat(s, starts)[row]
    alpha = np.zeros(closed.shape)
    alpha.reshape(-1)[open_at] = s
    return alpha @ values, alpha


def output_layer(x: np.ndarray, w: Tensor, b: Tensor) -> np.ndarray:
    """`log_softmax(x @ w.T + b)` of a (B, D) stack of rows. Non-finite
    logits raise NonFiniteError."""
    wd = w.data
    if x.ndim != 2 or wd.ndim != 2 or x.shape[1] != wd.shape[1] or b.data.shape != wd.shape[:1]:
        raise ValueError(f"output_layer shape mismatch: x {x.shape}, w {w.shape}, b {b.shape}")
    return _log_softmax_rows(x @ wd.T + b.data)


# ---------------------------------------------------------------------------
# LSTM cell


@dataclass
class LstmParams:
    """Fused gate weights: rows ordered input, forget, candidate, output."""

    w: Tensor  # (4H, input_dim + H)
    b: Tensor  # (4H,)
    hidden: int


def init_lstm_params(rng: np.random.Generator, input_dim: int, hidden: int) -> LstmParams:
    w = parameter(rng.uniform(-0.05, 0.05, size=(4 * hidden, input_dim + hidden)))
    b = np.zeros(4 * hidden)
    b[hidden : 2 * hidden] = 1.0  # forget gate bias
    return LstmParams(w=w, b=parameter(b), hidden=hidden)


def _lstm_gates(pre: np.ndarray, c_prev: np.ndarray, h: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The gate activations, new cell, tanh of the cell and new output of
    (B, 4H) pre-activations `pre` on (B, H) cells `c_prev`."""
    act = 1.0 / (1.0 + np.exp(-pre))  # sigmoid of every gate; g is replaced below
    act[:, 2 * h : 3 * h] = np.tanh(pre[:, 2 * h : 3 * h])
    i, f, g, o = act[:, :h], act[:, h : 2 * h], act[:, 2 * h : 3 * h], act[:, 3 * h :]
    c = f * c_prev + i * g
    tc = np.tanh(c)
    return act, c, tc, o * tc


def _lstm_gates_grad(
    gh: np.ndarray, gc: np.ndarray, act: np.ndarray, c_prev: np.ndarray, tc: np.ndarray, h: int
) -> tuple[np.ndarray, np.ndarray]:
    """The pre-activation and previous-cell gradients of `_lstm_gates` for
    output gradient `gh` and cell gradient `gc` (zeros at the last step)."""
    i, f, g, o = act[:, :h], act[:, h : 2 * h], act[:, 2 * h : 3 * h], act[:, 3 * h :]
    gc_out = gc + (gh * o) * (1.0 - tc * tc)
    d_act = np.empty_like(act)
    d_act[:, :h] = gc_out * g
    d_act[:, h : 2 * h] = gc_out * c_prev
    d_act[:, 2 * h : 3 * h] = gc_out * i
    d_act[:, 3 * h :] = gh * tc
    d_pre = d_act * act * (1.0 - act)
    d_pre[:, 2 * h : 3 * h] = d_act[:, 2 * h : 3 * h] * (1.0 - g * g)
    return d_pre, gc_out * f


def lstm_cell(
    x_t: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray, params: LstmParams
) -> tuple[np.ndarray, np.ndarray]:
    """One LSTM step for a (B, D) stack of B input rows and (B, H) states;
    returns the new (h, c), forward only, with the bits of the op-by-op cell
    (concat, matmul_t, add, sigmoid/tanh per gate, mul)."""
    h = params.hidden
    wd = params.w.data
    expected = wd.shape[1] - h
    if x_t.ndim != 2 or x_t.shape[1] != expected:
        raise ValueError(f"lstm_cell input shape {x_t.shape} does not match weights expecting (B, {expected})")
    rows = (x_t.shape[0], h)
    if h_prev.shape != rows or c_prev.shape != rows:
        raise ValueError(f"lstm_cell state shapes {h_prev.shape}/{c_prev.shape} do not match {rows}")
    xh = np.concatenate([x_t, h_prev], axis=-1)
    _, c, _, out = _lstm_gates(xh @ wd.T + params.b.data, c_prev, h)
    return out, c


def lstm_layer(table: Tensor, rows, lengths: Sequence[int], params: LstmParams) -> Tensor:
    """An LSTM layer over sequences that start from zero states, run as one
    tape node. Its inputs are rows `rows` of the (R, D) `table` (repeats
    allowed, as in `gather`), holding each sequence's `lengths[i]` steps in
    turn; returns the (len(rows), H) outputs in the same order.

    The sequences run longest first: at step t the sequences longer than t
    are the leading rows of the batch and only they advance. The input
    products `x @ W_x.T + b` are one GEMM over every step, and each step
    adds only its `h @ W_h.T` to them (the GEMM hoist of Appleyard, Kočiský
    & Blunsom 2016); `W_x` and `W_h` are column views of the fused weight.
    The backward runs the steps in reverse, then gives the input and the
    weight gradients in one GEMM each, the weight's over the rows
    `[x, h_prev]`, and scatter-adds the input gradient into `table`. The
    gates are `lstm_cell`'s; values and gradients match a chain of op-by-op
    cells up to rounding in the last bits. Without a tape nothing is kept
    for backward.
    """
    h = params.hidden
    wd = params.w.data
    rows = np.asarray(rows, dtype=np.intp)
    lengths = np.asarray(lengths, dtype=np.intp)
    n_in = wd.shape[1] - h
    if table.data.ndim != 2 or table.data.shape[1] != n_in:
        raise ValueError(f"lstm_layer input shape {table.shape} does not match weights expecting (N, {n_in})")
    if lengths.ndim != 1 or not len(lengths) or lengths.min() < 1 or lengths.sum() != len(rows):
        raise ValueError(f"lstm_layer needs positive lengths summing to {len(rows)} rows, got {lengths.tolist()}")
    # `at`: the positions of the `live[t]` longest sequences' step t, for every t in turn
    live = (lengths[:, None] > np.arange(lengths.max())).sum(axis=0)
    first = (np.cumsum(lengths) - lengths)[np.argsort(-lengths, kind="stable")]
    at = np.concatenate([first[:n] + t for t, n in enumerate(live)])
    starts = np.cumsum(live) - live
    xd = table.data[rows[at]]
    w_x, w_h = wd[:, :n_in], wd[:, n_in:]
    pre = xd @ w_x.T + params.b.data
    out = np.empty((len(xd), h))
    taped = Tape._active is not None
    saved = []
    c = np.zeros((live[0], h))
    for t, (a, n) in enumerate(zip(starts, live)):
        pre_t = pre[a : a + n]
        if t:
            pre_t = pre_t + out[starts[t - 1] : starts[t - 1] + n] @ w_h.T
        c_prev = c[:n]
        act, c, tc, out[a : a + n] = _lstm_gates(pre_t, c_prev, h)
        if taped:
            saved.append((act, c_prev, tc))
    h_t = Tensor(out[np.argsort(at)])  # back into the order of `rows`

    def backward():
        gh = h_t.grad[at]  # each row's output gradient; steps add their recurrent part
        gc = np.zeros_like(out)
        d_pre = np.empty_like(pre)
        for t in reversed(range(len(live))):
            step = slice(starts[t], starts[t] + live[t])
            d_pre[step], gc_prev = _lstm_gates_grad(gh[step], gc[step], *saved[t], h)
            if t:
                prev = slice(starts[t - 1], starts[t - 1] + live[t])
                gh[prev] += d_pre[step] @ w_h
                gc[prev] = gc_prev
        h_prev = np.zeros_like(out)  # step 0 starts from zero states
        h_prev[live[0] :] = out[np.arange(live[0], len(out)) - np.repeat(live[:-1], live[1:])]
        _accum(params.w, d_pre.T @ np.concatenate([xd, h_prev], axis=-1))
        _accum(params.b, d_pre.sum(axis=0))
        if table.grad is not None:
            _scatter_add(table, rows[at], d_pre @ w_x)

    return _record(h_t, backward)


# ---------------------------------------------------------------------------
# teacher-forced decoder


def attention_decoder(
    ids: np.ndarray,
    targets: np.ndarray,
    embedding: Tensor,
    layers: Sequence[LstmParams],
    audio: tuple[Sequence[Tensor], Sequence[Tensor], Sequence[Tensor], np.ndarray, Tensor],
    bias: tuple[Tensor, Tensor, Tensor, Tensor, np.ndarray, Tensor],
    output: tuple[Tensor, Tensor],
) -> Tensor:
    """Every position of a teacher-forced attention decoder, with its output
    layer and loss, as one tape node; returns the scalar summed negative
    log-likelihood of `targets`.

    `ids` and `targets` are (P, B): row t holds the B input tokens of
    position t and the B tokens it emits, -1 on a padded row, which adds
    nothing. Position t runs the stacked LSTM `layers`, from zero states, on
    the `embedding` rows of its tokens joined with position t-1's context
    (zeros at t = 0). The last layer's output d queries two attentions, and
    the position's context joins their contexts: `multi_head_attention(d,
    *audio)` with audio = (wq, keys, values, closed, wo), then
    `additive_attention` with bias = (wd, b, keys, v, score_of, values) and
    no entry closed; `output_layer` with output = (w, b) reads the context
    joined with d. The arithmetic is that of those ops and `lstm_cell`,
    through the helpers they share, and values and gradients match a chain
    of their op-by-op forms up to rounding in the last bits:

    - The embedding half of the first layer's input product, with its bias,
      is one GEMM over every position (the GEMM hoist of `lstm_layer`); a
      position adds only the product of its context and state.
    - A position makes every attention query in one product with the
      stacked `wq`s and `wd`, and its backward returns their gradients to d
      in one product too.
    - The frame mask is made and checked once; the bias softmax has no mask.
    - The output layer runs once, over one buffer of every position's
      context and d. The loss sums the picked log-probabilities in a
      zero-filled array, which keeps the bits of a one-hot product's sum.
    - The backward runs the positions in reverse and writes each one's rows
      into stacked buffers. Then each weight, and each attention's keys and
      values, get their gradients in one product each, and the embedding
      gets its rows from one GEMM and one scatter-add.
    """
    wq, keys, values, closed, wo = audio
    wd, b, bias_keys, v, score_of, h_z = bias
    w_out, b_out = output
    ids, targets = np.asarray(ids, dtype=np.intp), np.asarray(targets, dtype=np.intp)
    ed, w0, wod, hzd = embedding.data, layers[0].w.data, wo.data, h_z.data
    n_emb, n_att = ed.shape[1], wod.shape[0]
    width = n_att + hzd.shape[1]  # a context: the audio context, then the bias context
    if ids.ndim != 2 or targets.shape != ids.shape or w0.shape[1] != n_emb + width + layers[0].hidden:
        raise ValueError(
            f"attention_decoder shape mismatch: ids {ids.shape}, targets {targets.shape}, "
            f"embedding {embedding.shape}, first layer {layers[0].w.shape}, context width {width}"
        )
    n_pos, rows = ids.shape
    if closed.shape != (rows, keys[0].data.shape[0]):
        raise ValueError(f"attention_decoder shape mismatch: {rows} rows, closed {closed.shape}")
    if score_of.shape != hzd.shape[:1]:
        raise ValueError(f"attention_decoder shape mismatch: score_of {score_of.shape}, values {h_z.shape}")
    _check_open(closed)
    cd = np.where(closed, NEG_INF, 0.0)
    kd, vd = [k.data for k in keys], [x.data for x in values]
    bkd, bvd, bd = bias_keys.data, v.data, b.data
    w_q = np.concatenate([w.data for w in wq] + [wd.data])  # the heads' query weights, then the bias attention's
    ends = np.cumsum([w.data.shape[0] for w in wq])
    heads = [slice(e - w.data.shape[0], e) for e, w in zip(ends, wq)]
    at_bias = slice(ends[-1], None)
    # Layer l's [input, previous output] rows of every position, which its
    # weight's gradient reads; position 0 reads zero states and a zero context.
    xs = [np.zeros((ids.size, p.w.data.shape[1])) for p in layers]
    xs[0][:, :n_emb] = ed[ids.reshape(-1)]
    pre_emb = xs[0][:, :n_emb] @ w0[:, :n_emb].T + layers[0].b.data
    x = np.empty((ids.size, width + layers[-1].hidden))  # each position's [context, d] rows
    ctx, out = x[:, :width], x[:, width:]
    q_all = np.empty((ids.size, len(w_q)))
    cells = [np.zeros((rows, p.hidden)) for p in layers]
    gates, cats, alphas, bias_alphas, bias_t = [], [], [], [], []
    for t in range(n_pos):
        r, nxt = slice(t * rows, (t + 1) * rows), slice((t + 1) * rows, (t + 2) * rows)
        for l, p in enumerate(layers):
            n_in = p.w.data.shape[1] - p.hidden
            if l:
                xs[l][r, :n_in] = h
                pre = xs[l][r] @ p.w.data.T + p.b.data
            else:
                pre = pre_emb[r] + xs[0][r, n_emb:] @ w0[:, n_emb:].T
            c_prev = cells[l]
            act, cells[l], tc, h = _lstm_gates(pre, c_prev, p.hidden)
            gates.append((act, c_prev, tc))
            if t + 1 < n_pos:
                xs[l][nxt, n_in:] = h
        out[r] = h
        q = q_all[r] = h @ w_q.T
        cat, a = _dot_heads([q[:, c] for c in heads], kd, vd, cd)
        ctx[r, :n_att] = cat @ wod.T
        scores, t_b = _tanh_block(bkd, q[:, at_bias] + bd, bvd)
        a_b = _softmax(scores[..., score_of])
        ctx[r, n_att:] = a_b @ hzd
        if t + 1 < n_pos:
            xs[0][nxt, n_emb : n_emb + width] = ctx[r]
        cats.append(cat)
        alphas.append(a)
        bias_alphas.append(a_b)
        bias_t.append(t_b)
    log_probs = output_layer(x, w_out, b_out)
    hit = np.flatnonzero(targets >= 0)  # the rows that emit a token
    picked = (hit, targets.reshape(-1)[hit])
    terms = np.zeros_like(log_probs)
    terms[picked] = log_probs[picked]
    loss = Tensor(-terms.sum())

    def backward():
        g = np.zeros_like(log_probs)
        g[picked] = -loss.grad
        g = _log_softmax_grad(g, log_probs)
        _accum(b_out, g.sum(axis=0))
        _accum(w_out, g.T @ x)
        g_x = g @ w_out.data
        # A position adds its recurrent gradients to the rows of the one before.
        g_ctx, g_out = g_x[:, :width], g_x[:, width:]
        d_pres = [np.empty((ids.size, 4 * p.hidden)) for p in layers]
        g_q, g_cat = np.empty_like(q_all), np.empty((ids.size, n_att))
        g_s = [np.empty((ids.size, len(k))) for k in kd]
        g_scores, g_args = np.empty((ids.size, len(bkd))), np.empty((ids.size, *bkd.shape))
        # Each layer's recurrent output and cell gradients, from the next position.
        g_h = [np.zeros((rows, p.hidden)) for p in layers]
        g_c = [np.zeros((rows, p.hidden)) for p in layers]
        for t in reversed(range(n_pos)):
            r, prev = slice(t * rows, (t + 1) * rows), slice((t - 1) * rows, t * rows)
            g_scores[r] = _score_grad(g_ctx[r, n_att:] @ hzd.T, bias_alphas[t], score_of, len(bkd))
            g_args[r] = _tanh_args_grad(g_scores[r], bias_t[t], bvd)
            g_q[r, at_bias] = g_args[r].sum(axis=1)
            g_cat[r] = g_ctx[r, :n_att] @ wod
            q = q_all[r]
            for i in reversed(range(len(kd))):
                c = heads[i]
                g_s[i][r], g_q[r, c] = _dot_head_grad(g_cat[r, c], q[:, c], kd[i], vd[i], alphas[t][i])
            gh = g_out[r] + g_h[-1] + g_q[r] @ w_q
            for l in reversed(range(len(layers))):
                p = layers[l]
                d_pre, g_c[l] = _lstm_gates_grad(gh, g_c[l], *gates[t * len(layers) + l], p.hidden)
                d_pres[l][r] = d_pre
                if l:
                    n_in = p.w.data.shape[1] - p.hidden
                    d_xh = d_pre @ p.w.data
                    g_h[l] = d_xh[:, n_in:]
                    gh = g_h[l - 1] + d_xh[:, :n_in]
                elif t:
                    d_xh = d_pre @ w0[:, n_emb:]
                    g_ctx[prev] += d_xh[:, :width]
                    g_h[0] = d_xh[:, width:]
        for p, d_pre, xh in zip(layers, d_pres, xs):
            _accum(p.w, d_pre.T @ xh)
            _accum(p.b, d_pre.sum(axis=0))
        _scatter_add(embedding, ids.reshape(-1), d_pres[0] @ w0[:, :n_emb])
        _accum(wo, g_ctx[:, :n_att].T @ np.concatenate(cats))
        for i, c in enumerate(heads):
            _accum(values[i], np.concatenate([a[i] for a in alphas]).T @ g_cat[:, c])
            _accum(keys[i], g_s[i].T @ q_all[:, c])
            _accum(wq[i], g_q[:, c].T @ out)
        _accum(h_z, np.concatenate(bias_alphas).T @ g_ctx[:, n_att:])
        _accum(v, _tanh_v_grad(g_scores, np.concatenate(bias_t)))
        _accum(bias_keys, g_args.sum(axis=0))
        _accum(b, g_q[:, at_bias].sum(axis=0))
        _accum(wd, g_q[:, at_bias].T @ out)

    return _record(loss, backward)


# ---------------------------------------------------------------------------
# optimizer


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator floor
CLIP_NORM = 5.0  # the global gradient norm is scaled down to at most this


class Adam:
    """Clipped Adam over `params`, whose storage it takes over.

    At construction every parameter's data and gradient are copied into one
    flat buffer each, in the order of `params`, and each `Tensor`'s `.data`
    and `.grad` become views of them; so `zero_grad` and the update are a
    few whole-buffer calls, and the moments are flat buffers too. A read of
    `.data` or `.grad` taken before the construction no longer follows the
    parameter.
    """

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3):
        self.params = params
        self.lr = lr
        self._step = 0
        sizes = [t.data.size for t in params.values()]
        ends = np.cumsum(sizes, dtype=np.intp)
        self._spans = list(zip(ends - sizes, ends))  # each parameter's entries
        n = sum(sizes)
        self._data, self._grad = np.empty(n), np.empty(n)
        for t, (a, b) in zip(params.values(), self._spans):
            for flat, attr in ((self._data, "data"), (self._grad, "grad")):
                view = flat[a:b].reshape(t.data.shape)
                view[...] = getattr(t, attr)
                setattr(t, attr, view)
        self._m, self._v = np.zeros(n), np.zeros(n)
        self._scratch = np.empty(n)

    def zero_grad(self) -> None:
        self._grad.fill(0.0)

    def step(self) -> None:
        """One clipped Adam update. Every expression is evaluated in the
        order of `grad * factor`, `m += (1 - BETA1) * g`,
        `v += (1 - BETA2) * g * g` and
        `data -= lr * (m / b1t) / (sqrt(v / b2t) + EPS)`, with `out=`; the
        clipping norm sums each parameter's squares on its own, in order.

        The gradient buffer is the second scratch buffer: it is clipped in
        place and afterwards holds the update's denominators, not a
        gradient. A backward adds into the gradients, so `zero_grad` comes
        before the next one anyway.
        """
        g, tmp = self._grad, self._scratch
        sq = np.square(g, out=tmp)
        norm = np.sqrt(sum(float(sq[a:b].sum()) for a, b in self._spans))
        if norm > CLIP_NORM:
            g *= CLIP_NORM / norm
        self._step += 1
        b1t = 1.0 - BETA1**self._step
        b2t = 1.0 - BETA2**self._step
        m, v = self._m, self._v
        m *= BETA1
        m += np.multiply(g, 1.0 - BETA1, out=tmp)
        v *= BETA2
        np.multiply(g, 1.0 - BETA2, out=tmp)
        v += np.multiply(tmp, g, out=tmp)
        update = np.divide(m, b1t, out=tmp)
        update *= self.lr
        denom = np.divide(v, b2t, out=g)
        np.sqrt(denom, out=denom)
        denom += EPS
        self._data -= np.divide(update, denom, out=update)


# ---------------------------------------------------------------------------
# tensor file container and seeded streams


def save_tensors(path, arrays: dict[str, np.ndarray]) -> None:
    """Write named float64 arrays: version tag, manifest, raw little-endian data."""
    manifest = json.dumps([[name, list(a.shape)] for name, a in arrays.items()])
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(manifest.encode("utf-8") + b"\n")
        for a in arrays.values():
            f.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def load_tensors(path) -> dict[str, np.ndarray]:
    """Read a `save_tensors` file. Raises ValueError for a bad version tag, a
    manifest that is not a JSON list of `[name, shape]` pairs (name a string,
    shape a list of ints >= 0), a repeated name, a truncated array, or bytes
    after the last array."""
    with open(path, "rb") as f:
        magic = f.readline()
        if magic != _MAGIC:
            raise ValueError(f"not a tensor file: bad version tag {magic!r}")
        try:
            manifest = json.loads(f.readline().decode("utf-8"))
        except RecursionError:
            raise ValueError("tensor file manifest nests too deeply") from None
        data = f.read()
    if not isinstance(manifest, list):
        raise ValueError("tensor file manifest is not a list")
    out = {}
    pos = 0
    for item in manifest:
        if not (
            isinstance(item, list)
            and len(item) == 2
            and isinstance(item[0], str)
            and isinstance(item[1], list)
            and all(type(n) is int and n >= 0 for n in item[1])
        ):
            raise ValueError(f"tensor file manifest entry {item!r} is not [name, list of ints >= 0]")
        name, shape = item
        if name in out:
            raise ValueError(f"tensor file names {name!r} twice")
        size = 8 * math.prod(shape)
        if len(data) - pos < size:
            raise ValueError(f"truncated tensor file while reading {name!r}")
        out[name] = np.frombuffer(data, dtype="<f8", count=size // 8, offset=pos).reshape(shape).copy()
        pos += size
    if pos != len(data):
        raise ValueError(f"tensor file has {len(data) - pos} bytes after its last array")
    return out


def substream(seed: int, name: str) -> np.random.Generator:
    """Independent reproducible generator derived from one global seed."""
    key = tuple(name.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))
