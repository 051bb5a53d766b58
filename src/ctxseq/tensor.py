"""Dense float64 arrays with reverse-mode differentiation on an explicit tape.

Everything is deliberately small: 1-D/2-D arrays, the handful of ops a stacked
recurrent attention model needs, and an Adam optimizer. Ops executed outside a
`Tape` context run forward-only, which is the fast path used during decoding.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

NEG_INF = float("-inf")  # mask sentinel, handled explicitly by softmax

_CKPT_MAGIC = b"CTXSEQ-TENSORS-1\n"


class NonFiniteError(FloatingPointError):
    """A forward value became NaN/Inf where finite numbers are required."""


class Tensor:
    """A dense float64 array plus an optional same-shape gradient buffer."""

    __slots__ = ("data", "grad")

    def __init__(self, data: np.ndarray, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = (
            np.zeros_like(self.data) if requires_grad else None
        )

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, grad={'yes' if self.grad is not None else 'no'})"


def parameter(data: np.ndarray | Sequence) -> Tensor:
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True)


def constant(data: np.ndarray | Sequence) -> Tensor:
    return Tensor(np.asarray(data, dtype=np.float64))


class Tape:
    """Ordered record of operations; backward replays it in exact reverse."""

    _active: "Tape | None" = None

    def __init__(self):
        self._nodes: list[tuple[Tensor, Callable[[], None]]] = []

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
        """Populate grads of every recorded tensor reachable from `loss`."""
        if loss.data.shape != ():
            raise ValueError(f"backward requires a scalar loss, got shape {loss.data.shape}")
        if loss.grad is None:
            raise ValueError("loss was not recorded on a tape")
        loss.grad[...] = 1.0
        for _, fn in reversed(self._nodes):
            fn()


def _record(out: Tensor, backward_fn: Callable[[], None]) -> Tensor:
    tape = Tape._active
    if tape is not None:
        out.grad = np.zeros_like(out.data)
        tape._nodes.append((out, backward_fn))
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    if t.grad is not None:
        t.grad += g


# ---------------------------------------------------------------------------
# primitive ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product following numpy matmul semantics for 1-D/2-D operands."""
    if a.data.ndim == 0 or b.data.ndim == 0:
        raise ValueError(f"matmul needs 1-D/2-D operands, got shapes {a.shape} and {b.shape}")
    if a.data.shape[-1] != b.data.shape[0]:
        raise ValueError(f"matmul dimension mismatch: {a.shape} @ {b.shape}")
    out = Tensor(a.data @ b.data)
    ad, bd = a.data, b.data

    def backward():
        g = out.grad
        if ad.ndim == 2 and bd.ndim == 2:
            _accum(a, g @ bd.T)
            _accum(b, ad.T @ g)
        elif ad.ndim == 2 and bd.ndim == 1:
            _accum(a, np.outer(g, bd))
            _accum(b, ad.T @ g)
        elif ad.ndim == 1 and bd.ndim == 2:
            _accum(a, bd @ g)
            _accum(b, np.outer(ad, g))
        else:  # 1-D @ 1-D -> scalar
            _accum(a, g * bd)
            _accum(b, g * ad)

    return _record(out, backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; also allows matrix + row-vector broadcast."""
    if a.data.shape != b.data.shape:
        ok = a.data.ndim == 2 and b.data.ndim == 1 and a.data.shape[1] == b.data.shape[0]
        if not ok:
            raise ValueError(f"add shape mismatch: {a.shape} + {b.shape}")
    out = Tensor(a.data + b.data)
    broadcast = a.data.shape != b.data.shape

    def backward():
        _accum(a, out.grad)
        _accum(b, out.grad.sum(axis=0) if broadcast else out.grad)

    return _record(out, backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError(f"mul shape mismatch: {a.shape} * {b.shape}")
    out = Tensor(a.data * b.data)
    ad, bd = a.data, b.data

    def backward():
        _accum(a, out.grad * bd)
        _accum(b, out.grad * ad)

    return _record(out, backward)


def scale(a: Tensor, k: float) -> Tensor:
    out = Tensor(a.data * k)

    def backward():
        _accum(a, out.grad * k)

    return _record(out, backward)


def neg(a: Tensor) -> Tensor:
    return scale(a, -1.0)


def tanh(a: Tensor) -> Tensor:
    out = Tensor(np.tanh(a.data))
    od = out.data

    def backward():
        _accum(a, out.grad * (1.0 - od * od))

    return _record(out, backward)


def sigmoid(a: Tensor) -> Tensor:
    out = Tensor(1.0 / (1.0 + np.exp(-a.data)))
    od = out.data

    def backward():
        _accum(a, out.grad * od * (1.0 - od))

    return _record(out, backward)


def concat(parts: Sequence[Tensor]) -> Tensor:
    for p in parts:
        if p.data.ndim != 1:
            raise ValueError(f"concat takes 1-D tensors, got shape {p.shape}")
    out = Tensor(np.concatenate([p.data for p in parts]))
    sizes = [p.data.shape[0] for p in parts]

    def backward():
        pos = 0
        for p, n in zip(parts, sizes):
            _accum(p, out.grad[pos : pos + n])
            pos += n

    return _record(out, backward)


def stack(rows: Sequence[Tensor]) -> Tensor:
    """Stack 1-D tensors of equal width into a (len(rows), width) matrix."""
    if not rows:
        raise ValueError("stack needs at least one row")
    width = rows[0].data.shape[0]
    for r in rows:
        if r.data.shape != (width,):
            raise ValueError(f"stack row shape mismatch: {r.shape} vs ({width},)")
    out = Tensor(np.stack([r.data for r in rows]))

    def backward():
        for i, r in enumerate(rows):
            _accum(r, out.grad[i])

    return _record(out, backward)


def slice1d(a: Tensor, start: int, stop: int) -> Tensor:
    if a.data.ndim != 1:
        raise ValueError(f"slice1d takes a 1-D tensor, got shape {a.shape}")
    out = Tensor(a.data[start:stop].copy())

    def backward():
        if a.grad is not None:
            a.grad[start:stop] += out.grad

    return _record(out, backward)


def row(a: Tensor, i: int) -> Tensor:
    """Select row i of a matrix (embedding lookup)."""
    if a.data.ndim != 2:
        raise ValueError(f"row takes a 2-D tensor, got shape {a.shape}")
    out = Tensor(a.data[i].copy())

    def backward():
        if a.grad is not None:
            a.grad[i] += out.grad

    return _record(out, backward)


def gather(a: Tensor, index: np.ndarray) -> Tensor:
    """Rows `index` of a vector or matrix, in that order; repeats allowed.

    The backward scatter-adds into the selected rows, so rows that are not
    selected get exactly zero gradient.
    """
    if a.data.ndim not in (1, 2):
        raise ValueError(f"gather takes a 1-D/2-D tensor, got shape {a.shape}")
    index = np.asarray(index, dtype=np.intp)
    if index.ndim != 1:
        raise ValueError(f"gather needs a 1-D index, got shape {index.shape}")
    out = Tensor(a.data[index])

    def backward():
        if a.grad is not None:
            np.add.at(a.grad, index, out.grad)

    return _record(out, backward)


def pick(a: Tensor, i: int) -> Tensor:
    if a.data.ndim != 1:
        raise ValueError(f"pick takes a 1-D tensor, got shape {a.shape}")
    out = Tensor(a.data[i])

    def backward():
        if a.grad is not None:
            a.grad[i] += out.grad

    return _record(out, backward)


def sum_(a: Tensor) -> Tensor:
    out = Tensor(a.data.sum())

    def backward():
        _accum(a, np.full_like(a.data, out.grad))

    return _record(out, backward)


def _masked(values: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    dropped = values == NEG_INF
    if mask is not None:
        m = np.asarray(mask, dtype=np.float64)
        if m.shape != values.shape:
            raise ValueError(f"mask shape mismatch: {m.shape} vs {values.shape}")
        dropped = dropped | (m == np.inf)
    return dropped


def softmax(a: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Stabilized softmax over a 1-D tensor.

    Entries equal to the NEG_INF sentinel, or flagged by an optional
    {0, inf}-valued mask, map to exactly 0 and receive no gradient.
    """
    if a.data.ndim != 1:
        raise ValueError(f"softmax takes a 1-D tensor, got shape {a.shape}")
    dropped = _masked(a.data, mask)
    if dropped.all():
        raise ValueError("no unmasked entry")
    kept = ~dropped
    z = np.zeros_like(a.data)
    x = a.data[kept]
    e = np.exp(x - x.max())
    z[kept] = e / e.sum()
    out = Tensor(z)
    od = out.data

    def backward():
        g = out.grad
        inner = float((g * od).sum())
        _accum(a, np.where(kept, od * (g - inner), 0.0))

    return _record(out, backward)


def log_softmax(a: Tensor) -> Tensor:
    if a.data.ndim != 1:
        raise ValueError(f"log_softmax takes a 1-D tensor, got shape {a.shape}")
    if not np.isfinite(a.data).all():
        raise NonFiniteError("non-finite logits in log_softmax")
    m = a.data.max()
    shifted = a.data - m
    lse = np.log(np.exp(shifted).sum())
    out = Tensor(shifted - lse)
    p = np.exp(out.data)

    def backward():
        g = out.grad
        _accum(a, g - p * g.sum())

    return _record(out, backward)


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


def lstm_cell(
    x_t: Tensor, h_prev: Tensor, c_prev: Tensor, params: LstmParams
) -> tuple[Tensor, Tensor]:
    h = params.hidden
    expected = params.w.data.shape[1] - h
    if x_t.data.shape != (expected,):
        raise ValueError(f"lstm_cell input shape {x_t.shape} does not match weights expecting ({expected},)")
    if h_prev.data.shape != (h,) or c_prev.data.shape != (h,):
        raise ValueError(f"lstm_cell state shapes {h_prev.shape}/{c_prev.shape} do not match hidden size {h}")
    pre = add(matmul(params.w, concat([x_t, h_prev])), params.b)
    i = sigmoid(slice1d(pre, 0, h))
    f = sigmoid(slice1d(pre, h, 2 * h))
    g = tanh(slice1d(pre, 2 * h, 3 * h))
    o = sigmoid(slice1d(pre, 3 * h, 4 * h))
    c_t = add(mul(f, c_prev), mul(i, g))
    h_t = mul(o, tanh(c_t))
    return h_t, c_t


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class Adam:
    params: dict[str, Tensor]
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    clip_norm: float = 5.0
    _step: int = 0
    _m: dict[str, np.ndarray] = field(default_factory=dict)
    _v: dict[str, np.ndarray] = field(default_factory=dict)

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.grad[...] = 0.0

    def step(self) -> None:
        norm = np.sqrt(sum(float((t.grad**2).sum()) for t in self.params.values()))
        factor = self.clip_norm / norm if norm > self.clip_norm else 1.0
        self._step += 1
        b1t = 1.0 - self.beta1**self._step
        b2t = 1.0 - self.beta2**self._step
        for name, t in self.params.items():
            g = t.grad * factor
            m = self._m.setdefault(name, np.zeros_like(t.data))
            v = self._v.setdefault(name, np.zeros_like(t.data))
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            t.data -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)


# ---------------------------------------------------------------------------
# checkpoint container and seeded streams


def save_tensors(path, arrays: dict[str, np.ndarray]) -> None:
    """Write named float64 arrays: version tag, manifest, raw little-endian data."""
    manifest = json.dumps([[name, list(a.shape)] for name, a in arrays.items()])
    with open(path, "wb") as f:
        f.write(_CKPT_MAGIC)
        f.write(manifest.encode("utf-8") + b"\n")
        for a in arrays.values():
            f.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def load_tensors(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as f:
        magic = f.readline()
        if magic != _CKPT_MAGIC:
            raise ValueError(f"not a tensor checkpoint: bad version tag {magic!r}")
        manifest = json.loads(f.readline().decode("utf-8"))
        out = {}
        for name, shape in manifest:
            n = int(np.prod(shape)) if shape else 1
            buf = f.read(8 * n)
            if len(buf) != 8 * n:
                raise ValueError(f"truncated checkpoint while reading {name!r}")
            out[name] = np.frombuffer(buf, dtype="<f8").reshape(shape).copy()
        return out


def substream(seed: int, name: str) -> np.random.Generator:
    """Independent reproducible generator derived from one global seed."""
    key = tuple(name.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def global_grad_norm(params: Iterable[Tensor]) -> float:
    return float(np.sqrt(sum(float((t.grad**2).sum()) for t in params)))
