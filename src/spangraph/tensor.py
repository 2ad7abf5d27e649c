"""Dense float tensors with reverse-mode autodiff, over one array forward per op.

Each op's forward is written once, as a function over numpy arrays
(``linear_np``, ``layer_norm_np``, ``attention_np``, ``gelu_np``,
``embedding_np``, ``dropout_np``).  The tape op of the same name checks its
operands, runs that function on their ``.data`` and records a backward
closure: ``backward`` walks the graph in reverse topological order and
accumulates gradients.  So there are two op sets over one set of kernels:
this module, whose ops take and return ``Tensor`` s, and ``ArrayOps``, the
bare forwards, which take and return arrays and build no ``Tensor``.
``Model``'s layer code takes either, and the two give the same bits.
Op outputs are row-major, except that ``transpose`` returns a view; op
inputs may be strided views, which the kernels read in place.  All
randomness (dropout) flows through explicit generators.

Ops are module functions over 2-D tensors (``Tensor`` has no operators).
``linear`` is a whole affine map ``x @ w + b``, one tape node; ``attention``
splits its (M, D) and (N, D) operands into heads inside.  Only
``attention_np`` also reads keys and values already in that head layout
(``split_heads``), as a decoding cache stores them: decoding runs the array
op set and never differentiates.

``rowwise_kernels`` switches matrix multiplication (per head in ``attention``)
to one BLAS call per output row, and causal ``attention`` to reading each
query row's own key prefix alone: a row's arithmetic is then the same calls on
the same operands however many rows run with it.  Decoding relies on this: a
row computed alone is bit-equal to the same row inside a larger product, which
one blocked BLAS call does not guarantee.  Only what reduces over a row's keys
depends on their count (its score product, the sum of its exp weights and its
weights @ values), so only that runs row by row; elementwise steps, and the
order-free max, run once over the whole block.
"""

from __future__ import annotations

import contextlib
import json
import math
import operator

import numpy as np
from scipy.special import erf

from .fileio import atomic_write


class ShapeMismatch(ValueError):
    pass


class NonFiniteDetected(FloatingPointError):
    pass


class NotScalar(ValueError):
    pass


_grad_enabled = True
_rowwise = False
_check_finite = False


@contextlib.contextmanager
def no_grad():
    """Skip tape recording inside the block (inference)."""
    global _grad_enabled
    prev, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = prev


@contextlib.contextmanager
def rowwise_kernels():
    """Use shape-stable matmul kernels inside the block (see module docstring)."""
    global _rowwise
    prev, _rowwise = _rowwise, True
    try:
        yield
    finally:
        _rowwise = prev


@contextlib.contextmanager
def debug_check_finite():
    """Raise NonFiniteDetected as soon as any op produces a NaN or infinity."""
    global _check_finite
    prev, _check_finite = _check_finite, True
    try:
        yield
    finally:
        _check_finite = prev


def matmul_np(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product, batched over any leading axes; row by row under ``rowwise_kernels``.

    A one-row left operand is already one row: ``a @ b`` is the single call
    the row kernel would make.
    """
    if _rowwise and a.shape[-2] != 1:
        return (a[..., :, None, :] @ b[..., None, :, :])[..., 0, :]
    return a @ b


def neg_fill(dtype) -> float:
    # -inf survives exp() as an exact zero at 64-bit; at 32-bit a large finite
    # constant underflows to zero the same way without tripping inf arithmetic
    return -np.inf if np.dtype(dtype) == np.float64 else -1e9


def masked_softmax_np(x: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    if mask is not None:
        if mask.shape != x.shape:
            mask = np.broadcast_to(mask, x.shape)
        if not mask.any(axis=-1).all():
            raise ShapeMismatch("softmax row with every entry masked")
        x = np.where(mask, x, np.asarray(neg_fill(x.dtype), dtype=x.dtype))
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _gelu_cdf(x: np.ndarray) -> np.ndarray:
    """The standard normal CDF at ``x``, in ``x``'s dtype, computed in one new array."""
    cdf = x * np.asarray(math.sqrt(0.5), dtype=x.dtype)
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    return cdf


def gelu_np(x: np.ndarray) -> np.ndarray:
    out = _gelu_cdf(x)
    out *= x
    return out


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = np.asarray(data, dtype=dtype)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self) -> None:
        self.grad = None

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.dtype}, grad={'set' if self.grad is not None else 'none'})"


def _lift(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.dtype))


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    if _check_finite and not np.all(np.isfinite(data)):
        raise NonFiniteDetected("op produced a non-finite value")
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad or p._parents for p in parents):
        out._parents = parents
        out._backward = backward
        out.requires_grad = True
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def add(a, b) -> Tensor:
    a = a if isinstance(a, Tensor) else _lift(a, b)
    b = _lift(b, a)
    out_data = a.data + b.data

    def backward(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(g, b.shape))

    return _make(out_data, (a, b), backward)


def sub(a, b) -> Tensor:
    a = a if isinstance(a, Tensor) else _lift(a, b)
    b = _lift(b, a)
    out_data = a.data - b.data

    def backward(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(-g, b.shape))

    return _make(out_data, (a, b), backward)


def mul(a, b) -> Tensor:
    a = a if isinstance(a, Tensor) else _lift(a, b)
    b = _lift(b, a)
    out_data = a.data * b.data

    def backward(g):
        _accum(a, _unbroadcast(g * b.data, a.shape))
        _accum(b, _unbroadcast(g * a.data, b.shape))

    return _make(out_data, (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeMismatch(f"matmul expects 2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeMismatch(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    out_data = matmul_np(a.data, b.data)

    def backward(g):
        _accum(a, matmul_np(g, b.data.T))
        _accum(b, matmul_np(a.data.T, g))

    return _make(out_data, (a, b), backward)


def linear_np(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The affine map ``x @ w + b`` of (M, K) rows by a (K, N) matrix and an (N,) bias."""
    out = matmul_np(x, w)
    out += b
    return out


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``linear_np`` as one tape node."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ShapeMismatch(f"linear shapes {x.shape} @ {w.shape} + {b.shape}")
    out_data = linear_np(x.data, w.data, b.data)

    def backward(g):
        _accum(x, matmul_np(g, w.data.T))
        _accum(w, matmul_np(x.data.T, g))
        _accum(b, g.sum(axis=0))

    return _make(out_data, (x, w, b), backward)


def transpose(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise ShapeMismatch(f"transpose expects a 2-D tensor, got shape {x.shape}")
    out_data = x.data.T

    def backward(g):
        _accum(x, g.T)

    return _make(out_data, (x,), backward)


def concat_last_dim(*parts: Tensor) -> Tensor:
    if not parts or any(p.shape[:-1] != parts[0].shape[:-1] for p in parts):
        raise ShapeMismatch(f"concat_last_dim leading dims differ: {[p.shape for p in parts]}")
    out_data = np.concatenate([p.data for p in parts], axis=-1)
    splits = np.cumsum([p.shape[-1] for p in parts])[:-1]

    def backward(g):
        for p, gp in zip(parts, np.split(g, splits, axis=-1)):
            _accum(p, gp)

    return _make(out_data, parts, backward)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    """The same elements in row-major order under a new shape (one -1 is inferred)."""
    out_data = x.data.reshape(shape)

    def backward(g):
        _accum(x, g.reshape(x.shape))

    return _make(out_data, (x,), backward)


def concat_rows(parts: list[Tensor]) -> Tensor:
    if not parts or any(p.data.ndim != 2 for p in parts):
        raise ShapeMismatch("concat_rows expects a non-empty list of 2-D tensors")
    out_data = np.concatenate([p.data for p in parts], axis=0)
    sizes = [p.shape[0] for p in parts]

    def backward(g):
        at = 0
        for p, n in zip(parts, sizes):
            _accum(p, g[at : at + n])
            at += n

    return _make(out_data, tuple(parts), backward)


def softmax_last_dim(x: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Softmax over the last axis; masked entries get probability exactly 0."""
    out_data = masked_softmax_np(x.data, mask)

    def backward(g):
        y = out_data
        inner = (g * y).sum(axis=-1, keepdims=True)
        _accum(x, y * (g - inner))

    return _make(out_data, (x,), backward)


def _mean_last(a: np.ndarray) -> np.ndarray:
    """``a.mean(axis=-1, keepdims=True)``, bit for bit, without numpy's Python wrapper.

    numpy divides the sum by the count as an intp, in float64, and rounds the
    quotient back to the array's dtype.  Here the count is a Python int, which
    numpy casts to the array's own dtype, and the division gives the same
    bits: float64 has 53 >= 2 * 24 + 2 mantissa bits, so a float64 quotient
    rounded to float32 is the float32 quotient.
    """
    total = np.add.reduce(a, axis=-1, keepdims=True)
    return np.divide(total, a.shape[-1], out=total)


def _normalize(x: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Rows of ``x`` centred and scaled to unit variance, and the inverse deviations.

    The mean and variance are computed as ndarray.mean / ndarray.var compute them.
    """
    xhat = x - _mean_last(x)
    inv = 1.0 / np.sqrt(_mean_last(np.square(xhat)) + np.asarray(eps, dtype=x.dtype))
    xhat *= inv
    return xhat, inv


def layer_norm_np(x: np.ndarray, gain: np.ndarray, bias: np.ndarray,
                  eps: float = 1e-5) -> np.ndarray:
    out = _normalize(x, eps)[0]
    out *= gain
    out += bias
    return out


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    xhat, inv = _normalize(x.data, eps)
    out_data = gain.data * xhat + bias.data
    d = x.shape[-1]

    def backward(g):
        lead = tuple(range(g.ndim - 1))
        _accum(gain, (g * xhat).sum(axis=lead))
        _accum(bias, g.sum(axis=lead))
        gx = g * gain.data
        term = gx - _mean_last(gx) - xhat * (gx * xhat).sum(
            axis=-1, keepdims=True
        ) / d
        _accum(x, term * inv)

    return _make(out_data, (x, gain, bias), backward)


def gelu(x: Tensor) -> Tensor:
    cdf = _gelu_cdf(x.data)
    out_data = x.data * cdf

    def backward(g):
        z = x.data
        pdf = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        _accum(x, (g * (cdf + z * pdf)).astype(x.dtype, copy=False))

    return _make(out_data, (x,), backward)


def _dropout_scale(shape, p: float, rng: np.random.Generator | None, dtype) -> np.ndarray:
    """Inverted-dropout multipliers: 0 with probability p, else 1 / (1 - p)."""
    if rng is None:
        raise ValueError("dropout in train mode needs an rng")
    return (rng.random(shape) >= p).astype(dtype) * np.asarray(1.0 / (1.0 - p), dtype=dtype)


def dropout_np(x: np.ndarray, p: float, rng: np.random.Generator | None,
               train: bool) -> np.ndarray:
    if not train or p <= 0.0:
        return x
    return x * _dropout_scale(x.shape, p, rng, x.dtype)


def dropout(x: Tensor, p: float, rng: np.random.Generator | None, train: bool) -> Tensor:
    if not train or p <= 0.0:
        return x
    drop = _dropout_scale(x.shape, p, rng, x.dtype)
    out_data = x.data * drop

    def backward(g):
        _accum(x, g * drop)

    return _make(out_data, (x,), backward)


def split_heads(x: np.ndarray, groups: int, heads: int, keys: bool = False) -> np.ndarray:
    """(G*n, D) rows in attention's head layout: (G, heads, n, dk), keys (G, heads, dk, n)."""
    rows, d = x.shape
    split = x.reshape(groups, rows // groups, heads, d // heads)
    return np.ascontiguousarray(split.transpose((0, 2, 3, 1) if keys else (0, 2, 1, 3)))


def _merge_heads(x: np.ndarray) -> np.ndarray:
    """(G, heads, rows, dk) head blocks back to (G*rows, heads*dk) rows."""
    g, heads, rows, dk = x.shape
    return x.transpose(0, 2, 1, 3).reshape(g * rows, heads * dk)


def _attend(q, k, v, heads, mask, dropout_p, rng, train, sink, groups, start):
    """``attention``'s forward over arrays: its output and what its backward reads."""
    d = q.shape[1]
    dk = d // heads
    split_kv = k.ndim == 4
    qh = split_heads(q, groups, heads)
    kt, vh = (k, v) if split_kv else (split_heads(k, groups, heads, True),
                                      split_heads(v, groups, heads))
    m, n = qh.shape[2], vh.shape[2]
    if start is not None and (start < 0 or start + m != n):
        raise ShapeMismatch(f"{m} query rows from position {start} have no key prefix "
                            f"among {n} keys")
    if mask is not None and _rowwise:
        raise ShapeMismatch("under rowwise_kernels causal attention reads key prefixes "
                            "(start), not a mask")
    scale = np.asarray(1.0 / math.sqrt(dk), dtype=q.dtype)
    # row i's key prefix ends at ``ends[i]``; one row per group reads every key
    ends = range(start + 1, n + 1) if start is not None and m > 1 else None
    if ends is not None and not _rowwise:  # the prefixes as a mask over all keys
        causal = np.arange(n) <= np.arange(start, n)[:, None]
        mask, ends = (causal if mask is None else causal & mask), None
    if ends is None:
        w = masked_softmax_np(matmul_np(qh, kt) * scale, mask)
    else:  # a spare key column: even the longest prefix is a strided view, as in a cache
        kt = kt if split_kv else np.concatenate([kt, kt[..., :1]], axis=-1)[..., :n]
        # a row's scores and its exp sum read its own key prefix alone; the
        # scale, max-shift, exp and divide act elementwise (the max is
        # order-free), so they run once over the block, -inf past each prefix
        w = np.full(qh.shape[:3] + (n,), -np.inf, q.dtype)
        for i, p in enumerate(ends):
            w[..., i:i + 1, :p] = matmul_np(qh[..., i:i + 1, :], kt[..., :p])
        w *= scale
        w -= w.max(axis=-1, keepdims=True)
        np.exp(w, out=w)
        w /= np.concatenate([w[..., i:i + 1, :p].sum(axis=-1, keepdims=True)
                             for i, p in enumerate(ends)], 2)
    if sink is not None:
        sink.append(w[0] if groups == 1 else w)
    drop = _dropout_scale(w.shape, dropout_p, rng, w.dtype) if train and dropout_p > 0 else None
    wd = w if drop is None else w * drop
    ctx = matmul_np(wd, vh) if ends is None else np.concatenate(
        [matmul_np(wd[..., i:i + 1, :p], vh[..., :p, :]) for i, p in enumerate(ends)], 2)
    return _merge_heads(ctx), (qh, kt, vh, w, wd, drop, scale)


def attention_np(q: np.ndarray, k: np.ndarray, v: np.ndarray, heads: int,
                 mask: np.ndarray | None = None, dropout_p: float = 0.0,
                 rng: np.random.Generator | None = None, train: bool = False,
                 sink: list | None = None, groups: int = 1,
                 start: int | None = None) -> np.ndarray:
    """``attention`` over arrays, with no shape checks beyond the key prefixes'.

    ``k`` and ``v`` may also come in the head layout of ``split_heads``, k as
    (G, heads, dk, n) and v as (G, heads, n, dk), with any strides, as a
    decoding cache holds them; they are read in place.
    """
    return _attend(q, k, v, heads, mask, dropout_p, rng, train, sink, groups, start)[0]


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int, mask: np.ndarray | None = None,
              dropout_p: float = 0.0, rng: np.random.Generator | None = None,
              train: bool = False, sink: list | None = None, groups: int = 1,
              start: int | None = None) -> Tensor:
    """Multi-head scaled dot-product attention of (M, D) queries over (N, D) keys/values.

    The rows split into ``groups`` equal segments, m = M / G queries and
    n = N / G keys each, and segment g of the queries attends only to segment
    g of the keys and values, so no score is computed across groups.  Head h
    uses column block h (width D / heads) of q, k and v and writes the same
    block of the output.  Which keys a query may attend to is given by one
    of:

    - ``start``: causal attention by key prefixes.  Query row i of each group
      sits at position ``start + i`` and attends to the first
      ``start + i + 1`` keys, so n must be ``start + m``.  Under
      ``rowwise_kernels`` each query reads its own prefix alone: a row's
      score product, exp sum and weights @ values see exactly its prefix,
      while the scale, max-shift, exp and divide run once over the
      (G, heads, m, n) block with -inf past each prefix, which leaves the
      same bits and zero weights there;
    - ``mask``: (m, n), shared by every group, True where a query may
      attend (not under ``rowwise_kernels``, whose rows read key prefixes);
    - neither: every query attends to every key of its group.

    Train-mode dropout on the weights draws one ``rng.random((G, heads, m,
    n))``; ``sink`` gets the weights before it, (heads, M, N) for one group,
    else (G, heads, m, n).
    """
    (rows_q, d), n = q.shape, k.shape[0] // max(groups, 1)
    if (heads < 1 or d % heads or groups < 1 or rows_q % groups
            or k.shape != (groups * n, d) or v.shape != k.shape):
        raise ShapeMismatch(f"attention shapes {q.shape}, {k.shape}, {v.shape} with "
                            f"{heads} heads, {groups} groups")
    out_data, (qh, kt, vh, w, wd, drop, scale) = _attend(
        q.data, k.data, v.data, heads, mask, dropout_p, rng, train, sink, groups, start)

    def backward(g):
        gh = split_heads(g, groups, heads)
        gw = matmul_np(gh, vh.transpose(0, 1, 3, 2))
        if drop is not None:
            gw = gw * drop
        gs = w * (gw - (gw * w).sum(axis=-1, keepdims=True)) * scale
        _accum(q, _merge_heads(matmul_np(gs, kt.transpose(0, 1, 3, 2))))
        _accum(k, _merge_heads(matmul_np(gs.transpose(0, 1, 3, 2), qh)))
        _accum(v, _merge_heads(matmul_np(wd.transpose(0, 1, 3, 2), gh)))

    return _make(out_data, (q, k, v), backward)


def embedding_np(table: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Rows ``ids`` of ``table``; ids are not checked, and a negative one counts from the end."""
    return table[ids]


def embedding_lookup(table: Tensor, ids) -> Tensor:
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1 or table.data.ndim != 2:
        raise ShapeMismatch("embedding_lookup expects a 2-D table and 1-D ids")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ShapeMismatch("embedding id outside table")
    out_data = embedding_np(table.data, ids)

    def backward(g):
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
        np.add.at(table.grad, ids, g)

    return _make(out_data, (table,), backward)


def cross_entropy(logits: Tensor, targets, mask: np.ndarray | None = None,
                  weights: np.ndarray | None = None) -> Tensor:
    """Negative log-likelihood of ``targets`` rows under masked softmax.

    The rows' NLLs are summed with ``weights`` (one per row), by default 1/n:
    the mean.
    """
    targets = np.atleast_1d(np.asarray(targets, dtype=np.int64))
    x = logits.data if logits.data.ndim == 2 else logits.data[None, :]
    n = len(targets)
    if targets.shape[0] != x.shape[0]:
        raise ShapeMismatch("one target per logits row required")
    w = np.full(n, 1.0 / n) if weights is None else np.asarray(weights)
    if w.shape != (n,):
        raise ShapeMismatch("one weight per logits row required")
    w = w.astype(x.dtype, copy=False)
    if mask is not None:
        mask = np.broadcast_to(np.asarray(mask, dtype=bool), x.shape)
        if not mask[np.arange(n), targets].all():
            raise ValueError("a target id is masked out")
    probs = masked_softmax_np(x, mask)
    picked = probs[np.arange(n), targets]
    out_data = np.asarray(-(np.log(picked) * w).sum(), dtype=x.dtype)

    def backward(g):
        grad = probs.copy()
        grad[np.arange(n), targets] -= 1.0
        grad *= (w * g)[:, None]
        _accum(logits, grad.reshape(logits.shape))

    return _make(out_data, (logits,), backward)


def sum_all(x: Tensor) -> Tensor:
    out_data = np.asarray(x.data.sum(), dtype=x.dtype)

    def backward(g):
        _accum(x, np.full_like(x.data, g))

    return _make(out_data, (x,), backward)


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every tensor reachable from a scalar loss."""
    if loss.data.ndim != 0:
        raise NotScalar(f"backward needs a scalar, got shape {loss.shape}")
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


# This module is the tape op set: ``Model``'s layer code calls ``ops.linear``
# and the rest with ``ops`` either this module or ``ArrayOps``.

def param(t: Tensor) -> Tensor:
    """A parameter as a tape operand: the ``Tensor`` itself, which collects its gradient."""
    return t


class ArrayOps:
    """The array op set: the tape ops' forwards alone, over bare arrays.

    Each op returns the array its tape op would hold in ``.data``, bit for
    bit, and builds no ``Tensor`` and no tape.  Only ``attention`` checks
    anything (its key prefixes); callers check ids and shapes once for a
    whole forward, as ``DecodeRuntime`` does.
    """

    param = staticmethod(operator.attrgetter("data"))
    add = staticmethod(np.add)
    mul = staticmethod(np.multiply)
    matmul = staticmethod(matmul_np)
    reshape = staticmethod(np.reshape)
    concat_last_dim = staticmethod(lambda *parts: np.concatenate(parts, axis=-1))
    concat_rows = staticmethod(lambda parts: np.concatenate(parts, axis=0))
    embedding_lookup = staticmethod(embedding_np)
    linear = staticmethod(linear_np)
    layer_norm = staticmethod(layer_norm_np)
    gelu = staticmethod(gelu_np)
    dropout = staticmethod(dropout_np)
    attention = staticmethod(attention_np)


def save_arrays(path: str, arrays: dict[str, np.ndarray], meta: dict | None = None) -> None:
    """Write named arrays (plus a JSON metadata blob) to one .npz file, atomically."""
    payload = dict(arrays)
    if meta is not None:
        payload["__meta__"] = np.asarray(json.dumps(meta, sort_keys=True))
    with atomic_write(path, binary=True) as fh:
        np.savez(fh, **payload)


def load_arrays(path: str) -> tuple[dict[str, np.ndarray], dict | None]:
    with np.load(path, allow_pickle=False) as zf:
        arrays = {k: zf[k] for k in zf.files if k != "__meta__"}
        meta = json.loads(str(zf["__meta__"])) if "__meta__" in zf.files else None
    return arrays, meta
