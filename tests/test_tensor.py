import contextlib
import math
import os

import numpy as np
import pytest

from spangraph import tensor as T
from spangraph.decode import DRAFT
from _gradcheck import check_op, scalarize
from _helpers import reference_mean_last


class TestNumpyKernels:
    def test_softmax_two_zeros(self):
        out = T.masked_softmax_np(np.array([[0.0, 0.0]]), None)
        np.testing.assert_array_equal(out, [[0.5, 0.5]])

    def test_softmax_masked_middle(self):
        x = np.array([[5.0, 5.0, 5.0]])
        mask = np.array([[True, False, True]])
        out = T.masked_softmax_np(x, mask)
        np.testing.assert_array_equal(out, [[0.5, 0.0, 0.5]])

    def test_masked_probability_exactly_zero_float32(self):
        x = np.array([[1.0, 2.0, 3.0]], dtype=np.float32)
        mask = np.array([[True, True, False]])
        out = T.masked_softmax_np(x, mask)
        assert out.dtype == np.float32
        assert out[0, 2] == 0.0
        assert abs(float(out[0, :2].sum()) - 1.0) < 1e-6

    def test_all_masked_row_raises(self):
        with pytest.raises(T.ShapeMismatch):
            T.masked_softmax_np(np.zeros((2, 3)), np.zeros((2, 3), dtype=bool))

    def test_rowwise_matmul_matches_blas(self, rng):
        a = rng.standard_normal((7, 5))
        b = rng.standard_normal((5, 3))
        fast = T.matmul_np(a, b)
        with T.rowwise_kernels():
            slow = T.matmul_np(a, b)
        np.testing.assert_allclose(fast, slow, rtol=1e-12)

    def test_rowwise_matmul_row_stable(self, rng):
        # the row-at-a-time kernel must give bitwise-identical rows regardless
        # of how many other rows are in the batch
        a = rng.standard_normal((7, 5))
        b = rng.standard_normal((5, 3))
        with T.rowwise_kernels():
            full = T.matmul_np(a, b)
            one = T.matmul_np(a[2:3], b)
        assert (full[2:3] == one).all()

    def test_gelu_reference_values(self):
        x = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        want = x * 0.5 * (1.0 + np.array([math.erf(v / math.sqrt(2)) for v in x]))
        np.testing.assert_allclose(T.gelu_np(x), want, rtol=1e-15)

    def test_gelu_evaluates_erf_once(self, rng, monkeypatch):
        # backward reuses the CDF of the forward instead of recomputing it
        calls, erf = [], T.erf

        def counted(z, *args, **kwargs):
            calls.append(z.shape)
            return erf(z, *args, **kwargs)

        monkeypatch.setattr(T, "erf", counted)
        x = T.Tensor(rng.standard_normal((3, 7)), requires_grad=True)
        T.backward(scalarize(T.gelu(x), np.ones(x.shape)))
        assert calls == [(3, 7)]
        assert x.grad is not None


def _unaligned(a: np.ndarray) -> np.ndarray:
    """A fresh C-ordered copy of ``a`` whose data starts one element into its buffer."""
    buf = np.empty(a.size + 1, a.dtype)
    out = buf[1:].reshape(a.shape)
    out[...] = a
    return out


def _cache_view(b: np.ndarray, spare: int) -> np.ndarray:
    """``b`` as the filled columns of a wider buffer: leading stride > used width."""
    buf = np.zeros(b.shape[:-1] + (b.shape[-1] + spare,), b.dtype)
    buf[..., : b.shape[-1]] = b
    return buf[..., : b.shape[-1]]


class TestRowwiseMatmul:
    """Under ``rowwise_kernels`` a row of a product does not depend on its batch.

    Each case computes a batch, then every row again on its own, from fresh
    unaligned copies, and asks for the same bits.  A strided view is compared
    with a view of another stride and a transposed view with a transposed
    view: at N = 1 a contiguous column takes a different numpy path from a
    strided one, and a transposed operand a different BLAS kernel.
    """

    DTYPES = [np.float32, np.float64]

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("m", [1, 3, 33])
    @pytest.mark.parametrize("k", [5, 67])
    @pytest.mark.parametrize("n", [1, 403])
    def test_row_alone_equals_row_in_batch(self, rng, dtype, m, k, n):
        a, b = (rng.standard_normal(s).astype(dtype) for s in ((m, k), (k, n)))
        with T.rowwise_kernels():
            full = T.matmul_np(a, b)
            for i in range(m):
                assert (T.matmul_np(a[i:i + 1], b) == full[i:i + 1]).all()
                assert (T.matmul_np(_unaligned(a[i:i + 1]), _unaligned(b)) == full[i:i + 1]).all()

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_leading_batch_axes(self, rng, dtype):
        # (G, heads, m, k) against per-item and broadcast right operands
        a = rng.standard_normal((2, 3, 5, 67)).astype(dtype)
        b = rng.standard_normal((2, 3, 67, 403)).astype(dtype)
        with T.rowwise_kernels():
            for right in (b, b[1, 2]):
                full = T.matmul_np(a, right)
                for g, h, i in np.ndindex(a.shape[:3]):
                    item = right if right.ndim == 2 else right[g, h]
                    alone = T.matmul_np(_unaligned(a[g, h, i:i + 1]), _unaligned(item))
                    assert (alone == full[g, h, i:i + 1]).all()

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("n", [1, 2, 403])
    def test_strided_cache_view(self, rng, dtype, n):
        # keys as a decoding cache holds them: (G, heads, dk, rows), first n filled
        a = rng.standard_normal((2, 3, 4, 16)).astype(dtype)
        keys = rng.standard_normal((2, 3, 16, n)).astype(dtype)
        with T.rowwise_kernels():
            full = T.matmul_np(a, _cache_view(keys, 37))
            for g, h, i in np.ndindex(a.shape[:3]):
                alone = T.matmul_np(_unaligned(a[g, h, i:i + 1]), _cache_view(keys[g, h], 5))
                assert (alone == full[g, h, i:i + 1]).all()

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("n", [1, 2, 403])
    def test_key_prefix_with_one_spare_column(self, rng, dtype, n):
        # teacher-forced attention reads its longest key prefix from a buffer
        # with one spare column, a cache at another stride
        a = rng.standard_normal((2, 3, 1, 16)).astype(dtype)
        keys = rng.standard_normal((2, 3, 16, n)).astype(dtype)
        with T.rowwise_kernels():
            spare = T.matmul_np(a, _cache_view(keys, 1))
            assert (spare == T.matmul_np(_unaligned(a), _cache_view(keys, 37))).all()

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("k", [5, 67])
    def test_transposed_view(self, rng, dtype, k):
        # pointer scores z @ E^T, E^T a transposed view of each sentence's (V, D) rows
        z = rng.standard_normal((4, 1, k)).astype(dtype)
        E = rng.standard_normal((4, 403, k)).astype(dtype)
        with T.rowwise_kernels():
            full = T.matmul_np(z, E.transpose(0, 2, 1))
            for b in range(4):
                alone = T.matmul_np(_unaligned(z[b]), _unaligned(E[b]).T)
                assert (alone == full[b]).all()


    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("k", [5, 67])
    @pytest.mark.parametrize("n", [1, 2, 403])
    def test_one_row_left_operand_is_the_row_kernel(self, rng, dtype, k, n):
        # a one-row product runs as ``a @ b``, the single call the row kernel makes
        def row_kernel(a, b):
            return (a[..., :, None, :] @ b[..., None, :, :])[..., 0, :]

        block = rng.standard_normal((2, 3, 5, k + 4)).astype(dtype)
        b = rng.standard_normal((2, 3, k, n)).astype(dtype)
        E = rng.standard_normal((2, 3, n, k)).astype(dtype)
        lefts = [block[..., 2:3, :k],  # one query row of a block, as attention reads it
                 np.ascontiguousarray(block[..., 2:3, :k]), _unaligned(block[1, 2, 2:3, :k])]
        rights = [b, b[1, 2], _cache_view(b, 37), E.transpose(0, 1, 3, 2), _unaligned(b)]
        with T.rowwise_kernels():
            for left in lefts:
                for right in rights:
                    got = T.matmul_np(left, right)
                    want = row_kernel(left, right)
                    assert got.shape == want.shape and got.dtype == want.dtype
                    assert got.tobytes() == np.ascontiguousarray(want).tobytes()


class TestLinear:
    """``linear`` is the pair ``add(matmul(x, w), b)`` fused into one op, bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rowwise", [False, True])
    @pytest.mark.parametrize("m", [1, 3, 33])
    def test_bit_equal_to_matmul_then_add(self, rng, dtype, rowwise, m):
        arrays = [rng.standard_normal(s).astype(dtype) for s in ((m, 24), (24, 40), (40,))]
        proj = rng.standard_normal((m, 40)).astype(dtype)

        def run(op):
            x, w, b = (T.Tensor(a.copy(), requires_grad=True) for a in arrays)
            with T.rowwise_kernels() if rowwise else contextlib.nullcontext():
                out = op(x, w, b)
                T.backward(scalarize(out, proj))
            return [out.data, x.grad, w.grad, b.grad]

        fused = run(T.linear)
        pair = run(lambda x, w, b: T.add(T.matmul(x, w), b))
        for got, want in zip(fused, pair):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_one_tape_node(self, rng):
        x, w, b = (T.Tensor(rng.standard_normal(s), requires_grad=True)
                   for s in ((2, 3), (3, 4), (4,)))
        out = T.linear(x, w, b)
        assert out._parents == (x, w, b)

    @pytest.mark.parametrize("shapes", [
        ((3,), (3, 4), (4,)),       # 1-D rows
        ((2, 3), (5, 4), (4,)),     # inner dims differ
        ((2, 3), (3, 4), (5,)),     # bias length is not the output width
        ((2, 3), (3, 4), (1, 4)),   # 2-D bias
    ])
    def test_shape_mismatch(self, shapes):
        x, w, b = (T.Tensor(np.zeros(s)) for s in shapes)
        with pytest.raises(T.ShapeMismatch):
            T.linear(x, w, b)


class TestMeanLast:
    """``_mean_last`` divides in the array's dtype and keeps numpy's float64-quotient bits."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("d", [7, 64, 100, 256])
    def test_bit_equal_to_the_intp_division(self, rng, dtype, d):
        for scale in (1e-3, 1.0, 1e4):
            a = (scale * rng.standard_normal((500, d))).astype(dtype)
            got = T._mean_last(a)
            assert got.dtype == dtype and got.shape == (500, 1)
            assert got.tobytes() == reference_mean_last(a).tobytes()
            assert got.tobytes() == a.mean(axis=-1, keepdims=True).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("d", [7, 64, 100, 256])
    def test_layer_norm_bit_equal_under_the_oracle(self, rng, monkeypatch, dtype, d):
        arrays = [rng.standard_normal(s).astype(dtype) for s in ((9, d), (d,), (d,))]
        proj = rng.standard_normal((9, d)).astype(dtype)

        def run():
            x, g, b = (T.Tensor(a.copy(), requires_grad=True) for a in arrays)
            out = T.layer_norm(x, g, b)
            T.backward(scalarize(out, proj))
            return [out.data, x.grad, g.grad, b.grad]

        fast = run()
        monkeypatch.setattr(T, "_mean_last", reference_mean_last)
        for got, want in zip(fast, run()):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestAutogradValues:
    @pytest.mark.parametrize("shape", [(3, 4), (2, 3, 4), ()])
    def test_scalarize_seeds_the_projection(self, rng, shape):
        # the gradient tests' scalarizer hands backward ``proj`` bit for bit
        x = T.Tensor(rng.standard_normal(shape), requires_grad=True)
        proj = rng.standard_normal(shape)
        T.backward(scalarize(x, proj))
        assert x.grad.shape == shape and x.grad.tobytes() == proj.tobytes()

    def test_product_grads_are_each_other(self):
        x = T.Tensor(np.array(3.0), requires_grad=True)
        y = T.Tensor(np.array(4.0), requires_grad=True)
        T.backward(T.mul(x, y))
        assert float(x.grad) == 4.0
        assert float(y.grad) == 3.0

    def test_backward_requires_scalar(self):
        x = T.Tensor(np.zeros((2, 2)), requires_grad=True)
        with pytest.raises(T.NotScalar):
            T.backward(T.add(x, x))

    def test_matmul_shape_mismatch(self):
        a = T.Tensor(np.zeros((2, 3)))
        b = T.Tensor(np.zeros((4, 2)))
        with pytest.raises(T.ShapeMismatch):
            T.matmul(a, b)

    def test_grad_accumulates_and_zeroes(self):
        x = T.Tensor(np.array([1.0, 2.0]), requires_grad=True)
        T.backward(scalarize(T.mul(x, x), np.ones(2)))
        first = x.grad.copy()
        T.backward(scalarize(T.mul(x, x), np.ones(2)))
        np.testing.assert_array_equal(x.grad, 2 * first)
        x.grad = None  # as AdamW.zero_grad does
        T.backward(scalarize(T.mul(x, x), np.ones(2)))
        np.testing.assert_array_equal(x.grad, first)

    def test_no_grad_suppresses_tape(self):
        x = T.Tensor(np.array([1.0]), requires_grad=True)
        with T.no_grad():
            out = T.mul(x, x)
        assert out._parents == ()

    def test_uniform_logit_cross_entropy_is_log_m(self):
        # uniform logits over m legal symbols give loss ln(m) per position
        V = 6
        logits = T.Tensor(np.zeros((3, V)))
        mask = np.zeros((3, V), dtype=bool)
        mask[0, :2] = True
        mask[1, :3] = True
        mask[2, :6] = True
        targets = np.array([0, 1, 5])
        loss = T.cross_entropy(logits, targets, mask)
        want = (math.log(2) + math.log(3) + math.log(6)) / 3.0
        assert abs(loss.item() - want) < 1e-12

    def test_cross_entropy_masked_target_rejected(self):
        logits = T.Tensor(np.zeros((1, 4)))
        mask = np.array([[True, False, True, True]])
        with pytest.raises(ValueError):
            T.cross_entropy(logits, np.array([1]), mask)


class TestGradients:
    def test_add_broadcast(self, rng):
        check_op(T.add, [rng.standard_normal((3, 4)), rng.standard_normal((4,))], rng)

    def test_sub_broadcast(self, rng):
        # a - b spelled with the kept ops; a leading axis and a size-1 axis of b both sum out
        check_op(lambda a, b: T.add(a, T.mul(b, np.asarray(-1.0))),
                 [rng.standard_normal((2, 3, 4)), rng.standard_normal((3, 1))], rng)

    def test_mul_broadcast(self, rng):
        check_op(T.mul, [rng.standard_normal((3, 4)), rng.standard_normal((1, 4))], rng)

    def test_matmul(self, rng):
        check_op(T.matmul, [rng.standard_normal((5, 3)), rng.standard_normal((3, 4))], rng)

    def test_linear(self, rng):
        check_op(T.linear, [rng.standard_normal((5, 3)), rng.standard_normal((3, 4)),
                            rng.standard_normal(4)], rng)

    def test_transpose(self, rng):
        check_op(T.transpose, [rng.standard_normal((3, 5))], rng)

    def test_concat_last_dim(self, rng):
        check_op(lambda a, b: T.concat([a, b], -1),
                 [rng.standard_normal((4, 3)), rng.standard_normal((4, 2))], rng)

    def test_concat_rows(self, rng):
        check_op(lambda *parts: T.concat(parts, 0),
                 [rng.standard_normal((2, 3)), rng.standard_normal((4, 3)),
                  rng.standard_normal((1, 3))], rng)

    def test_concat_last_dim_three_parts(self, rng):
        check_op(lambda *parts: T.concat(parts, -1),
                 [rng.standard_normal((4, 3)), rng.standard_normal((4, 2)),
                  rng.standard_normal((4, 5))], rng)

    def test_reshape(self, rng):
        check_op(lambda x: T.reshape(x, (-1, 4)), [rng.standard_normal((3, 8))], rng)

    def test_layer_norm(self, rng):
        check_op(T.layer_norm,
                 [rng.standard_normal((3, 8)), rng.standard_normal(8), rng.standard_normal(8)],
                 rng)

    def test_gelu(self, rng):
        check_op(T.gelu, [rng.standard_normal((3, 7))], rng)

    def test_dropout(self, rng):
        def op(x):
            return T.dropout(x, 0.4, np.random.default_rng(7), train=True)
        check_op(op, [rng.standard_normal((6, 5))], rng)

    def test_embedding_lookup_with_duplicates(self, rng):
        ids = np.array([0, 2, 2, 1, 0])
        check_op(lambda t: T.embedding_lookup(t, ids), [rng.standard_normal((4, 5))], rng)

    def test_cross_entropy(self, rng):
        targets = np.array([1, 0, 3])
        mask = np.ones((3, 4), dtype=bool)
        mask[0, 2] = False
        check_op(lambda x: T.cross_entropy(x, targets, mask), [rng.standard_normal((3, 4))], rng)

    def test_cross_entropy_row_weights(self, rng):
        targets = np.array([1, 0, 3, 2])
        mask = np.ones((4, 5), dtype=bool)
        mask[0, 2] = mask[3, 4] = False
        weights = np.array([0.125, 0.125, 0.5, 0.25])
        check_op(lambda x: T.cross_entropy(x, targets, mask, weights),
                 [rng.standard_normal((4, 5))], rng)

    def test_cross_entropy_needs_one_weight_per_row(self):
        with pytest.raises(T.ShapeMismatch):
            T.cross_entropy(T.Tensor(np.zeros((3, 4))), np.array([1, 0, 3]), weights=np.ones(2))


def _attention_reference(q, k, v, heads, mask):
    """Per-head loop: softmax(q_h k_h^T / sqrt(dk)) v_h, heads concatenated."""
    dk = q.shape[1] // heads
    parts = []
    for h in range(heads):
        cols = slice(h * dk, (h + 1) * dk)
        scores = q[:, cols] @ k[:, cols].T / math.sqrt(dk)
        parts.append(T.masked_softmax_np(scores, mask) @ v[:, cols])
    return np.concatenate(parts, axis=1)


def _softmax_oracle(s, mask, scale=1.0):
    """The softmax as first written: hidden scores filled with -1e9 in
    float32 and -inf in float64, then shift, exp and divide, each a new array."""
    fill = np.asarray(-1e9 if s.dtype == np.float32 else -np.inf, dtype=s.dtype)
    x = s * np.asarray(scale, dtype=s.dtype)
    if mask is not None:
        x = np.where(mask, x, fill)
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


class TestSoftmaxOracle:
    """Weights and outputs bit-equal to the first softmax, with -inf in every dtype."""

    @staticmethod
    def _reference(q, k, v, heads, groups, mask):
        qh, kt, vh = (T.split_heads(q, groups, heads), T.split_heads(k, groups, heads, True),
                      T.split_heads(v, groups, heads))
        w = _softmax_oracle(qh @ kt, mask, 1.0 / math.sqrt(q.shape[1] // heads))
        ctx = w @ vh
        return w, ctx.transpose(0, 2, 1, 3).reshape(q.shape[0], q.shape[1])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", ["mask", "groups", "start", "start-offset",
                                      "start-and-block"])
    def test_attention_weights_and_outputs(self, rng, dtype, case):
        heads, d = 2, 6
        m, n, groups, mask, start = 5, 5, 1, None, None
        if case == "mask":
            n = 7
            mask = rng.random((m, n)) < 0.6
            mask[:, 0] = True
        elif case == "groups":
            groups, m, n = 3, 2, 4
        elif case == "start":
            start = 0
            ref_mask = np.tril(np.ones((m, n), dtype=bool))
        elif case == "start-offset":
            m, n, start = 3, 6, 3
            ref_mask = np.tril(np.ones((m, n), dtype=bool), k=start)
        else:  # packed examples of 2 and 3 rows under one block mask
            seg = np.repeat([0, 1], [2, 3])
            mask, start = seg[:, None] == seg[None, :], 0
            ref_mask = mask & np.tril(np.ones((m, n), dtype=bool))
        q = rng.standard_normal((groups * m, d)).astype(dtype)
        k, v = (rng.standard_normal((groups * n, d)).astype(dtype) for _ in range(2))
        want_w, want = self._reference(q, k, v, heads, groups,
                                       mask if start is None else ref_mask)
        sink = []
        got = T.attention(T.Tensor(q), T.Tensor(k), T.Tensor(v), heads, mask, sink=sink,
                          groups=groups, start=start).data
        got_w = sink[0][None] if groups == 1 else sink[0]
        assert got_w.dtype == got.dtype == dtype
        assert got_w.tobytes() == want_w.tobytes()
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mask_shape", [(3, 4, 5), (4, 5), (1, 5), (5,)])
    def test_masked_softmax(self, rng, dtype, mask_shape):
        x = (3.0 * rng.standard_normal((3, 4, 5))).astype(dtype)
        mask = rng.random(mask_shape) < 0.5
        mask[..., 2] = True
        got = T.masked_softmax_np(x, mask)
        want = _softmax_oracle(x, np.broadcast_to(mask, x.shape))
        assert got.dtype == dtype and got.tobytes() == want.tobytes()
        assert (got[~np.broadcast_to(mask, x.shape)] == 0.0).all()
        assert T.masked_softmax_np(x, None).tobytes() == _softmax_oracle(x, None).tobytes()


class TestAttention:
    def test_grad_causal(self, rng):
        mask = np.tril(np.ones((4, 4), dtype=bool))
        check_op(lambda q, k, v: T.attention(q, k, v, 2, mask),
                 [rng.standard_normal((4, 6)) for _ in range(3)], rng)

    def test_grad_block_diagonal_causal(self, rng):
        # two packed examples of 2 and 3 rows: causal inside each, nothing across
        seg = np.repeat([0, 1], [2, 3])
        mask = (seg[:, None] == seg[None, :]) & np.tril(np.ones((5, 5), dtype=bool))
        check_op(lambda q, k, v: T.attention(q, k, v, 2, mask),
                 [rng.standard_normal((5, 6)) for _ in range(3)], rng)

    def test_grad_cross_shape(self, rng):
        check_op(lambda q, k, v: T.attention(q, k, v, 3, None),
                 [rng.standard_normal((3, 6)), rng.standard_normal((5, 6)),
                  rng.standard_normal((5, 6))], rng)

    def test_grad_dropout(self, rng):
        def op(q, k, v):
            return T.attention(q, k, v, 2, None, 0.4, np.random.default_rng(7), train=True)
        check_op(op, [rng.standard_normal((4, 6)), rng.standard_normal((5, 6)),
                      rng.standard_normal((5, 6))], rng)

    def test_forward_matches_per_head_loop(self, rng):
        q, k, v = (rng.standard_normal((n, 8)) for n in (5, 7, 7))
        mask = rng.random((5, 7)) > 0.4
        mask[:, 0] = True
        sink = []
        out = T.attention(T.Tensor(q), T.Tensor(k), T.Tensor(v), 4, mask, sink=sink)
        np.testing.assert_allclose(out.data, _attention_reference(q, k, v, 4, mask),
                                   rtol=1e-12, atol=1e-14)
        assert sink[0].shape == (4, 5, 7)
        assert (sink[0][:, ~mask] == 0.0).all()

    def test_dropout_draws_one_weight_array(self, rng):
        q, k, v = (T.Tensor(rng.standard_normal((n, 6))) for n in (3, 4, 4))
        sink = []
        out = T.attention(q, k, v, 2, None, 0.5, np.random.default_rng(3), True, sink)
        keep = np.random.default_rng(3).random((2, 3, 4)) >= 0.5
        w = sink[0] * keep / 0.5
        want = np.concatenate([w[h] @ v.data[:, 3 * h:3 * h + 3] for h in range(2)], axis=1)
        np.testing.assert_allclose(out.data, want, rtol=1e-12)

    def test_rowwise_query_row_stable(self, rng):
        # queries at positions 3..8; the one at 5 alone reads the first 6 keys
        q, k, v = (rng.standard_normal((n, 16)).astype(np.float32) for n in (6, 9, 9))
        with T.rowwise_kernels():
            full = T.attention(T.Tensor(q), T.Tensor(k), T.Tensor(v), 4, start=3)
            one = T.attention(T.Tensor(q[2:3]), T.Tensor(k[:6]), T.Tensor(v[:6]), 4, start=5)
        assert (full.data[2:3] == one.data).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("heads", [1, 4])
    @pytest.mark.parametrize("groups", [1, 3])
    def test_rowwise_causal_row_equals_its_key_prefix_alone(self, rng, dtype, heads, groups):
        # row r of each group against keys[:r+1] alone, read as a decoding
        # cache holds them: strided views of wider buffers
        n, d = 7, 16
        q, k, v = (rng.standard_normal((groups * n, d)).astype(dtype) for _ in range(3))
        kt, vh = T.split_heads(k, groups, heads, True), T.split_heads(v, groups, heads)
        kbuf = np.zeros(kt.shape[:3] + (n + 5,), dtype)
        vbuf = np.zeros(vh.shape[:2] + (n + 5,) + vh.shape[3:], dtype)
        kbuf[..., :n], vbuf[:, :, :n] = kt, vh
        with T.rowwise_kernels():
            full = T.attention(T.Tensor(q), T.Tensor(k), T.Tensor(v), heads, groups=groups,
                               start=0).data.reshape(groups, n, d)
            for r in range(n):
                alone = T.attention_np(q.reshape(groups, n, d)[:, r], kbuf[..., :r + 1],
                                       vbuf[:, :, :r + 1], heads, groups=groups)
                assert alone.tobytes() == np.ascontiguousarray(full[:, r]).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("m, n", [(1, 1), (2, 2), (DRAFT + 1, DRAFT + 1), (5, 40),
                                      (DRAFT + 1, 403)])
    def test_rowwise_cached_step_row_equals_the_row_alone(self, rng, dtype, m, n):
        # a cached step: m query rows at positions n - m .. n - 1 over keys and
        # values held as a cache holds them, strided views of wider buffers
        G, heads, d = 2, 4, 16
        q = rng.standard_normal((G * m, d)).astype(dtype)
        kbuf = rng.standard_normal((G, heads, d // heads, n + 5)).astype(dtype)
        vbuf = rng.standard_normal((G, heads, n + 5, d // heads)).astype(dtype)
        causal = np.arange(n)[None, :] <= np.arange(n - m, n)[:, None]
        sink = []
        with T.rowwise_kernels():
            full = T.attention_np(q, kbuf[..., :n], vbuf[:, :, :n], heads, sink=sink, groups=G,
                                  start=n - m).reshape(G, m, d)
            for i in range(m):
                p = n - m + i + 1
                alone = T.attention_np(q.reshape(G, m, d)[:, i], kbuf[..., :p], vbuf[:, :, :p],
                                       heads, groups=G)
                assert alone.tobytes() == np.ascontiguousarray(full[:, i]).tobytes()
        # no -inf reaches a weight or an output, even a one-key row's
        w = sink[0]
        assert np.isfinite(w).all() and np.isfinite(full).all()
        assert (w[:, :, ~causal] == 0).all() and (w[:, :, causal] > 0).all()
        if n == m:  # the first row reads one key
            assert (w[:, :, 0, 0] == 1).all()

    def test_grad_rowwise_causal(self, rng):
        with T.rowwise_kernels():
            check_op(lambda q, k, v: T.attention(q, k, v, 2, groups=2, start=0),
                     [rng.standard_normal((8, 6)) for _ in range(3)], rng)

    @pytest.mark.parametrize("mask", [
        np.array([[True, False, True], [True, True, False]]),   # a gap in the first row
        np.array([[False, False, False], [True, False, False]]),  # an empty row
        np.ones((2, 2), dtype=bool),                             # not (queries, keys)
    ])
    def test_rowwise_mask_must_be_key_prefixes(self, rng, mask):
        q, k = T.Tensor(rng.standard_normal((2, 4))), T.Tensor(rng.standard_normal((3, 4)))
        with T.rowwise_kernels(), pytest.raises(T.ShapeMismatch, match="key prefix"):
            T.attention(q, k, k, 2, mask)

    @pytest.mark.parametrize("rowwise", [False, True])
    @pytest.mark.parametrize("start, m, n", [(-1, 2, 1), (0, 2, 3), (2, 2, 3), (1, 3, 3)])
    def test_impossible_key_prefix_rejected(self, rng, rowwise, start, m, n):
        # ``start`` puts m query rows at positions start .. start + m - 1, whose
        # prefixes need exactly start + m keys
        q, k = rng.standard_normal((m, 4)), rng.standard_normal((n, 4))
        with T.rowwise_kernels() if rowwise else contextlib.nullcontext():
            with pytest.raises(T.ShapeMismatch, match="key prefix"):
                T.attention(T.Tensor(q), T.Tensor(k), T.Tensor(k), 2, start=start)
            with pytest.raises(T.ShapeMismatch, match="key prefix"):
                T.attention_np(q, k, k, 2, start=start)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_start_is_the_causal_mask(self, rng, dtype):
        # without rowwise_kernels, ``start`` builds the mask a caller would pass
        q, k, v = (rng.standard_normal((r, 16)).astype(dtype) for r in (6, 9, 9))
        mask = np.arange(9)[None, :] <= np.arange(3, 9)[:, None]
        got = T.attention(T.Tensor(q), T.Tensor(k), T.Tensor(v), 4, start=3).data
        assert got.tobytes() == T.attention(T.Tensor(q), T.Tensor(k), T.Tensor(v), 4,
                                            mask).data.tobytes()
        with T.rowwise_kernels():
            rowwise = T.attention(T.Tensor(q), T.Tensor(k), T.Tensor(v), 4, start=3).data
        np.testing.assert_allclose(rowwise, got, rtol=1e-5 if dtype == np.float32 else 1e-12)

    def test_grad_groups_causal(self, rng):
        # three groups of 3 query and 3 key rows, causal inside each group
        mask = np.tril(np.ones((3, 3), dtype=bool))
        check_op(lambda q, k, v: T.attention(q, k, v, 2, mask, groups=3),
                 [rng.standard_normal((9, 6)) for _ in range(3)], rng)

    def test_grad_groups_cross_shape(self, rng):
        # two groups of 1 query over 4 keys each: one decoding step of two sentences
        check_op(lambda q, k, v: T.attention(q, k, v, 3, None, groups=2),
                 [rng.standard_normal((2, 6)), rng.standard_normal((8, 6)),
                  rng.standard_normal((8, 6))], rng)

    def test_grad_groups_dropout(self, rng):
        def op(q, k, v):
            return T.attention(q, k, v, 2, None, 0.4, np.random.default_rng(7), train=True,
                               groups=2)
        check_op(op, [rng.standard_normal((4, 6)), rng.standard_normal((6, 6)),
                      rng.standard_normal((6, 6))], rng)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_groups_equal_separate_calls_bitwise(self, rng, dtype):
        G, m, n = 4, 2, 5
        q, k, v = (rng.standard_normal((G * r, 16)).astype(dtype) for r in (m, n, n))
        g_out = rng.standard_normal((G * m, 16)).astype(dtype)
        with T.rowwise_kernels():
            tq, tk, tv = (T.Tensor(a, requires_grad=True) for a in (q, k, v))
            sink = []
            out = T.attention(tq, tk, tv, 4, sink=sink, groups=G, start=n - m)
            T.backward(scalarize(out, g_out))
            assert sink[0].shape == (G, 4, m, n)
            for g in range(G):
                rq, rk = slice(g * m, (g + 1) * m), slice(g * n, (g + 1) * n)
                sq, sk, sv = (T.Tensor(a[r], requires_grad=True)
                              for a, r in ((q, rq), (k, rk), (v, rk)))
                one_sink = []
                one = T.attention(sq, sk, sv, 4, sink=one_sink, start=n - m)
                T.backward(scalarize(one, g_out[rq]))
                assert (out.data[rq] == one.data).all()
                assert (sink[0][g] == one_sink[0]).all()
                assert (tq.grad[rq] == sq.grad).all()
                assert (tk.grad[rk] == sk.grad).all()
                assert (tv.grad[rk] == sv.grad).all()

    def test_head_layout_operands_rejected(self, rng):
        # only the array op reads keys and values in a cache's head layout
        q = T.Tensor(rng.standard_normal((4, 6)))
        k, v = T.Tensor(np.zeros((2, 2, 3, 5))), T.Tensor(np.zeros((2, 2, 5, 3)))
        with pytest.raises(T.ShapeMismatch):
            T.attention(q, k, v, 2, None, groups=2)

    def test_groups_must_divide_rows(self, rng):
        q, k = T.Tensor(rng.standard_normal((3, 4))), T.Tensor(rng.standard_normal((4, 4)))
        with pytest.raises(T.ShapeMismatch):
            T.attention(q, k, k, 2, None, groups=2)


class TestArrayOps:
    """Each op of the array op set returns its tape op's ``.data``, bit for bit."""

    DTYPES = [np.float32, np.float64]

    @staticmethod
    def _same(got, want: T.Tensor) -> bool:
        return (isinstance(got, np.ndarray) and got.dtype == want.data.dtype
                and got.shape == want.shape and got.tobytes() == want.data.tobytes())

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("rowwise", [False, True])
    def test_row_ops(self, rng, dtype, rowwise):
        x, y = (rng.standard_normal((5, 8)).astype(dtype) for _ in range(2))
        w = rng.standard_normal((8, 12)).astype(dtype)
        b, g, b8 = (rng.standard_normal(n).astype(dtype) for n in (12, 8, 8))
        table = rng.standard_normal((7, 8)).astype(dtype)
        ids = np.array([3, 0, 6, 3])
        cases = {"linear": (x, w, b), "layer_norm": (x, g, b8), "gelu": (x,), "add": (x, y),
                 "mul": (x, y), "matmul": (x, w), "embedding_lookup": (table, ids),
                 "reshape": (x, (-1, 4))}
        with T.rowwise_kernels() if rowwise else contextlib.nullcontext():
            for name, args in cases.items():
                tape = getattr(T, name)(*(T.Tensor(a) if isinstance(a, np.ndarray)
                                          and a.dtype == dtype else a for a in args))
                assert self._same(getattr(T.ArrayOps, name)(*args), tape), name
            for axis, parts in ((0, (x, table, y)), (-1, (x, y, x))):
                tape = T.concat([T.Tensor(a) for a in parts], axis)
                assert self._same(T.ArrayOps.concat(parts, axis), tape), axis
            for p, train in ((0.3, True), (0.3, False), (0.0, True)):
                tape = T.dropout(T.Tensor(x), p, np.random.default_rng(1), train)
                assert self._same(T.ArrayOps.dropout(x, p, np.random.default_rng(1), train), tape)

    def test_params_and_values(self, rng):
        t = T.Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        assert T.param(t) is t and T.ArrayOps.param(t) is t.data
        # the layer code reads a tape operand's array nowhere: a cache takes arrays
        assert not hasattr(T, "value") and not hasattr(T.ArrayOps, "value")
        # the op set is what the model calls: no op that only tests reached
        for name in ("sub", "softmax_last_dim", "sum_all", "debug_check_finite",
                     "NonFiniteDetected", "concat_rows", "concat_last_dim", "_lift"):
            assert not hasattr(T, name) and not hasattr(T.ArrayOps, name), name

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("split", [False, True])
    @pytest.mark.parametrize("groups", [1, 3])
    @pytest.mark.parametrize("rows", ["every key", "mask", "start", "rowwise start",
                                      "rowwise one row", "dropout"])
    def test_attention(self, rng, dtype, split, groups, rows):
        heads, d, n = 4, 16, 7
        m = 1 if rows == "rowwise one row" else 3
        q = rng.standard_normal((groups * m, d)).astype(dtype)
        k, v = (rng.standard_normal((groups * n, d)).astype(dtype) for _ in range(2))
        # split: the array op reads the keys and values in head layout, strided
        # views of wider buffers as a cache holds them, and the tape op the
        # same rows; decoding relies on the two agreeing
        kc, vc = k, v
        if split:
            kc = _cache_view(T.split_heads(k, groups, heads, True), 5)
            vbuf = np.zeros((groups, heads, n + 5, d // heads), dtype)
            vbuf[:, :, :n] = T.split_heads(v, groups, heads)
            vc = vbuf[:, :, :n]
        mask = rng.random((m, n)) > 0.3 if rows == "mask" else None
        if mask is not None:
            mask[:, 0] = True
        start = n - m if "start" in rows or "one row" in rows else None
        train = rows == "dropout"
        tape_sink, array_sink = [], []
        with T.rowwise_kernels() if "rowwise" in rows else contextlib.nullcontext():
            tape = T.attention(T.Tensor(q), T.Tensor(k), T.Tensor(v), heads, mask, 0.4,
                               np.random.default_rng(5), train, tape_sink, groups, start)
            got = T.ArrayOps.attention(q, kc, vc, heads, mask, 0.4, np.random.default_rng(5),
                                       train, array_sink, groups, start)
        assert self._same(got, tape)
        assert array_sink[0].tobytes() == tape_sink[0].tobytes()


class TestDropoutSemantics:
    def test_eval_mode_identity(self, rng):
        x = T.Tensor(rng.standard_normal((4, 4)))
        out = T.dropout(x, 0.5, None, train=False)
        np.testing.assert_array_equal(out.data, x.data)

    def test_p_zero_identity(self, rng):
        x = T.Tensor(rng.standard_normal((4, 4)))
        out = T.dropout(x, 0.0, None, train=True)
        np.testing.assert_array_equal(out.data, x.data)

    def test_train_without_rng_rejected(self):
        with pytest.raises(ValueError):
            T.dropout(T.Tensor(np.ones((2, 2))), 0.5, None, train=True)

    def test_inverted_scaling(self):
        x = T.Tensor(np.ones((1000,)))
        out = T.dropout(x, 0.25, np.random.default_rng(0), train=True)
        kept = out.data[out.data != 0]
        np.testing.assert_allclose(kept, 1.0 / 0.75)


class TestSaveLoad:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        arrays = {
            "a": rng.standard_normal((3, 4)),
            "b.c": rng.standard_normal(7).astype(np.float32),
            "ids": np.arange(5, dtype=np.int64),
        }
        meta = {"hello": [1, 2, {"x": "y"}], "n": 3}
        path = str(tmp_path / "arrs.npz")
        T.save_arrays(path, arrays, meta)
        loaded, got_meta = T.load_arrays(path)
        assert got_meta == meta
        assert set(loaded) == set(arrays)
        for k in arrays:
            assert loaded[k].dtype == arrays[k].dtype
            np.testing.assert_array_equal(loaded[k], arrays[k])

    def test_no_meta(self, tmp_path):
        path = str(tmp_path / "x.npz")
        T.save_arrays(path, {"a": np.zeros(2)})
        _, meta = T.load_arrays(path)
        assert meta is None

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        path = str(tmp_path / "y.npz")
        T.save_arrays(path, {"a": np.zeros(2)}, {"k": 1})
        assert sorted(os.listdir(tmp_path)) == ["y.npz"]
