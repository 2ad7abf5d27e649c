"""Finite-difference gradient checker, independent of the reverse-mode tape.

Scalarizes any op output through a fixed random projection, then compares
each sampled analytic partial against a central difference with step
h = 1e-6 * (1 + |x|).
"""

from __future__ import annotations

import numpy as np

from spangraph import tensor as T


def scalarize(out: T.Tensor, proj: np.ndarray) -> T.Tensor:
    """The scalar sum(out * proj), built from kept ops; backward seeds ``out`` with ``proj``.

    A (1, n) @ (n, 1) product's backward multiplies the seed 1.0 into
    ``proj``'s entries, so the seeded gradient is ``proj`` bit for bit.
    """
    return T.reshape(T.matmul(T.reshape(out, (1, -1)), T.Tensor(proj.reshape(-1, 1))), ())


def check_op(op, arrays, rng, n_coords: int = 10, rtol: float = 1e-5,
             atol: float = 1e-8) -> float:
    """Returns the max relative error seen; raises AssertionError on mismatch."""
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    probe = op(*[T.Tensor(a.copy()) for a in arrays])
    proj = rng.standard_normal(probe.data.shape)

    tensors = [T.Tensor(a.copy(), requires_grad=True) for a in arrays]
    T.backward(scalarize(op(*tensors), proj))
    analytic = [t.grad.copy() for t in tensors]

    def loss_at(perturbed):
        ts = [T.Tensor(a.copy()) for a in perturbed]
        out = op(*ts)
        return float(scalarize(out, proj).data)

    worst = 0.0
    for ti, base in enumerate(arrays):
        flat = base.reshape(-1)
        n = min(n_coords, flat.size)
        coords = rng.choice(flat.size, size=n, replace=False)
        for c in coords:
            c = int(c)
            h = 1e-6 * (1.0 + abs(flat[c]))
            plus = [a.copy() for a in arrays]
            minus = [a.copy() for a in arrays]
            plus[ti].reshape(-1)[c] += h
            minus[ti].reshape(-1)[c] -= h
            num = (loss_at(plus) - loss_at(minus)) / (2.0 * h)
            ana = analytic[ti].reshape(-1)[c]
            err = abs(ana - num)
            bound = atol + rtol * max(abs(num), abs(ana))
            assert err <= bound, (
                f"grad mismatch input {ti} coord {c}: analytic={ana!r} "
                f"numeric={num!r} err={err:.3e} bound={bound:.3e}"
            )
            denom = max(abs(num), abs(ana), 1e-12)
            worst = max(worst, err / denom)
    return worst
