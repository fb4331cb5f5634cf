"""Ridge-regularized least-squares kernels shared by training and control.

All solves add a small multiple of the identity to the normal matrix so
that near-singular coefficient matrices cannot blow up.  Everything here
computes in float64 regardless of the network dtype.

Every solve goes through `ridge_solve`.  Both environments have one action,
so their systems are 1x1, and there it divides: the LU factors of a 1x1
matrix are 1 and the matrix itself, and the triangular solve divides the
right-hand side by that pivot, so `rhs / (normal + RIDGE)` has the bits
LAPACK's `gesv` returns, NaN and infinities included, without the call
overhead of `np.linalg.solve` (a 1x1 `pinv_action` took 5-10 us instead
of 20 us by timeit, one BLAS thread on a 2-core x86-64 VM).  Multiplying
by the reciprocal instead rounds twice and differs in the last bit on
about a quarter of inputs.  Larger systems go to `np.linalg.solve`.
"""

from __future__ import annotations

import numpy as np

RIDGE = 1e-9


def ridge_solve(normal: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (normal + RIDGE I) x = rhs: normal is (..., a, a), rhs (..., a)."""
    normal = np.asarray(normal, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64)
    a = normal.shape[-1]
    if a == 1:
        return rhs / (normal[..., 0] + RIDGE)
    return np.linalg.solve(normal + RIDGE * np.eye(a), rhs[..., None])[..., 0]


def solve_least_squares(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimize ||A x - b|| via the ridge-regularized normal equations: A is
    (..., m, a), b (..., m), and each leading index is its own system, with
    the bits of its single solve (the same matmuls, stacked)."""
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    AT = np.swapaxes(A, -1, -2)
    return ridge_solve(AT @ A, (AT @ b[..., None])[..., 0])


def pinv_action(h: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Least-squares minimizer of ||h + d u|| over unconstrained u."""
    h = np.asarray(h, dtype=np.float64).reshape(-1)
    d = np.asarray(d, dtype=np.float64)
    return ridge_solve(d.T @ d, -(d.T @ h))


def pinv_action_batch(H: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Batched `pinv_action`: H is (n, m), D is (n, m, a); returns (n, a),
    each row with the bits of its single solve (the same matmuls, stacked)."""
    H = np.asarray(H, dtype=np.float64)
    D = np.asarray(D, dtype=np.float64)
    DT = np.swapaxes(D, -1, -2)
    return ridge_solve(DT @ D, -(DT @ H[..., None])[..., 0])
