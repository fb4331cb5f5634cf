"""Ridge-regularized least-squares kernels shared by training and control.

All solves add a small multiple of the identity to the normal matrix so
that near-singular coefficient matrices cannot blow up.  Everything here
computes in float64 regardless of the network dtype.
"""

from __future__ import annotations

import numpy as np

RIDGE = 1e-9


def solve_least_squares(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimize ||A x - b|| via the ridge-regularized normal equations."""
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    gram = A.T @ A + RIDGE * np.eye(A.shape[1])
    return np.linalg.solve(gram, A.T @ b)


def pinv_action(h: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Least-squares minimizer of ||h + d u|| over unconstrained u."""
    h = np.asarray(h, dtype=np.float64).reshape(-1)
    d = np.asarray(d, dtype=np.float64)
    gram = d.T @ d + RIDGE * np.eye(d.shape[1])
    return np.linalg.solve(gram, -(d.T @ h))


def pinv_action_batch(H: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Batched `pinv_action`: H is (n, m), D is (n, m, a); returns (n, a)."""
    H = np.asarray(H, dtype=np.float64)
    D = np.asarray(D, dtype=np.float64)
    n, m, a = D.shape
    gram = np.einsum("nma,nmb->nab", D, D) + RIDGE * np.eye(a)
    rhs = -np.einsum("nma,nm->na", D, H)
    return np.linalg.solve(gram, rhs[..., None])[..., 0]
