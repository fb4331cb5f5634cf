"""The ridge least-squares kernels against LAPACK on the same normal equations.

Each reference below builds (normal + RIDGE I) x = rhs exactly as the
kernels define it and solves it with `np.linalg.solve`; the kernels must
return the same bits, over magnitudes from 1e-30 to 1e30, both signs,
zeros, and inf or NaN entries.
"""

import numpy as np
import pytest

from llql.linalg import RIDGE, pinv_action, pinv_action_batch, solve_least_squares

N_SYSTEMS = 10_000


def same_bits(a, b) -> bool:
    """Equal shapes, NaN in the same places, and every other entry equal bit
    for bit (so 0.0 and -0.0 differ)."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or not np.array_equal(np.isnan(a), np.isnan(b)):
        return False
    keep = ~np.isnan(a)
    return np.array_equal(a[keep].view(np.uint64), b[keep].view(np.uint64))


def wild(rnd, shape, special=0.05):
    """Entries of magnitude 1e-30..1e30 and either sign; a share `special`
    of them replaced by 0, -0, inf, -inf or NaN."""
    x = rnd.choice([-1.0, 1.0], size=shape) * 10.0 ** rnd.uniform(-30, 30, size=shape)
    mask = rnd.random(shape) < special
    x[mask] = rnd.choice([0.0, -0.0, np.inf, -np.inf, np.nan], size=int(mask.sum()))
    return x


def lapack_pinv(h, d):
    a = d.shape[1]
    return np.linalg.solve(d.T @ d + RIDGE * np.eye(a), -(d.T @ h))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_one_action_pinv_equals_lapack(m):
    rnd = np.random.default_rng(100 + m)
    H, D = wild(rnd, (N_SYSTEMS, m)), wild(rnd, (N_SYSTEMS, m, 1))
    with np.errstate(all="ignore"):
        for h, d in zip(H, D):
            assert same_bits(pinv_action(h, d), lapack_pinv(h, d)), (h, d)


def test_one_action_pinv_covers_nonfinite_results():
    rnd = np.random.default_rng(7)
    H, D = wild(rnd, (N_SYSTEMS, 1)), wild(rnd, (N_SYSTEMS, 1, 1))
    with np.errstate(all="ignore"):
        U = np.array([pinv_action(h, d) for h, d in zip(H, D)])
    # the draw reaches NaN, both infinities, zeros and finite results
    assert np.isnan(U).any() and np.isposinf(U).any() and np.isneginf(U).any()
    assert (U == 0).any() and np.isfinite(U).mean() > 0.8


def test_one_action_batch_rows_equal_single_solves():
    """Training's batch: h is (n, 1) and d is (n, 1, 1), one product per
    normal equation, with every special value."""
    rnd = np.random.default_rng(17)
    H, D = wild(rnd, (N_SYSTEMS, 1)), wild(rnd, (N_SYSTEMS, 1, 1))
    with np.errstate(all="ignore"):
        U = pinv_action_batch(H, D)
        assert U.shape == (N_SYSTEMS, 1)
        for u, h, d in zip(U, H, D):
            assert same_bits(u, pinv_action(h, d)), (h, d)


@pytest.mark.parametrize("a", [1, 2, 3])
def test_batch_rows_equal_single_solves_at_any_action_count(a):
    """With two or more actions a normal equation sums several products; the
    batch's stacked matmuls sum them as the single solve's matmuls do."""
    rnd = np.random.default_rng(30 + a)
    H, D = rnd.uniform(-5, 5, size=(2000, 3)), rnd.uniform(-2, 2, size=(2000, 3, a))
    U = pinv_action_batch(H, D)
    for u, h, d in zip(U, H, D):
        assert same_bits(u, pinv_action(h, d)), (h, d)


def test_two_action_batch_equals_lapack():
    rnd = np.random.default_rng(5)
    H, D = rnd.uniform(-5, 5, size=(500, 2)), rnd.uniform(-2, 2, size=(500, 2, 2))
    DT = np.swapaxes(D, -1, -2)
    normal = DT @ D + RIDGE * np.eye(2)
    rhs = -(DT @ H[..., None])
    assert same_bits(pinv_action_batch(H, D), np.linalg.solve(normal, rhs)[..., 0])


def test_two_action_pinv_equals_lapack():
    rnd = np.random.default_rng(3)
    for _ in range(2000):
        h = rnd.uniform(-5, 5, size=2)
        d = rnd.uniform(-2, 2, size=(2, 2))
        assert same_bits(pinv_action(h, d), lapack_pinv(h, d))


@pytest.mark.parametrize("rows", [3, 4])
def test_stacked_least_squares_equals_lapack(rows):
    """The trajectory synthesis stacks the advantage row over the tracking
    rows: (1 + 2, 1) for mountain car, (1 + 3, 1) for the pendulum."""
    rnd = np.random.default_rng(rows)
    A, b = wild(rnd, (N_SYSTEMS, rows, 1)), wild(rnd, (N_SYSTEMS, rows))
    with np.errstate(all="ignore"):
        for Ai, bi in zip(A, b):
            ref = np.linalg.solve(Ai.T @ Ai + RIDGE * np.eye(1), Ai.T @ bi)
            assert same_bits(solve_least_squares(Ai, bi), ref), (Ai, bi)


def test_two_column_least_squares_equals_lapack():
    rnd = np.random.default_rng(11)
    for _ in range(2000):
        A, b = rnd.uniform(-2, 2, size=(4, 2)), rnd.uniform(-2, 2, size=4)
        ref = np.linalg.solve(A.T @ A + RIDGE * np.eye(2), A.T @ b)
        assert same_bits(solve_least_squares(A, b), ref)
