"""Ridge-regression linear algebra for IIM.

Implements the paper's Formulas 5-7 (ridge over a neighbor set), the
single-neighbor rule of Section III-A2, and the incremental U/V
computation of Proposition 3 (Formulas 15-21), which turns the cost of
learning the model at neighbor count ``l+h`` from O(m^2 (l+h)) into
O(m^2 h) given the model state at ``l``.

All functions are pure numpy so they can run inside Spark's Python
workers as well as on the driver.
"""
from __future__ import annotations

import numpy as np

#: Default ridge regularizer. Example 2/6 in the paper print parameters
#: that match plain OLS to two decimals, so alpha is effectively ~0; a
#: tiny positive value keeps U + alpha*E invertible when neighbors are
#: collinear (e.g. duplicated tuples).
DEFAULT_ALPHA = 1e-6


def design(X: np.ndarray) -> np.ndarray:
    """Prepend the intercept column of ones (Formula 7's X matrix)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    return np.hstack([np.ones((X.shape[0], 1)), X])


def ridge_solve(U: np.ndarray, V: np.ndarray, alpha: float = DEFAULT_ALPHA) -> np.ndarray:
    """phi = (U + alpha*E)^-1 V  (Formula 19). U = X^T X, V = X^T Y."""
    m = U.shape[0]
    return np.linalg.solve(U + alpha * np.eye(m), V)


def ridge_fit(X: np.ndarray, y: np.ndarray, alpha: float = DEFAULT_ALPHA) -> np.ndarray:
    """Fit ridge regression y ~ (1, X) phi (Formula 5). Returns phi (m,)."""
    Xd = design(X)
    return ridge_solve(Xd.T @ Xd, Xd.T @ np.asarray(y, dtype=np.float64), alpha)


def predict(X: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Evaluate (1, X) @ phi (Formula 4/9) for rows of X."""
    return design(X) @ np.asarray(phi, dtype=np.float64)


def single_neighbor_phi(y_self: float, m: int) -> np.ndarray:
    """The l=1 rule (Section III-A2): phi[C] = t_i[A_m], slopes = 0."""
    phi = np.zeros(m, dtype=np.float64)
    phi[0] = float(y_self)
    return phi


def make_grid(n: int, h: int = 1, l_max: int | None = None) -> np.ndarray:
    """Candidate neighbor counts {1, 1+h, 1+2h, ...} <= min(n, l_max).

    Stepping h trades accuracy for speed (Section V-A2). The grid always
    contains 1 and the cap, so the kNN-like and most-global candidates
    are both available to the adaptive selector.
    """
    if n < 1:
        raise ValueError("need at least one tuple")
    cap = n if l_max is None else min(n, l_max)
    if h < 1:
        raise ValueError("stepping h must be >= 1")
    grid = np.arange(1, cap + 1, h)
    if grid[-1] != cap:
        grid = np.append(grid, cap)
    return grid.astype(np.int64)


def prefix_uv(
    X_sorted: np.ndarray, y_sorted: np.ndarray, grid: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """U^(l) = X_l^T X_l and V^(l) = X_l^T Y_l over the first l rows,
    for every l in ``grid`` (Proposition 3).

    Each segment between consecutive grid points contributes its
    increment once (Formulas 20-21) and the increments are prefix-summed,
    so the sweep costs O(m^2 n) whatever |grid| is. Returns
    (|grid|, m, m) and (|grid|, m) arrays.
    """
    D = design(X_sorted)
    y_sorted = np.asarray(y_sorted, dtype=np.float64)
    grid = np.asarray(grid, dtype=np.int64)
    if grid[-1] > len(D):
        raise ValueError(f"grid max {grid[-1]} exceeds n={len(D)}")
    starts = np.concatenate([[0], grid[:-1]])
    dU = np.stack([D[a:b].T @ D[a:b] for a, b in zip(starts, grid)])
    dV = np.stack([D[a:b].T @ y_sorted[a:b] for a, b in zip(starts, grid)])
    return np.cumsum(dU, axis=0), np.cumsum(dV, axis=0)


def prefix_params(
    X_sorted: np.ndarray,
    y_sorted: np.ndarray,
    grid: np.ndarray,
    alpha: float = DEFAULT_ALPHA,
) -> np.ndarray:
    """Candidate models phi^(l) for every l in ``grid`` — incremental.

    ``X_sorted``/``y_sorted`` are a tuple's neighbors ordered by
    ascending distance (self first). U/V come from :func:`prefix_uv`,
    so the whole sweep costs O(m^2 n + |grid| m^3) instead of
    O(sum_l m^2 l). Returns a (|grid|, m) parameter matrix; grid point
    l=1 uses the single-neighbor rule.
    """
    Us, Vs = prefix_uv(X_sorted, y_sorted, grid)
    m = Us.shape[1]
    phis = np.linalg.solve(Us + alpha * np.eye(m), Vs[..., None])[..., 0]
    if grid[0] == 1:
        phis[0] = single_neighbor_phi(y_sorted[0], m)
    return phis


def prefix_params_scratch(
    X_sorted: np.ndarray,
    y_sorted: np.ndarray,
    grid: np.ndarray,
    alpha: float = DEFAULT_ALPHA,
) -> np.ndarray:
    """Same as :func:`prefix_params` but recomputing U/V from scratch at
    every grid point (the straightforward Algorithm 1 loop). Kept as the
    baseline for Table III's from-scratch column and as a correctness
    cross-check for the incremental path.
    """
    X_sorted = np.asarray(X_sorted, dtype=np.float64)
    if X_sorted.ndim == 1:
        X_sorted = X_sorted[:, None]
    y_sorted = np.asarray(y_sorted, dtype=np.float64)
    m = X_sorted.shape[1] + 1
    out = np.empty((len(grid), m))
    for g, l in enumerate(np.asarray(grid, dtype=np.int64)):
        if l == 1:
            out[g] = single_neighbor_phi(y_sorted[0], m)
        else:
            out[g] = ridge_fit(X_sorted[:l], y_sorted[:l], alpha)
    return out
