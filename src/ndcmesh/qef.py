"""Least-squares placement of a dual vertex from plane constraints.

Minimizes sum_e (n_e . (x - p_e))^2 about the constraint mass point. The
normal matrix is decomposed by SVD and singular values below 0.1 times
the largest are dropped, which resolves under-determined directions
toward the mass point instead of letting them blow up along sharp edges.

qef_solve_svd is the one solve: it takes a batch of constraint sets, a
single set being a batch of one, and returns the decomposition with the
positions, so DC's null-space slide reuses the SVD. Classical DC and
the pseudo ground truth both reach it through dc.qef_cell_offsets.
"""

from __future__ import annotations

import numpy as np

from .errors import NoConstraints

TRUNCATION_RATIO = 0.1


def qef_solve_svd(
    points: np.ndarray,
    normals: np.ndarray,
    valid: np.ndarray,
    bounds: tuple[np.ndarray, np.ndarray] | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve many constraint sets at once.

    points, normals: (B, N, 3); valid: (B, N) with at least one true row
    entry per problem. Invalid slots are ignored. Returns (positions,
    keep, vt): (B, 3) positions clamped to bounds (None: unclamped), no
    worse in the QEF objective than the mass point of the valid
    constraints; vt (B, r, 3), r = min(N, 3), the right singular vectors
    of the masked normal matrix by decreasing singular value; and keep
    (B, r), the directions the solve kept."""
    points = np.asarray(points, dtype=np.float64)
    normals = np.asarray(normals, dtype=np.float64)
    valid = np.asarray(valid, dtype=bool)
    counts = valid.sum(axis=1)
    if np.any(counts == 0):
        raise NoConstraints("every problem needs at least one constraint")

    w = valid[..., None].astype(np.float64)
    mass = (points * w).sum(axis=1) / counts[:, None]
    a = normals * w
    b = np.einsum("bnd,bnd->bn", a, points - mass[:, None, :])

    u, s, vt = np.linalg.svd(a, full_matrices=False)
    smax = s[:, :1]
    keep = (s >= TRUNCATION_RATIO * smax) & (s > 0)
    inv_s = np.where(keep, np.divide(1.0, s, where=s > 0, out=np.zeros_like(s)), 0.0)
    # x = q + V diag(1/s) U^T b over the kept directions
    utb = np.einsum("bnr,bn->br", u, b)
    x = mass + np.einsum("brd,br->bd", vt, inv_s * utb)

    fallback = mass
    if bounds is not None:
        lo, hi = (np.asarray(side, dtype=np.float64) for side in bounds)
        x = np.clip(x, lo, hi)
        fallback = np.clip(mass, lo, hi)

    # never return a point whose residual exceeds the mass point's
    def objective(pos):
        r = np.einsum("bnd,bnd->bn", a, pos[:, None, :] - points)
        return np.sum(np.where(valid, r, 0.0) ** 2, axis=1)

    worse = objective(x) > objective(fallback) + 1e-12
    if np.any(worse):
        x = np.where(worse[:, None], fallback, x)
    return x, keep, vt

