"""Plane-constraint least squares used for dual vertex placement."""

import numpy as np
import pytest

from ndcmesh.errors import NoConstraints
from ndcmesh.qef import TRUNCATION_RATIO, qef_solve_svd
from ndcmesh.rng import rng_for


def normal_equations_oracle(points, normals, bounds=None):
    """Independent solve via the eigendecomposition of A^T A.

    Same model as the production path (shift to the mass point, drop
    weak directions at the same relative threshold) but built on the
    3x3 normal matrix instead of the SVD of the constraint matrix.
    """
    points = np.asarray(points, dtype=np.float64)
    normals = np.asarray(normals, dtype=np.float64)
    mass = points.mean(axis=0)
    b = np.einsum("nd,nd->n", normals, points - mass)
    ata = normals.T @ normals
    atb = normals.T @ b
    evals, evecs = np.linalg.eigh(ata)
    emax = evals.max()
    # eigenvalues of A^T A are squared singular values of A
    keep = evals >= (TRUNCATION_RATIO ** 2) * emax
    inv = np.where(keep & (evals > 0), np.divide(1.0, evals, out=np.zeros_like(evals), where=evals > 0), 0.0)
    x = mass + evecs @ (inv * (evecs.T @ atb))
    if bounds is not None:
        x = np.clip(x, bounds[0], bounds[1])
    return x


UNIT_CELL = (np.zeros(3), np.ones(3))


def solve_one(constraints, bounds=UNIT_CELL) -> np.ndarray:
    """The position qef_solve_svd gives one set of (point, normal)
    constraints, as a batch of one."""
    points, normals = (np.asarray(side, dtype=np.float64)[None] for side in zip(*constraints))
    return qef_solve_svd(points, normals, np.ones(points.shape[:2], dtype=bool), bounds)[0][0]


def objective(points, normals, x) -> float:
    """Residual sum of squares of a candidate position."""
    return float(np.sum(np.einsum("nd,nd->n", normals, x - points) ** 2))


def test_single_plane_returns_its_point():
    x = solve_one([((0.5, 0.5, 0.5), (0.0, 0.0, 1.0))])
    assert np.allclose(x, (0.5, 0.5, 0.5), atol=1e-12)


def test_three_orthogonal_planes_recover_the_intersection():
    target = (0.3, 0.6, 0.4)
    cons = [(target, (1.0, 0.0, 0.0)),
            (target, (0.0, 1.0, 0.0)),
            (target, (0.0, 0.0, 1.0))]
    x = solve_one(cons)
    assert np.max(np.abs(x - np.asarray(target))) < 1e-6


def test_two_planes_resolve_the_free_direction_to_the_mass_point():
    # planes x=0.2 and y=0.7 leave z free; the anchor supplies z
    cons = [((0.2, 0.1, 0.1), (1.0, 0.0, 0.0)),
            ((0.9, 0.7, 0.9), (0.0, 1.0, 0.0))]
    x = solve_one(cons)
    assert x[0] == pytest.approx(0.2, abs=1e-9)
    assert x[1] == pytest.approx(0.7, abs=1e-9)
    assert x[2] == pytest.approx(0.5, abs=1e-9)  # mean of 0.1 and 0.9


def test_empty_constraints_raise():
    with pytest.raises(NoConstraints):
        qef_solve_svd(np.zeros((1, 0, 3)), np.zeros((1, 0, 3)), np.zeros((1, 0), dtype=bool),
                      UNIT_CELL)
    with pytest.raises(NoConstraints):
        qef_solve_svd(np.zeros((1, 2, 3)), np.zeros((1, 2, 3)), np.zeros((1, 2), dtype=bool),
                      UNIT_CELL)


def test_noisy_planes_match_the_normal_equations_oracle():
    rng = rng_for(7, "qef-oracle")
    for _ in range(200):
        n = int(rng.integers(3, 9))
        normals = rng.normal(size=(n, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        points = rng.uniform(0.0, 1.0, size=(n, 3))
        got = solve_one(list(zip(points, normals)), bounds=None)
        want = normal_equations_oracle(points, normals)
        assert np.max(np.abs(got - want)) < 1e-6


def test_solution_clamped_to_cell_bounds():
    # two steep planes whose intersection line sits far outside the cell
    cons = [((0.5, 0.5, 0.5), (1.0, 0.0, 0.0)),
            ((4.0, 0.5, 0.5), (np.sqrt(0.5), np.sqrt(0.5), 0.0))]
    x = solve_one(cons)
    assert np.all(x >= 0.0) and np.all(x <= 1.0)


def test_never_worse_than_the_clipped_mass_point():
    rng = rng_for(8, "qef-anchor")
    for _ in range(300):
        n = int(rng.integers(1, 7))
        normals = rng.normal(size=(n, 3))
        norms = np.linalg.norm(normals, axis=1, keepdims=True)
        normals = np.divide(normals, norms, out=np.zeros_like(normals), where=norms > 0)
        points = rng.uniform(-0.5, 1.5, size=(n, 3))
        cons = list(zip(points, normals))
        x = solve_one(cons)
        anchor = np.clip(points.mean(axis=0), 0.0, 1.0)
        assert objective(points, normals, x) <= objective(points, normals, anchor) + 1e-9


def test_batch_and_single_solves_agree():
    rng = rng_for(9, "qef-batch")
    b, n = 40, 6
    points = rng.uniform(0.0, 1.0, size=(b, n, 3))
    normals = rng.normal(size=(b, n, 3))
    normals /= np.linalg.norm(normals, axis=-1, keepdims=True)
    valid = rng.random((b, n)) < 0.7
    valid[:, 0] = True
    batch = qef_solve_svd(points, normals, valid, UNIT_CELL)[0]
    for i in range(b):
        single = solve_one(list(zip(points[i][valid[i]], normals[i][valid[i]])))
        assert np.max(np.abs(batch[i] - single)) < 1e-12


def test_duplicate_constraints_do_not_move_the_answer():
    target = (0.25, 0.5, 0.75)
    base = [(target, (1.0, 0.0, 0.0)),
            (target, (0.0, 1.0, 0.0)),
            (target, (0.0, 0.0, 1.0))]
    x1 = solve_one(base)
    x2 = solve_one(base * 3)
    assert np.allclose(x1, x2, atol=1e-9)
