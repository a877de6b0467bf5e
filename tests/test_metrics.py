"""Mesh metrics against values the geometry fixes: a mesh against itself,
concentric spheres a known gap apart, F1 growing with its threshold,
and the angles of equilateral triangles."""

import numpy as np
import pytest

from ndcmesh.csg import Sphere
from ndcmesh.datagen import sample_csg_grid
from ndcmesh.grids import GridDims
from ndcmesh.mc import mc_extract
from ndcmesh.mesh import TriMesh
from ndcmesh.metrics import (SA_THRESHOLDS_DEG, chamfer_f1, evaluate_mesh,
                             sample_surface, small_angles)

DIMS = GridDims(32, 32, 32)
CENTER = (15.5, 15.5, 15.5)


def mc_sphere(radius: float) -> TriMesh:
    return mc_extract(sample_csg_grid(Sphere(CENTER, radius), DIMS))


def test_a_mesh_against_itself_scores_perfectly():
    mesh = mc_sphere(8.0)
    report = evaluate_mesh(mesh, mesh, samples=4000, seed=3)
    assert report.cd == 0.0
    assert report.f1 == 1.0
    assert report.nc == pytest.approx(1.0, abs=1e-12)


def test_concentric_spheres_have_chamfer_twice_the_squared_gap():
    # every point of one sphere is `gap` from the other, in both directions
    inner = sample_surface(mc_sphere(8.0), 20000, seed=1)
    for gap in (1.0, 2.0):
        outer = sample_surface(mc_sphere(8.0 + gap), 20000, seed=2)
        cd, _ = chamfer_f1(inner, outer, tau=0.1)
        assert cd == pytest.approx(2.0 * gap * gap, rel=0.05), gap


def test_f1_never_falls_as_tau_grows():
    a = sample_surface(mc_sphere(8.0), 5000, seed=1)
    b = sample_surface(mc_sphere(8.6), 5000, seed=2)
    scores = [chamfer_f1(a, b, tau)[1] for tau in np.linspace(0.0, 1.5, 31)]
    assert np.all(np.diff(scores) >= 0.0), scores
    assert scores[0] == 0.0 and scores[-1] == 1.0


def test_equilateral_triangles_have_no_small_angles():
    # a regular tetrahedron: four equilateral faces, every angle 60 degrees
    verts = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0],
                      [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]])
    tet = TriMesh(verts, np.array([[0, 1, 2], [0, 3, 1], [0, 2, 3], [1, 3, 2]]))
    sa, degenerate = small_angles(tet)
    assert sa == {t: 0.0 for t in SA_THRESHOLDS_DEG}
    assert degenerate == 0
    report = evaluate_mesh(tet, tet, samples=500)
    assert report.sa_pct == {t: 0.0 for t in SA_THRESHOLDS_DEG}
    assert report.degenerate_tris == 0
