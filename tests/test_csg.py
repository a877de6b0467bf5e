"""Analytic primitives, boolean composition, gradients, random scenes."""

import numpy as np
import pytest

from ndcmesh.csg import (Box, Cylinder, Intersect, Sphere, Subtract, Union,
                         csg_gradient, csg_normal_fn, random_rotation,
                         random_scene)
from ndcmesh.rng import rng_for


def test_sphere_distances_are_exact():
    s = Sphere((0.0, 0.0, 0.0), 1.0)
    assert s(np.array([[2.0, 0.0, 0.0]]))[0] == pytest.approx(1.0)
    assert s(np.array([[0.0, 0.0, 0.0]]))[0] == pytest.approx(-1.0)
    assert s(np.array([[0.0, 0.6, 0.8]]))[0] == pytest.approx(0.0, abs=1e-12)


def test_box_distances_match_hand_values():
    b = Box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    pts = np.array([
        [0.0, 0.0, 0.0],   # center: one unit from each face
        [3.0, 0.0, 0.0],   # outside a face
        [2.0, 2.0, 0.0],   # outside an edge
        [2.0, 2.0, 2.0],   # outside a corner
        [0.5, 0.0, 0.0],   # inside, nearest face at x=1
    ])
    want = np.array([-1.0, 2.0, np.sqrt(2.0), np.sqrt(3.0), -0.5])
    assert np.allclose(b(pts), want, atol=1e-12)


def test_rotated_box_measures_along_its_own_axes():
    rot = random_rotation(rng_for(8, "rot"))
    b = Box((2.0, -1.0, 3.0), (1.0, 2.0, 0.5), tuple(map(tuple, rot)))
    # walk out of the +x face in the box frame
    p = np.asarray(b.center) + rot @ np.array([1.0 + 1.7, 0.0, 0.0])
    assert b(p[None])[0] == pytest.approx(1.7, abs=1e-12)
    assert b(np.asarray(b.center)[None])[0] == pytest.approx(-0.5)


def test_cylinder_distances_match_hand_values():
    c = Cylinder((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), 1.0, 2.0)
    pts = np.array([
        [0.0, 0.0, 0.0],   # center: radius 1 vs cap 2 away
        [3.0, 0.0, 0.0],   # radially outside
        [0.0, 0.0, 5.0],   # beyond a cap
        [2.0, 0.0, 3.0],   # outside rim corner
    ])
    want = np.array([-1.0, 2.0, 3.0, np.sqrt(2.0)])
    assert np.allclose(c(pts), want, atol=1e-12)
    tilted = Cylinder((0.0, 0.0, 0.0), (0.0, 0.0, 4.0), 1.0, 2.0)
    assert np.allclose(tilted(pts), want, atol=1e-12)  # axis normalized


def test_boolean_fields_are_pointwise_min_max_compositions():
    a = Sphere((0.0, 0.0, 0.0), 1.0)
    b = Sphere((0.8, 0.0, 0.0), 1.0)
    rng = rng_for(9, "booleans")
    p = rng.uniform(-3, 3, size=(1000, 3))
    va, vb = a(p), b(p)
    assert np.array_equal(Union(a, b)(p), np.minimum(va, vb))
    assert np.array_equal(Intersect(a, b)(p), np.maximum(va, vb))
    assert np.array_equal(Subtract(a, b)(p), np.maximum(va, -vb))
    # union never exceeds either child
    u = Union(a, b)(p)
    assert np.all(u <= va) and np.all(u <= vb)


def test_gradient_of_a_sphere_points_radially():
    s = Sphere((1.0, 2.0, 3.0), 2.0)
    rng = rng_for(10, "gradient")
    dirs = rng.normal(size=(50, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pts = np.array([1.0, 2.0, 3.0]) + 3.0 * dirs
    g = csg_gradient(s, pts)
    assert np.allclose(g, dirs, atol=1e-6)


def test_normal_callable_returns_unit_vectors():
    shape = Union(Sphere((0.0, 0.0, 0.0), 1.5), Box((2.0, 0.0, 0.0), (1.0, 0.8, 0.6)))
    rng = rng_for(11, "unit-normals")
    pts = rng.uniform(-3, 4, size=(200, 3))
    n = csg_normal_fn(shape)(pts)
    assert np.allclose(np.linalg.norm(n, axis=-1), 1.0, atol=1e-6)


def test_random_rotations_are_orthonormal_and_proper():
    rng = rng_for(12, "rotations")
    for _ in range(20):
        r = random_rotation(rng)
        assert np.allclose(r @ r.T, np.eye(3), atol=1e-6)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-9)


def test_random_scenes_are_seeded_and_stay_inside_the_margin():
    rng = rng_for(13, "scene-probe")
    probe = rng.uniform(0.0, 32.0, size=(2000, 3))
    for seed in range(6):
        scene = random_scene(seed, extent=32.0)
        again = random_scene(seed, extent=32.0)
        assert np.array_equal(scene(probe), again(probe))
        # some interior exists and the domain boundary is strictly outside
        lattice = np.stack(np.meshgrid(*[np.arange(33.0)] * 3, indexing="ij"),
                           axis=-1).reshape(-1, 3)
        vals = scene(lattice)
        assert vals.min() < 0
        border = np.abs(lattice - 16.0).max(axis=1) == 16.0
        assert np.all(vals[border] > 0)
