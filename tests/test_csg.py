"""Analytic primitives, boolean composition, gradients, random scenes,
and the per-coordinate fields against their reduction formulas."""

import itertools

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


# ------------------------------------------- per-coordinate fields vs reductions


def reference_field(shape, p):
    """A scene's field with every primitive written as reductions over the
    trailing coordinate axis (np.linalg.norm, np.stack, .max), the
    formulas the per-coordinate primitives replace bit for bit."""
    if isinstance(shape, Sphere):
        return np.linalg.norm(p - np.asarray(shape.center), axis=-1) - shape.radius
    if isinstance(shape, Box):
        local = (p - np.asarray(shape.center)) @ np.asarray(shape.rotation, dtype=np.float64)
        q = np.abs(local) - np.asarray(shape.half_extents)
        return (np.linalg.norm(np.maximum(q, 0.0), axis=-1)
                + np.minimum(q.max(axis=-1), 0.0))
    if isinstance(shape, Cylinder):
        a = np.asarray(shape.axis, dtype=np.float64)
        a = a / np.linalg.norm(a)
        rel = p - np.asarray(shape.center)
        z = rel @ a
        radial = np.linalg.norm(rel - z[..., None] * a, axis=-1)
        d = np.stack([radial - shape.radius, np.abs(z) - shape.half_height], axis=-1)
        return np.linalg.norm(np.maximum(d, 0.0), axis=-1) + np.minimum(d.max(axis=-1), 0.0)
    a, b = reference_field(shape.a, p), reference_field(shape.b, p)
    if isinstance(shape, Union):
        return np.minimum(a, b)
    if isinstance(shape, Intersect):
        return np.maximum(a, b)
    return np.maximum(a, -b)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def feature_points(rng):
    """Primitives with points exactly on their features, plus uniform ones.

    The axis-aligned box and cylinder put points exactly on faces, edges,
    corners, the axis and the rims; the rotated box and oblique cylinder
    put them there up to the rounding of the rotation."""
    rot = random_rotation(rng)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    half = np.array([1.5, 1.0, 0.5])
    prims = [Sphere((0.25, -0.5, 1.0), 1.25),
             Box((0.0, 0.0, 0.0), tuple(half)),
             Box((0.5, -0.25, 0.75), tuple(half), tuple(map(tuple, rot))),
             Cylinder((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), 1.0, 2.0),
             Cylinder((-0.5, 0.5, 0.25), tuple(axis), 0.75, 1.25)]
    signs = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=3)))
    box_local = signs * half  # center, face centers, edge midpoints, corners
    pts = [box_local, box_local * 1.5, np.asarray(prims[2].center) + box_local @ rot.T,
           np.asarray(prims[0].center) + signs * 1.25, np.asarray(prims[0].center)[None]]
    for c in prims[3:]:
        a = np.asarray(c.axis) / np.linalg.norm(c.axis)
        ortho = np.cross(a, [1.0, 0.0, 0.0] if abs(a[0]) < 0.9 else [0.0, 1.0, 0.0])
        ortho /= np.linalg.norm(ortho)
        for t in (-2.5, -c.half_height, -0.3, 0.0, c.half_height, 2.5):
            for r in (0.0, 0.5 * c.radius, c.radius, 2.0 * c.radius):
                pts.append(np.asarray(c.center) + t * a + r * ortho)
    pts = np.vstack([np.reshape(p, (-1, 3)) for p in pts])
    return prims, np.vstack([pts, rng.uniform(-3.0, 3.0, size=(120 - len(pts) % 30, 3))])


def test_primitives_equal_their_reduction_formulas_bit_for_bit():
    rng = rng_for(14, "csg-oracle")
    prims, pts = feature_points(rng)
    sphere, box, rotated, cylinder, oblique = prims
    shapes = prims + [Union(rotated, oblique), Subtract(Union(box, cylinder), sphere),
                      Subtract(rotated, Union(oblique, sphere)), Intersect(sphere, rotated)]
    for shape in shapes:
        for p in (pts, pts.reshape(-1, 5, 6, 3)):
            assert same_bits(shape(p), reference_field(shape, p)), (shape, p.shape)
    # the points on the features did reach them
    assert np.count_nonzero(box(pts) == 0.0) >= 26 and np.count_nonzero(cylinder(pts) == 0.0) >= 4


def test_random_scenes_equal_their_reduction_formulas_bit_for_bit():
    for seed in range(1, 13):
        scene = random_scene(seed, 23.0)
        p = rng_for(seed, "scene-oracle").uniform(-1.0, 24.0, size=(6, 7, 8, 3))
        lattice = np.stack(np.meshgrid(*[np.arange(24.0)] * 3, indexing="ij"), axis=-1)
        for q in (p, p.reshape(-1, 3), lattice):
            assert same_bits(scene(q), reference_field(scene, q)), seed
