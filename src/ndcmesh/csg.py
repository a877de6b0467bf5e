"""Constructive solid geometry primitives in grid coordinates.

Primitives carry exact signed distances; the boolean combiners use the
usual min/max bounds, which keeps the zero set correct even where the
interior distances go inexact. Points are (..., 3) arrays in cell units.

Primitives work per coordinate (np.sqrt(x * x + y * y + z * z), nested
np.maximum), not by reducing a trailing axis of length 2 or 3, whose
set-up and copies cost more than its arithmetic. numpy adds such an axis
left to right, as the sum does, and max is exact, so no bit changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rng import rng_for

GRADIENT_STEP = 1e-4  # cell units: central-difference step of csg_gradient


def _coords(p: np.ndarray):
    return p[..., 0], p[..., 1], p[..., 2]


class CsgShape:
    def evaluate(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return self.evaluate(np.asarray(points, dtype=np.float64))


@dataclass(frozen=True)
class Sphere(CsgShape):
    center: tuple[float, float, float]
    radius: float

    def evaluate(self, p):
        x, y, z = _coords(p - np.asarray(self.center))
        return np.sqrt(x * x + y * y + z * z) - self.radius


@dataclass(frozen=True)
class Box(CsgShape):
    center: tuple[float, float, float]
    half_extents: tuple[float, float, float]
    rotation: tuple = field(default=((1, 0, 0), (0, 1, 0), (0, 0, 1)))

    def evaluate(self, p):
        r = np.asarray(self.rotation, dtype=np.float64)
        local = (p - np.asarray(self.center)) @ r  # R^T (p - c)
        qx, qy, qz = (np.abs(c) - h for c, h in zip(_coords(local), self.half_extents))
        ox, oy, oz = np.maximum(qx, 0.0), np.maximum(qy, 0.0), np.maximum(qz, 0.0)
        inside = np.minimum(np.maximum(np.maximum(qx, qy), qz), 0.0)
        return np.sqrt(ox * ox + oy * oy + oz * oz) + inside


@dataclass(frozen=True)
class Cylinder(CsgShape):
    """Capped cylinder; h is the half-height along the axis."""

    center: tuple[float, float, float]
    axis: tuple[float, float, float]
    radius: float
    half_height: float

    def evaluate(self, p):
        a = np.asarray(self.axis, dtype=np.float64)
        a = a / np.linalg.norm(a)
        rel = p - np.asarray(self.center)
        z = rel @ a
        x, y, w = (c - z * ac for c, ac in zip(_coords(rel), a))
        dr = np.sqrt(x * x + y * y + w * w) - self.radius
        dz = np.abs(z) - self.half_height
        outr, outz = np.maximum(dr, 0.0), np.maximum(dz, 0.0)
        return np.sqrt(outr * outr + outz * outz) + np.minimum(np.maximum(dr, dz), 0.0)


@dataclass(frozen=True)
class Union(CsgShape):
    a: CsgShape
    b: CsgShape

    def evaluate(self, p):
        return np.minimum(self.a.evaluate(p), self.b.evaluate(p))


@dataclass(frozen=True)
class Intersect(CsgShape):
    a: CsgShape
    b: CsgShape

    def evaluate(self, p):
        return np.maximum(self.a.evaluate(p), self.b.evaluate(p))


@dataclass(frozen=True)
class Subtract(CsgShape):
    a: CsgShape
    b: CsgShape

    def evaluate(self, p):
        return np.maximum(self.a.evaluate(p), -self.b.evaluate(p))


def csg_gradient(shape: CsgShape, points: np.ndarray) -> np.ndarray:
    """Central-difference field gradient, one column per axis, with steps
    of GRADIENT_STEP."""
    p = np.asarray(points, dtype=np.float64)
    out = np.empty(p.shape)
    for axis in range(3):
        step = np.zeros(3)
        step[axis] = GRADIENT_STEP
        out[..., axis] = (shape(p + step) - shape(p - step)) / (2 * GRADIENT_STEP)
    return out


def csg_normal_fn(shape: CsgShape):
    """Unit-normal callable suitable as a dual contouring normal source."""

    def normals(points: np.ndarray) -> np.ndarray:
        g = csg_gradient(shape, points)
        norm = np.linalg.norm(g, axis=-1, keepdims=True)
        return g / np.where(norm > 0, norm, 1.0)

    return normals


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random rotation matrix (QR of a Gaussian sample)."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 2] = -q[:, 2]
    return q


def random_scene(seed: int, extent: float, margin: float = 3.0) -> CsgShape:
    """A random watertight CSG scene fitted inside [margin, extent-margin]^3.

    One to three primitives joined by unions, optionally minus a smaller
    carving primitive. Each primitive's circumscribed sphere stays inside
    the margin box, so the zero set is closed strictly inside the grid.
    """
    rng = rng_for(seed, "csg-scene")
    lo, hi = margin, extent - margin
    span = hi - lo

    def rand_primitive(scale: float) -> CsgShape:
        kind = int(rng.integers(0, 3))
        if kind == 0:
            radius = rng.uniform(0.12, 0.30) * span * scale
            c = tuple(rng.uniform(lo + radius, hi - radius, size=3))
            return Sphere(c, radius)
        if kind == 1:
            h = rng.uniform(0.08, 0.22, size=3) * span * scale
            circum = float(np.linalg.norm(h))
            c = tuple(rng.uniform(lo + circum, hi - circum, size=3))
            return Box(c, tuple(h), tuple(map(tuple, random_rotation(rng))))
        r = rng.uniform(0.08, 0.20) * span * scale
        hh = rng.uniform(0.10, 0.25) * span * scale
        circum = float(np.hypot(r, hh))
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        c = tuple(rng.uniform(lo + circum, hi - circum, size=3))
        return Cylinder(c, tuple(axis), r, hh)

    shape: CsgShape = rand_primitive(1.0)
    for _ in range(int(rng.integers(0, 3))):
        shape = Union(shape, rand_primitive(1.0))
    if rng.random() < 0.4:
        shape = Subtract(shape, rand_primitive(0.55))
    return shape
