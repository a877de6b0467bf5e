"""Mesh containers plus the small structural utilities shared by the
extraction and evaluation paths."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyMesh, NonFiniteValues, ShapeError
from .rng import rng_for


@dataclass
class QuadMesh:
    vertices: np.ndarray  # (V, 3) float64
    quads: np.ndarray  # (Q, 4) int64, counter-clockwise

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        self.quads = np.asarray(self.quads, dtype=np.int64).reshape(-1, 4)
        if not np.all(np.isfinite(self.vertices)):
            raise NonFiniteValues("QuadMesh.vertices must be finite")
        if self.quads.size and not 0 <= self.quads.min() <= self.quads.max() < len(self.vertices):
            raise ShapeError("quad index out of range")


@dataclass
class TriMesh:
    vertices: np.ndarray  # (V, 3) float64
    tris: np.ndarray  # (T, 3) int64, counter-clockwise

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        self.tris = np.asarray(self.tris, dtype=np.int64).reshape(-1, 3)
        if not np.all(np.isfinite(self.vertices)):
            raise NonFiniteValues("TriMesh.vertices must be finite")
        if self.tris.size and not 0 <= self.tris.min() <= self.tris.max() < len(self.vertices):
            raise ShapeError("triangle index out of range")


@dataclass(frozen=True)
class EdgeTopologyStats:
    """Face-incidence census over the undirected edges of a mesh."""

    edge_count: int
    boundary: int  # exactly 1 incident face
    manifold: int  # exactly 2
    nonmanifold3: int  # exactly 3
    nonmanifold4: int  # 4 or more

    @property
    def closed(self) -> bool:
        """No boundary and no non-manifold edge; an empty mesh is closed."""
        return self.boundary == 0 and self.nonmanifold3 == 0 and self.nonmanifold4 == 0

    @property
    def fractions(self) -> dict[str, float]:
        total = max(self.edge_count, 1)
        return {
            "boundary": self.boundary / total,
            "manifold": self.manifold / total,
            "nonmanifold3": self.nonmanifold3 / total,
            "nonmanifold4": self.nonmanifold4 / total,
        }


def _face_array(mesh: QuadMesh | TriMesh) -> np.ndarray:
    return mesh.quads if isinstance(mesh, QuadMesh) else mesh.tris


def mesh_edges(mesh: QuadMesh | TriMesh) -> np.ndarray:
    """Undirected edges (sorted index pairs), one row per face side."""
    faces = _face_array(mesh)
    pairs = np.stack([faces, np.roll(faces, -1, axis=1)], axis=-1).reshape(-1, 2)
    pairs.sort(axis=1)
    return pairs


def edge_topology_stats(mesh: QuadMesh | TriMesh) -> EdgeTopologyStats:
    """Count how many faces share each undirected edge."""
    pairs = mesh_edges(mesh)
    if len(pairs) == 0:
        return EdgeTopologyStats(0, 0, 0, 0, 0)
    _, counts = np.unique(pairs, axis=0, return_counts=True)
    return EdgeTopologyStats(
        edge_count=len(counts),
        boundary=int(np.sum(counts == 1)),
        manifold=int(np.sum(counts == 2)),
        nonmanifold3=int(np.sum(counts == 3)),
        nonmanifold4=int(np.sum(counts >= 4)),
    )


def split_quads(mesh: QuadMesh, seed: int) -> TriMesh:
    """Split each quad along a seeded random diagonal.

    Quad (a, b, c, d) becomes (a, b, c) + (a, c, d) or (a, b, d) + (b, c, d);
    both keep the winding direction, so orientation and (for planar quads)
    total area are preserved. Deterministic for a given seed.
    """
    rng = rng_for(seed, "quad-diagonals")
    q = mesh.quads
    pick = rng.integers(0, 2, size=len(q))
    a, b, c, d = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    t0 = np.where(pick[:, None] == 0, np.stack([a, b, c], 1), np.stack([a, b, d], 1))
    t1 = np.where(pick[:, None] == 0, np.stack([a, c, d], 1), np.stack([b, c, d], 1))
    tris = np.empty((2 * len(q), 3), dtype=np.int64)
    tris[0::2] = t0
    tris[1::2] = t1
    return TriMesh(mesh.vertices.copy(), tris)


def triangle_areas(vertices: np.ndarray, tris: np.ndarray) -> np.ndarray:
    a = vertices[tris[:, 0]]
    ab = vertices[tris[:, 1]] - a
    ac = vertices[tris[:, 2]] - a
    return 0.5 * np.linalg.norm(np.cross(ab, ac), axis=1)


def sample_triangles(mesh: TriMesh, count: int, rng: np.random.Generator):
    """Uniform area-weighted surface points: (triangle index, points).

    Draws the triangles, then the barycentric u, then v, from `rng`.
    """
    if len(mesh.tris) == 0:
        raise EmptyMesh("cannot sample an empty mesh")
    areas = triangle_areas(mesh.vertices, mesh.tris)
    total = areas.sum()
    if total <= 0:
        raise EmptyMesh("mesh has zero total area")
    faces = rng.choice(len(areas), size=count, p=areas / total)
    u = rng.random(count)
    v = rng.random(count)
    flip = u + v > 1.0
    u[flip] = 1.0 - u[flip]
    v[flip] = 1.0 - v[flip]
    tv = mesh.vertices[mesh.tris[faces]]
    points = tv[:, 0] + u[:, None] * (tv[:, 1] - tv[:, 0]) + v[:, None] * (tv[:, 2] - tv[:, 0])
    return faces, points


def quad_areas(vertices: np.ndarray, quads: np.ndarray) -> np.ndarray:
    """Planar-quad area via the two triangles of one diagonal."""
    a, b, c, d = (vertices[quads[:, i]] for i in range(4))
    t0 = 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)
    t1 = 0.5 * np.linalg.norm(np.cross(c - a, d - a), axis=1)
    return t0 + t1
