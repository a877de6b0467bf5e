"""Regular-grid containers and the scalar-field primitives built on them.

Conventions used across the package:

* A grid with dims (m, n, k) has m*n*k lattice vertices; vertex (0, 0, 0)
  sits at the coordinate origin and spacing is one cell unit per axis.
* Cells are indexed by their minimum corner, so there are
  (m-1)*(n-1)*(k-1) of them.
* Edges are indexed by axis and by their lower endpoint: the x-edge
  (i, j, l) joins vertices (i, j, l) and (i+1, j, l), and likewise for y
  and z. `edge_ends` gives the data at both endpoints of every edge.
* The ring of an edge along axis a with lower endpoint p is its four
  cells p + r, where r is 0 along a and runs over (-1, -1), (0, -1),
  (0, 0), (-1, 0) along ((a + 1) % 3, (a + 2) % 3): counter-clockwise
  viewed from +a. Read the other way, cell q has the four edges q - r
  along a. `_dual.edge_ring` holds this table.
* A vertex is inside the shape when its scalar value is strictly below
  the iso level; a value exactly at the level counts as outside.
* Serialized payloads are laid out x-fastest, then y, then z (Fortran
  order over arrays indexed [x, y, z]).

All functions here are pure; nothing mutates its inputs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import InvalidKind, NonFiniteValues, ShapeError


class GridKind(enum.Enum):
    SDF = "sdf"
    UDF = "udf"
    OCC = "occ"


@dataclass(frozen=True)
class GridDims:
    """Lattice vertex counts per axis."""

    m: int
    n: int
    k: int

    def __post_init__(self):
        if min(self.m, self.n, self.k) < 2:
            raise ShapeError(f"grid needs at least 2 vertices per axis, got {self}")

    @property
    def vertex_shape(self) -> tuple[int, int, int]:
        return (self.m, self.n, self.k)

    @property
    def cell_shape(self) -> tuple[int, int, int]:
        return (self.m - 1, self.n - 1, self.k - 1)

    def edge_shape(self, axis: int) -> tuple[int, int, int]:
        """Array shape for the edges running along `axis`."""
        shape = [self.m, self.n, self.k]
        shape[axis] -= 1
        return tuple(shape)

    @property
    def vertex_count(self) -> int:
        return self.m * self.n * self.k

    @property
    def cell_count(self) -> int:
        return (self.m - 1) * (self.n - 1) * (self.k - 1)

    @property
    def edge_count(self) -> int:
        return sum(int(np.prod(self.edge_shape(a))) for a in range(3))


def _check_shape(name: str, arr: np.ndarray, expected: tuple[int, ...]) -> None:
    if arr.shape[: len(expected)] != expected:
        raise ShapeError(f"{name}: expected leading shape {expected}, got {arr.shape}")


@dataclass
class ScalarGrid:
    """One real value per lattice vertex.

    For OCC the stored entry at vertex (i, j, l) is the occupancy of the
    cell whose minimum corner is that vertex; the last slice along each
    axis pads virtual out-of-grid cells with 0.
    """

    dims: GridDims
    kind: GridKind
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        _check_shape("ScalarGrid.values", self.values, self.dims.vertex_shape)
        if self.values.ndim != 3:
            raise ShapeError("ScalarGrid.values must be a 3d array")
        if not np.all(np.isfinite(self.values)):
            raise NonFiniteValues("ScalarGrid.values must be finite")
        if self.kind == GridKind.UDF and np.any(self.values < 0):
            raise InvalidKind("UDF grids must be non-negative")
        if self.kind == GridKind.OCC:
            bad = ~np.isin(self.values, (0.0, 1.0))
            if np.any(bad):
                raise InvalidKind("OCC grids must contain only 0 and 1")


@dataclass
class SignGrid:
    """Inside flag per lattice vertex (true means the negative side)."""

    dims: GridDims
    inside: np.ndarray

    def __post_init__(self):
        self.inside = np.asarray(self.inside, dtype=bool)
        _check_shape("SignGrid.inside", self.inside, self.dims.vertex_shape)


@dataclass
class EdgeField:
    """One value (bool, scalar, or small vector) per lattice edge.

    Stored as three arrays, one per edge axis, each indexed by the edge's
    lower endpoint. Trailing dimensions beyond the base edge shape carry
    per-edge vectors.
    """

    dims: GridDims
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        for axis, arr in enumerate((self.x, self.y, self.z)):
            _check_shape(f"EdgeField axis {axis}", np.asarray(arr), self.dims.edge_shape(axis))

    @property
    def axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (self.x, self.y, self.z)

    def axis(self, a: int) -> np.ndarray:
        return (self.x, self.y, self.z)[a]

    @classmethod
    def full(cls, dims: GridDims, value, dtype, trailing: tuple[int, ...] = ()) -> "EdgeField":
        arrs = [np.full(dims.edge_shape(a) + trailing, value, dtype=dtype) for a in range(3)]
        return cls(dims, *arrs)

    def copy(self) -> "EdgeField":
        return EdgeField(self.dims, self.x.copy(), self.y.copy(), self.z.copy())


@dataclass
class VertexOffsetGrid:
    """Mesh-vertex offset inside each cell, components in [0, 1]."""

    dims: GridDims
    offsets: np.ndarray

    def __post_init__(self):
        self.offsets = np.asarray(self.offsets, dtype=np.float64)
        _check_shape("VertexOffsetGrid.offsets", self.offsets, self.dims.cell_shape + (3,))
        if not np.all(np.isfinite(self.offsets)):
            raise NonFiniteValues("VertexOffsetGrid.offsets must be finite")


@dataclass
class MaskGrids:
    """Supervision masks: per-vertex m_s, per-cell m_v, per-edge m_f."""

    dims: GridDims
    m_s: np.ndarray
    m_v: np.ndarray
    m_f: EdgeField

    def __post_init__(self):
        self.m_s = np.asarray(self.m_s, dtype=bool)
        self.m_v = np.asarray(self.m_v, dtype=bool)
        _check_shape("MaskGrids.m_s", self.m_s, self.dims.vertex_shape)
        _check_shape("MaskGrids.m_v", self.m_v, self.dims.cell_shape)


def signs_from_scalar(grid: ScalarGrid, iso: float = 0.0) -> SignGrid:
    """Threshold a scalar grid into inside flags; values at iso are outside."""
    if grid.kind == GridKind.OCC:
        raise InvalidKind("occupancy stores cell values, not signed vertex samples")
    return SignGrid(grid.dims, grid.values < iso)


def edge_ends(arr: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of per-vertex data at the lower and upper endpoint of every
    edge along `axis`; both are shaped like the edge array."""
    lo = [slice(None)] * 3
    hi = [slice(None)] * 3
    lo[axis] = slice(None, -1)
    hi[axis] = slice(1, None)
    return arr[tuple(lo)], arr[tuple(hi)]


def xor_flags(signs: SignGrid) -> EdgeField:
    """Edge crossing flags: true exactly where the two endpoint signs differ."""
    return EdgeField(signs.dims, *(np.not_equal(*edge_ends(signs.inside, a)) for a in range(3)))


def _cell_owned_edges(dims: GridDims, axis: int) -> tuple[slice, slice, slice]:
    """Index of the edges along `axis` that start at some cell's min corner."""
    sl = [slice(0, s) for s in dims.cell_shape]
    sl[axis] = slice(None)
    return tuple(sl)


def edge_field_to_cells(field: EdgeField) -> np.ndarray:
    """Gather the cell-owned edges of a field into a (3, cells) array."""
    return np.stack([np.asarray(field.axis(a))[_cell_owned_edges(field.dims, a)] for a in range(3)])


def cells_to_edge_field(values: np.ndarray, dims: GridDims) -> EdgeField:
    """Scatter (3, cells) per-cell edge values back to a full field.

    Border edges owned by no cell are zero (false).
    """
    if values.shape != (3,) + dims.cell_shape:
        raise ShapeError(
            f"cell edge array must be (3,)+{dims.cell_shape}, got {values.shape}")
    parts = []
    for a in range(3):
        arr = np.zeros(dims.edge_shape(a), dtype=values.dtype)
        arr[_cell_owned_edges(dims, a)] = values[a]
        parts.append(arr)
    return EdgeField(dims, *parts)


def edge_crossings_linear(grid: ScalarGrid, iso: float = 0.0) -> EdgeField:
    """Linear crossing parameter per sign-change edge, NaN elsewhere.

    The parameter t measures from the lower-index endpoint, so the
    crossing point on x-edge (i, j, l) is (i + t, j, l). Invariant under
    positive rescaling of the field.
    """
    if grid.kind == GridKind.OCC:
        raise InvalidKind("occupancy stores cell values, not signed vertex samples")
    v = grid.values - iso
    arrs = []
    for axis in range(3):
        a, b = edge_ends(v, axis)
        cross = (a < 0) ^ (b < 0)
        t = np.full(a.shape, np.nan)
        denom = a - b
        np.divide(a, denom, out=t, where=cross)
        arrs.append(t)
    return EdgeField(grid.dims, *arrs)


def central_gradients(grid: ScalarGrid) -> np.ndarray:
    """Per-vertex gradient estimate, shape (m, n, k, 3).

    Central differences in the interior, one-sided at the boundary
    slices. Units are field units per cell.
    """
    return np.stack(np.gradient(grid.values), axis=-1)


def unit_normals(n: np.ndarray) -> np.ndarray:
    """Rows scaled to unit length; zero-length rows become +x."""
    norm = np.linalg.norm(n, axis=-1, keepdims=True)
    zero = norm[..., 0] < 1e-300
    n = n / np.where(norm > 0, norm, 1.0)
    n[zero] = (1.0, 0.0, 0.0)
    return n


def edge_crossing_normals(grid: ScalarGrid, crossings: EdgeField) -> tuple[EdgeField, int]:
    """Unit normals at edge crossings by interpolating vertex gradients.

    Gradients at the two edge endpoints are blended at the crossing
    parameter and normalized. Zero-length results fall back to +x and are
    counted in the returned degenerate tally.
    """
    grads = central_gradients(grid)
    arrs = []
    degenerate = 0
    for axis in range(3):
        t = crossings.axis(axis)
        ga, gb = edge_ends(grads, axis)
        w = np.nan_to_num(t)[..., None]
        n = (1.0 - w) * ga + w * gb
        norm = np.linalg.norm(n, axis=-1)
        cross = ~np.isnan(t)
        bad = cross & (norm < 1e-300)
        degenerate += int(np.count_nonzero(bad))
        safe = np.where(norm > 0, norm, 1.0)[..., None]
        n = n / safe
        n[bad] = (1.0, 0.0, 0.0)
        n[~cross] = np.nan
        arrs.append(n)
    return EdgeField(grid.dims, *arrs), degenerate
