"""Extraction from sign/flag/offset fields and the hole-closing pass, and
the 48-transform equivariance of every extractor."""

from collections import Counter

import numpy as np
import pytest

from ndcmesh._dual import assemble_dual_mesh
from ndcmesh.csg import Box, Sphere, Subtract, Union, csg_normal_fn, random_scene
from ndcmesh.datagen import sample_csg_grid
from ndcmesh.dc import dc_extract, dc_fields
from ndcmesh.errors import ShapeError
from ndcmesh.grids import (EdgeField, GridDims, GridKind, ScalarGrid, SignGrid,
                           VertexOffsetGrid, signs_from_scalar, xor_flags)
from ndcmesh.mc import mc_extract
from ndcmesh.mesh import QuadMesh, edge_topology_stats
from ndcmesh.ndc import close_holes, mesh_cells, ndc_extract, undc_extract
from ndcmesh.rng import rng_for
from ndcmesh.transforms import (NUM_SPATIAL, transform_edge_field, transform_offsets,
                                transform_points, transform_scalar_grid, transform_sign_grid)


def centered_offsets(dims: GridDims) -> VertexOffsetGrid:
    return VertexOffsetGrid(dims, np.full(dims.cell_shape + (3,), 0.5))


def sheet_flags(dims: GridDims, layer: int) -> EdgeField:
    """True on every z-edge from lattice layer `layer` to `layer + 1`."""
    flags = EdgeField.full(dims, False, bool)
    flags.z[:, :, layer] = True
    return flags


def interior_flag_count(flags: EdgeField) -> int:
    """Loop oracle: flags whose four surrounding cells all exist."""
    count = 0
    shape = flags.dims.vertex_shape
    for a in range(3):
        arr = np.asarray(flags.axis(a))
        for pos in np.argwhere(arr):
            if all(0 < pos[t] < shape[t] - 1 for t in range(3) if t != a):
                count += 1
    return count


def test_uniform_signs_give_an_empty_mesh():
    dims = GridDims(5, 5, 5)
    offs = centered_offsets(dims)
    for value in (False, True):
        signs = SignGrid(dims, np.full(dims.vertex_shape, value))
        mesh = ndc_extract(signs, offs)
        assert len(mesh.quads) == 0


def test_single_inside_vertex_gives_a_closed_cuboid():
    dims = GridDims(5, 5, 5)
    inside = np.zeros(dims.vertex_shape, dtype=bool)
    inside[2, 2, 2] = True
    mesh = ndc_extract(SignGrid(dims, inside), centered_offsets(dims))
    assert len(mesh.quads) == 6
    want = {(1.5 + dx, 1.5 + dy, 1.5 + dz)
            for dx in (0, 1) for dy in (0, 1) for dz in (0, 1)}
    assert {tuple(v) for v in mesh.vertices} == want
    stats = edge_topology_stats(mesh)
    assert stats.edge_count == 12
    assert stats.manifold == 12
    assert stats.boundary == 0


def test_classical_fields_reproduce_classical_extraction():
    # same assembler, so connectivity matches exactly; the offsets grid
    # clamps to the unit cell while classical extraction keeps the raw
    # solve, so a few vertices differ by that clamp; classical output
    # also re-winds faces by the inside direction
    sphere = Sphere(np.full(3, 16.0), 12.8)
    grid = sample_csg_grid(sphere, GridDims(33, 33, 33))
    classical = dc_extract(grid, normal_source=csg_normal_fn(sphere))
    signs, offs = dc_fields(grid, normal_source=csg_normal_fn(sphere))
    learned = ndc_extract(signs, offs)

    assert len(classical.quads) == len(learned.quads)
    same = (classical.quads == learned.quads).all(axis=1)
    reversed_ = (classical.quads == learned.quads[:, ::-1]).all(axis=1)
    assert np.all(same | reversed_)

    delta = np.abs(classical.vertices - learned.vertices).max(axis=1)
    assert delta.max() < 0.005
    assert np.mean(delta == 0) > 0.95


def test_flag_extraction_on_xor_flags_is_bit_identical_to_signs():
    dims = GridDims(9, 9, 9)
    rng = rng_for(31, "xor-equivalence")
    for _ in range(10):
        signs = SignGrid(dims, rng.random(dims.vertex_shape) < 0.3)
        offs = VertexOffsetGrid(dims, rng.random(dims.cell_shape + (3,)))
        a = ndc_extract(signs, offs)
        b = undc_extract(xor_flags(signs), offs)
        assert np.array_equal(a.vertices, b.vertices)
        assert np.array_equal(a.quads, b.quads)


def test_fields_on_different_lattices_raise_shape_error():
    """Offsets and the winding signs must sit on the flags' lattice, one
    axis off included; the shared assembler checks it for every extractor."""
    dims = GridDims(6, 7, 5)
    inside = np.zeros(dims.vertex_shape, dtype=bool)
    inside[2:4, 2:5, 2:3] = True
    signs = SignGrid(dims, inside)
    assert len(ndc_extract(signs, centered_offsets(dims)).quads) > 0
    for other in (GridDims(6, 7, 6), GridDims(7, 7, 5), GridDims(5, 7, 5)):
        with pytest.raises(ShapeError):
            ndc_extract(signs, centered_offsets(other))
        with pytest.raises(ShapeError):
            undc_extract(xor_flags(signs), centered_offsets(other))
        other_signs = SignGrid(other, np.zeros(other.vertex_shape, dtype=bool))
        with pytest.raises(ShapeError):
            assemble_dual_mesh(xor_flags(signs), centered_offsets(dims).offsets, other_signs)
        with pytest.raises(ShapeError):
            assemble_dual_mesh(xor_flags(signs), np.full(other.cell_shape + (3,), 0.5), signs)


def test_interior_sign_fields_extract_closed_meshes():
    dims = GridDims(8, 8, 8)
    rng = rng_for(77, "closure-trials")
    for _ in range(10):
        inside = rng.random(dims.vertex_shape) < 0.4
        inside[[0, -1], :, :] = False
        inside[:, [0, -1], :] = False
        inside[:, :, [0, -1]] = False
        mesh = ndc_extract(SignGrid(dims, inside),
                           VertexOffsetGrid(dims, rng.random(dims.cell_shape + (3,))))
        if len(mesh.quads) == 0:
            continue
        assert edge_topology_stats(mesh).boundary == 0


def test_flag_sheet_gives_an_open_mesh_bounded_at_the_grid_border():
    dims = GridDims(9, 9, 9)
    mesh = undc_extract(sheet_flags(dims, 4), centered_offsets(dims))
    assert len(mesh.quads) == 7 * 7
    stats = edge_topology_stats(mesh)
    assert stats.boundary > 0
    edges = {}
    for quad in mesh.quads:
        for s in range(4):
            e = tuple(sorted((quad[s], quad[(s + 1) % 4])))
            edges[e] = edges.get(e, 0) + 1
    for (va, vb), count in edges.items():
        if count != 1:
            continue
        for v in (mesh.vertices[va], mesh.vertices[vb]):
            cell = np.floor(v).astype(int)
            assert cell[0] in (0, 7) or cell[1] in (0, 7)


def test_sparse_flag_face_count_matches_the_interior_flag_oracle():
    dims = GridDims(7, 7, 7)
    rng = rng_for(5, "sparse-flags")
    for _ in range(5):
        flags = EdgeField(dims,
                          rng.random(dims.edge_shape(0)) < 0.15,
                          rng.random(dims.edge_shape(1)) < 0.15,
                          rng.random(dims.edge_shape(2)) < 0.15)
        mesh = undc_extract(flags, centered_offsets(dims))
        assert len(mesh.quads) == interior_flag_count(flags)


def flag_arrays(flags: EdgeField):
    return tuple(np.asarray(flags.axis(a)) for a in range(3))


def test_single_missing_quad_is_restored_in_one_pass():
    dims = GridDims(9, 9, 9)
    intact = sheet_flags(dims, 4)
    holed = intact.copy()
    holed.z[4, 5, 4] = False
    fixed = close_holes(holed, max_passes=1)
    for a, b in zip(flag_arrays(fixed), flag_arrays(intact)):
        assert np.array_equal(a, b)


def test_hole_free_field_is_a_fixpoint():
    dims = GridDims(9, 9, 9)
    intact = sheet_flags(dims, 4)
    out = close_holes(intact)
    for a, b in zip(flag_arrays(out), flag_arrays(intact)):
        assert np.array_equal(a, b)


def test_missing_quad_beside_the_border_ring_is_restored_in_one_pass():
    # two of the quad's mesh edges lie on the outermost ring of cells;
    # the flags on the boundary planes beyond them count as their faces
    dims = GridDims(9, 9, 9)
    intact = sheet_flags(dims, 4)
    holed = intact.copy()
    holed.z[1, 1, 4] = False
    fixed = close_holes(holed, max_passes=1)
    for a, b in zip(flag_arrays(fixed), flag_arrays(intact)):
        assert np.array_equal(a, b)


def test_surfaces_cut_by_the_grid_border_are_fixpoints():
    # scenes of extent 30 seen through a 16^3 window from (7, 7, 7)
    dims = GridDims(16, 16, 16)
    for seed in range(1, 41):
        scene = random_scene(seed, 30.0)
        grid = sample_csg_grid(lambda p: scene(p + 7.0), dims)
        flags = xor_flags(signs_from_scalar(grid))
        out = close_holes(flags)
        for a, b in zip(flag_arrays(out), flag_arrays(flags)):
            assert np.array_equal(a, b), seed


def test_two_adjacent_missing_quads_are_restored_within_two_passes():
    dims = GridDims(9, 9, 9)
    intact = sheet_flags(dims, 4)
    holed = intact.copy()
    holed.z[4, 5, 4] = False
    holed.z[4, 6, 4] = False
    fixed = close_holes(holed, max_passes=2)
    for a, b in zip(flag_arrays(fixed), flag_arrays(intact)):
        assert np.array_equal(a, b)
    intact_boundary = edge_topology_stats(
        undc_extract(intact, centered_offsets(dims))).boundary
    fixed_boundary = edge_topology_stats(
        undc_extract(fixed, centered_offsets(dims))).boundary
    assert fixed_boundary == intact_boundary


def test_hole_closing_is_monotone_and_idempotent():
    dims = GridDims(8, 8, 8)
    rng = rng_for(13, "random-repairs")
    for _ in range(5):
        flags = EdgeField(dims,
                          rng.random(dims.edge_shape(0)) < 0.2,
                          rng.random(dims.edge_shape(1)) < 0.2,
                          rng.random(dims.edge_shape(2)) < 0.2)
        out = close_holes(flags, max_passes=50)
        again = close_holes(out, max_passes=50)
        for a in range(3):
            before = np.asarray(flags.axis(a))
            after = np.asarray(out.axis(a))
            assert np.all(after[before])  # never clears a flag
            assert np.array_equal(np.asarray(again.axis(a)), after)


def reference_face_counts(flags: EdgeField) -> list[np.ndarray]:
    """Slice-based face counts, indexed by the lower cell of each pair."""
    cells = flags.dims.cell_shape
    counts = []
    for d in range(3):
        e, f = (d + 1) % 3, (d + 2) % 3
        fe = np.moveaxis(flags.axis(e).astype(np.int32), (d, e, f), (0, 1, 2))
        ff = np.moveaxis(flags.axis(f).astype(np.int32), (d, e, f), (0, 1, 2))
        p, q, r = cells[d], cells[e], cells[f]
        cd = (
            fe[1:p, 0:q, 0:r]
            + fe[1:p, 0:q, 1 : r + 1]
            + ff[1:p, 0:q, 0:r]
            + ff[1:p, 1 : q + 1, 0:r]
        )
        counts.append(np.moveaxis(cd, (0, 1, 2), (d, e, f)))
    return counts


def reference_close_holes(flags: EdgeField, max_passes: int) -> EdgeField:
    """Slice-based hole closing: the same rule spelled out per window."""
    out = flags.copy()
    cells = flags.dims.cell_shape
    for _ in range(max_passes):
        counts = reference_face_counts(out)
        flips = []
        for a in range(3):
            b, c = (a + 1) % 3, (a + 2) % 3
            fa = np.moveaxis(out.axis(a).astype(bool), (a, b, c), (0, 1, 2))
            cb = np.moveaxis(counts[b], (a, b, c), (0, 1, 2))
            cc = np.moveaxis(counts[c], (a, b, c), (0, 1, 2))
            q, r = cells[b], cells[c]
            interior = fa[:, 1:q, 1:r]
            boundary = (
                (cb[:, 0 : q - 1, 0 : r - 1] == 1).astype(np.int32)
                + (cc[:, 1:q, 0 : r - 1] == 1)
                + (cb[:, 0 : q - 1, 1:r] == 1)
                + (cc[:, 0 : q - 1, 0 : r - 1] == 1)
            )
            flips.append(~interior & (boundary >= 3))
        if not any(np.any(f) for f in flips):
            break
        for a in range(3):
            b, c = (a + 1) % 3, (a + 2) % 3
            fa = np.moveaxis(out.axis(a), (a, b, c), (0, 1, 2))
            q, r = cells[b], cells[c]
            fa[:, 1:q, 1:r] |= flips[a]
    return out


def random_flags(dims: GridDims, density: float, rng) -> EdgeField:
    return EdgeField(dims, *(rng.random(dims.edge_shape(a)) < density for a in range(3)))


def test_hole_closing_matches_the_slice_reference_bit_for_bit():
    rng = rng_for(17, "hole-closing-reference")
    for narrow in range(8):  # bit t makes axis t two vertices wide
        for density in (0.05, 0.2, 0.5):
            for _ in range(3):
                dims = GridDims(*(2 if narrow >> t & 1 else int(rng.integers(3, 12))
                                  for t in range(3)))
                flags = random_flags(dims, density, rng)
                for max_passes in (1, 3, 50):
                    got = close_holes(flags, max_passes)
                    want = reference_close_holes(flags, max_passes)
                    for a in range(3):
                        assert got.axis(a).dtype == bool
                        assert np.array_equal(got.axis(a), want.axis(a)), (
                            dims, density, max_passes, a)


def test_mesh_cells_are_the_cells_every_mesh_from_the_field_reads():
    """A cell's offset moves a mesh vertex exactly when it is a mesh cell:
    for signs (ndc), and for flags (undc) with and without close_holes,
    which flips flags on 8 of these fields and never adds a cell."""
    rng = rng_for(19, "mesh-cells")
    flipped = 0
    for narrow in range(8):  # bit t makes axis t two vertices wide
        for density in (0.05, 0.2, 0.5):
            dims = GridDims(*(2 if narrow >> t & 1 else int(rng.integers(3, 10))
                              for t in range(3)))
            signs = SignGrid(dims, rng.random(dims.vertex_shape) < density)
            flags = random_flags(dims, density, rng)
            closed = close_holes(flags)
            flipped += any(np.any(c != f) for c, f in zip(closed.axes, flags.axes))
            for field, meshes in ((signs, [xor_flags(signs)]), (flags, [flags, closed])):
                cells = mesh_cells(field)
                for mesh_flags in meshes:
                    off = rng.random(dims.cell_shape + (3,))
                    moved = np.where(cells[..., None], off, rng.random(off.shape))
                    a, b = (undc_extract(mesh_flags, VertexOffsetGrid(dims, o))
                            for o in (off, moved))
                    assert np.array_equal(a.quads, b.quads)
                    assert np.array_equal(a.vertices, b.vertices), (dims, density)
                    # and a mesh vertex per mesh cell, none elsewhere
                    assert len(a.vertices) == cells.sum(), (dims, density)
    assert flipped >= 8


def face_set(mesh, dims: GridDims, transform_id: int = 0) -> Counter:
    """Faces as unordered sets of (transformed) vertex positions."""
    points = np.round(transform_points(mesh.vertices, dims, transform_id), 9)
    faces = mesh.quads if isinstance(mesh, QuadMesh) else mesh.tris
    return Counter(frozenset(map(tuple, points[face])) for face in faces)


def test_extraction_and_hole_closing_commute_with_the_48_spatial_transforms():
    dims = GridDims(5, 6, 7)
    rng = rng_for(23, "equivariance")
    signs = SignGrid(dims, rng.random(dims.vertex_shape) < 0.4)
    flags = random_flags(dims, 0.2, rng)
    offsets = VertexOffsetGrid(dims, rng.random(dims.cell_shape + (3,)))
    closed = close_holes(flags, max_passes=50)
    ndc_mesh = ndc_extract(signs, offsets)
    undc_mesh = undc_extract(flags, offsets)
    assert any(np.any(closed.axis(a) != flags.axis(a)) for a in range(3))
    assert len(ndc_mesh.quads) and len(undc_mesh.quads)
    for t in range(NUM_SPATIAL):
        moved_flags = transform_edge_field(flags, t)
        moved_offsets = transform_offsets(offsets, t)
        moved_dims = moved_flags.dims
        got = close_holes(moved_flags, max_passes=50)
        want = transform_edge_field(closed, t)
        for a in range(3):
            assert np.array_equal(got.axis(a), want.axis(a)), (t, a)
        assert (face_set(ndc_extract(transform_sign_grid(signs, t), moved_offsets), moved_dims)
                == face_set(ndc_mesh, dims, t)), t
        assert (face_set(undc_extract(moved_flags, moved_offsets), moved_dims)
                == face_set(undc_mesh, dims, t)), t


def cell_pieces(mesh, dims: GridDims, transform_id: int = 0) -> Counter:
    """The (transformed) vertex positions of each cell's triangles."""
    points = np.round(transform_points(mesh.vertices, dims, transform_id), 9)
    pieces = {}
    for tri in mesh.tris:
        cell = tuple(np.floor(points[tri].mean(axis=0)).astype(int))
        pieces.setdefault(cell, set()).update(map(tuple, points[tri]))
    return Counter(frozenset(piece) for piece in pieces.values())


def test_classical_extraction_commutes_with_the_48_spatial_transforms():
    """dc_extract of a transformed grid is the transformed mesh. The MC
    table splits a cell's surface piece along diagonals that a transform
    does not carry along, so for mc_extract each cell's piece is compared."""
    q, _ = np.linalg.qr(rng_for(24, "rotation").normal(size=(3, 3)))
    scene = Subtract(Union(Box((4.6, 5.2, 5.9), (2.6, 2.1, 3.0), tuple(map(tuple, q))),
                           Sphere((6.3, 4.4, 6.2), 2.7)),
                     Sphere((3.0, 7.0, 4.0), 1.6))
    noise_dims = GridDims(6, 7, 8)
    noise = ScalarGrid(noise_dims, GridKind.SDF,
                       rng_for(24, "noise").random(noise_dims.vertex_shape) - 0.45)
    grids = [sample_csg_grid(scene, GridDims(11, 12, 13)), noise]
    for g, grid in enumerate(grids):
        dc_mesh, mc_mesh = dc_extract(grid), mc_extract(grid)
        assert len(dc_mesh.quads) > 200 and len(mc_mesh.tris) > 400
        for t in range(NUM_SPATIAL):
            moved = transform_scalar_grid(grid, t)
            assert (face_set(dc_extract(moved), moved.dims)
                    == face_set(dc_mesh, grid.dims, t)), (g, t)
            assert (cell_pieces(mc_extract(moved), moved.dims)
                    == cell_pieces(mc_mesh, grid.dims, t)), (g, t)
