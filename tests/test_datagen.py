"""Ground-truth fields, masks, clouds, and sample assembly."""

import numpy as np
import pytest

from ndcmesh.csg import Box, Sphere, random_scene
from ndcmesh.datagen import (BAND_WIDTH, augment_sample, build_masks,
                             cloud_active_cells, gt_edge_data,
                             make_training_sample, mesh_to_sdf_grid,
                             occupancy_from_mesh, plane_sheet_mesh,
                             pseudo_gt_vertices, sample_csg_grid,
                             sample_point_cloud)
from ndcmesh.errors import OpenMeshError, TooFewPoints
from ndcmesh.grids import (GridDims, GridKind, ScalarGrid, SignGrid,
                           signs_from_scalar, xor_flags)
from ndcmesh.mc import mc_extract
from ndcmesh.mesh import TriMesh, triangle_areas
from ndcmesh.rng import rng_for
from ndcmesh.transforms import NUM_TRANSFORMS, inverse_transform_id


def plane_box(normal, point, extent=2000.0):
    """A box so large that only one face, the plane through `point` with
    `normal`, intersects the sampled grid."""
    n = np.asarray(normal, dtype=np.float64)
    n /= np.linalg.norm(n)
    u = np.cross(n, (0.017, 0.31, 0.95))
    if np.linalg.norm(u) < 1e-6:
        u = np.cross(n, (1.0, 0.0, 0.0))
    u /= np.linalg.norm(u)
    v = np.cross(n, u)
    rot = np.stack([u, v, n], axis=1)
    center = np.asarray(point, dtype=np.float64) - n * (extent / 2)
    return Box(tuple(center), (extent, extent, extent / 2), tuple(map(tuple, rot)))


def cube_mesh(center, half) -> TriMesh:
    c = np.asarray(center, dtype=np.float64)
    corners = c + half * np.array(
        [[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)], dtype=np.float64)
    quads = [(0, 1, 3, 2), (4, 6, 7, 5), (0, 4, 5, 1),
             (2, 3, 7, 6), (0, 2, 6, 4), (1, 5, 7, 3)]
    tris = []
    for a, b, cc, d in quads:
        tris += [[a, b, cc], [a, cc, d]]
    return TriMesh(corners, np.array(tris, dtype=np.int64))


def icosphere(center, radius, subdiv) -> TriMesh:
    phi = (1 + 5 ** 0.5) / 2
    v = np.array([[-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
                  [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
                  [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1]],
                 dtype=np.float64)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    f = np.array([[0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
                  [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
                  [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
                  [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1]])
    for _ in range(subdiv):
        verts = list(map(tuple, v))
        cache = {}

        def midpoint(a, b):
            key = (min(a, b), max(a, b))
            if key not in cache:
                m = v[a] + v[b]
                m /= np.linalg.norm(m)
                verts.append(tuple(m))
                cache[key] = len(verts) - 1
            return cache[key]

        nf = []
        for a, b, c in f:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            nf += [[a, ab, ca], [ab, b, bc], [ca, bc, c], [ab, bc, ca]]
        v = np.array(verts)
        f = np.array(nf)
    return TriMesh(np.asarray(center) + radius * v, f)


def edge_equal(a, b) -> bool:
    return all(np.array_equal(np.asarray(a.axis(i)), np.asarray(b.axis(i)))
               for i in range(3))


# ---------------------------------------------------------------------------
# ground-truth edge data


def test_axis_plane_edge_data_is_exact():
    dims = GridDims(9, 9, 9)
    c = 4.3
    flags, tvals, normals = gt_edge_data(plane_box((0, 0, 1), (4.0, 4.0, c)), dims)
    assert not np.asarray(flags.x).any()
    assert not np.asarray(flags.y).any()
    zf = np.asarray(flags.z)
    assert zf[:, :, 4].all() and zf.sum() == 81
    t = np.asarray(tvals.z)[:, :, 4]
    assert np.allclose(t, 0.3, atol=1e-6)
    n = np.asarray(normals.z)[:, :, 4]
    assert np.allclose(n, [0.0, 0.0, 1.0], atol=1e-6)


def test_sphere_crossings_land_on_the_radius():
    dims = GridDims(17, 17, 17)
    center = np.full(3, 8.0)
    sphere = Sphere(tuple(center), 5.3)
    flags, tvals, _ = gt_edge_data(sphere, dims)
    for a in range(3):
        mask = np.asarray(flags.axis(a))
        pos = np.argwhere(mask).astype(np.float64)
        pos[:, a] += np.asarray(tvals.axis(a))[mask]
        radii = np.linalg.norm(pos - center, axis=1)
        assert np.abs(radii - 5.3).max() < 1e-6


def test_flags_agree_with_the_sampled_sign_field():
    dims = GridDims(17, 17, 17)
    for shape in (Sphere((8.0, 8.0, 8.0), 5.1),
                  random_scene(3, extent=16.0),
                  random_scene(4, extent=16.0)):
        flags, _, _ = gt_edge_data(shape, dims)
        want = xor_flags(signs_from_scalar(sample_csg_grid(shape, dims)))
        assert edge_equal(flags, want)


def test_mesh_edge_data_uses_exact_triangle_intersections():
    dims = GridDims(9, 9, 9)
    sheet = plane_sheet_mesh(dims, axis=2, coord=4.3)
    flags, tvals, normals = gt_edge_data(sheet, dims)
    zf = np.asarray(flags.z)
    assert zf[:, :, 4].all()
    assert np.allclose(np.asarray(tvals.z)[:, :, 4], 0.3, atol=1e-9)
    nz = np.asarray(normals.z)[:, :, 4]
    assert np.allclose(np.abs(nz[..., 2]), 1.0, atol=1e-9)


# ---------------------------------------------------------------------------
# pseudo ground-truth vertices


def test_plane_cells_get_exact_plane_offsets():
    dims = GridDims(9, 9, 9)
    _, tvals, normals = gt_edge_data(plane_box((0, 0, 1), (4.0, 4.0, 4.3)), dims)
    offs = pseudo_gt_vertices(tvals, normals, dims).offsets
    layer = offs[:, :, 4]
    assert np.allclose(layer[..., 0], 0.5, atol=1e-6)
    assert np.allclose(layer[..., 1], 0.5, atol=1e-6)
    assert np.allclose(layer[..., 2], 0.3, atol=1e-6)
    # cells without crossings stay centered
    assert np.allclose(offs[:, :, 0], 0.5)


def test_arbitrary_plane_vertices_stay_on_the_plane():
    dims = GridDims(9, 9, 9)
    rng = rng_for(77, "plane-sweep")
    for _ in range(20):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        point = np.full(3, 4.0) + rng.uniform(-0.4, 0.4, 3)
        _, tvals, normals = gt_edge_data(plane_box(n, point), dims)
        offs = pseudo_gt_vertices(tvals, normals, dims).offsets
        mask = ~np.all(offs == 0.5, axis=-1)
        verts = np.argwhere(mask) + offs[mask]
        assert np.abs((verts - point) @ n).max() < 1e-6


def test_box_corners_appear_in_the_vertex_targets():
    dims = GridDims(33, 33, 33)
    box = Box((16.3, 15.7, 16.1), (5.2, 6.4, 4.8))
    _, tvals, normals = gt_edge_data(box, dims)
    offs = pseudo_gt_vertices(tvals, normals, dims).offsets
    assert offs.min() >= 0.0 and offs.max() <= 1.0
    verts = np.argwhere(np.ones(dims.cell_shape, dtype=bool)) + offs.reshape(-1, 3)
    for sx in (-1, 1):
        for sy in (-1, 1):
            for sz in (-1, 1):
                corner = np.array([16.3, 15.7, 16.1]) + \
                    np.array([sx, sy, sz]) * np.array([5.2, 6.4, 4.8])
                assert np.linalg.norm(verts - corner, axis=1).min() < 1e-3


# ---------------------------------------------------------------------------
# masks


def test_sdf_masks_follow_the_distance_band():
    dims = GridDims(17, 17, 17)
    sample = make_training_sample(Sphere((8.0, 8.0, 8.0), 5.1), dims)
    band = np.abs(sample.grid.values) < BAND_WIDTH
    assert np.array_equal(sample.masks.m_s, band)
    assert np.array_equal(np.asarray(sample.masks.m_f.x),
                          band[:-1] & band[1:])
    assert np.array_equal(np.asarray(sample.masks.m_f.z),
                          band[:, :, :-1] & band[:, :, 1:])


def test_sign_change_cells_are_a_subset_of_crossed_cells():
    dims = GridDims(17, 17, 17)
    sample = make_training_sample(random_scene(5, extent=16.0), dims)
    ndc_mask = build_masks(dims, "ndc", grid=sample.grid,
                           gt_signs=sample.gt_signs, gt_flags=sample.gt_flags)
    undc_mask = build_masks(dims, "undc", grid=sample.grid,
                            gt_signs=sample.gt_signs, gt_flags=sample.gt_flags)
    assert np.all(undc_mask.m_v[ndc_mask.m_v])
    # some cell has a boundary crossing without a corner sign change is
    # rare on smooth scenes, but the superset claim must hold regardless
    assert ndc_mask.m_v.any()


def test_ndc_cell_mask_matches_the_eight_corner_brute_force():
    # reference: a cell is marked when its eight corner signs are not all
    # equal
    rng = rng_for(31, "ndc-mask")
    for shape in ((2, 2, 2), (3, 5, 4), (9, 8, 7)):
        dims = GridDims(*shape)
        for density in (0.1, 0.5, 0.9):
            inside = rng.random(shape) < density
            corners = [inside[dx:dx + shape[0] - 1, dy:dy + shape[1] - 1, dz:dz + shape[2] - 1]
                       for dx in (0, 1) for dy in (0, 1) for dz in (0, 1)]
            want = ~(np.logical_and.reduce(corners) | ~np.logical_or.reduce(corners))
            masks = build_masks(dims, "ndc", gt_signs=SignGrid(dims, inside))
            assert np.array_equal(masks.m_v, want)


def test_voxel_edge_mask_marks_edges_with_four_occupied_cells():
    dims = GridDims(7, 8, 9)
    occ = np.zeros(dims.vertex_shape)
    occ[:-1, :-1, :-1] = rng_for(32, "occ-mask").random(dims.cell_shape) < 0.7
    masks = build_masks(dims, "ndc", grid=ScalarGrid(dims, GridKind.OCC, occ),
                        gt_signs=SignGrid(dims, np.zeros(dims.vertex_shape, dtype=bool)))
    cells = occ[:-1, :-1, :-1] > 0.5
    for a in range(3):
        b, c = (a + 1) % 3, (a + 2) % 3
        want = np.zeros(dims.edge_shape(a), dtype=bool)
        for p in np.ndindex(*want.shape):
            if 0 < p[b] < dims.vertex_shape[b] - 1 and 0 < p[c] < dims.vertex_shape[c] - 1:
                around = []
                for db in (-1, 0):
                    for dc in (-1, 0):
                        q = list(p)
                        q[b] += db
                        q[c] += dc
                        around.append(cells[tuple(q)])
                want[p] = all(around)
        assert np.array_equal(masks.m_f.axis(a), want)
        assert want.any()


def test_uniform_outside_field_produces_empty_masks():
    dims = GridDims(9, 9, 9)
    vals = np.full(dims.vertex_shape, 5.0)
    grid = ScalarGrid(dims, GridKind.SDF, vals)
    signs = signs_from_scalar(grid)
    masks = build_masks(dims, "ndc", grid=grid, gt_signs=signs)
    assert not masks.m_s.any()
    assert not masks.m_v.any()
    assert not any(np.asarray(masks.m_f.axis(a)).any() for a in range(3))


def test_voxel_masks_mark_surface_cell_corners():
    dims = GridDims(7, 7, 7)
    occ = np.zeros(dims.vertex_shape)
    occ[3, 3, 3] = 1.0  # single occupied cell
    grid = ScalarGrid(dims, GridKind.OCC, occ)
    inside = np.zeros(dims.vertex_shape, dtype=bool)
    signs = SignGrid(dims, inside)
    masks = build_masks(dims, "ndc", grid=grid, gt_signs=signs)
    want = np.zeros(dims.vertex_shape, dtype=bool)
    want[3:5, 3:5, 3:5] = True
    assert np.array_equal(masks.m_s, want)
    # no edge has all four surrounding cells occupied
    assert not any(np.asarray(masks.m_f.axis(a)).any() for a in range(3))


def test_point_cloud_masks_cover_the_manhattan_band():
    dims = GridDims(11, 11, 11)
    cloud = np.array([[5.4, 5.6, 5.2]])
    active = cloud_active_cells(cloud, dims)
    cell = np.array([5, 5, 5])
    grid_idx = np.argwhere(np.ones(dims.cell_shape, dtype=bool))
    manhattan = np.abs(grid_idx - cell).sum(axis=1).reshape(dims.cell_shape)
    assert np.array_equal(active, manhattan <= 3)

    masks = build_masks(dims, "undc", cloud=cloud,
                        gt_flags=xor_flags(SignGrid(dims, np.zeros(dims.vertex_shape, bool))))
    assert np.asarray(masks.m_f.x)[5, 5, 5]
    assert not np.asarray(masks.m_f.x)[0, 0, 0]


# ---------------------------------------------------------------------------
# mesh-derived fields


def test_mesh_sdf_matches_the_analytic_sphere():
    center = np.array([8.123, 7.877, 8.049])
    radius = 5.3
    mesh = icosphere(center, radius, 3)
    grid = mesh_to_sdf_grid(mesh, GridDims(17, 17, 17))
    lattice = np.stack(np.meshgrid(*[np.arange(17.0)] * 3, indexing="ij"), axis=-1)
    analytic = np.linalg.norm(lattice - center, axis=-1) - radius
    assert np.abs(grid.values - analytic).max() < 0.02 * radius


def test_cube_mesh_sdf_center_value_is_minus_half_edge():
    center = (8.2, 8.1, 7.9)
    mesh = cube_mesh(center, 3.0)
    grid = mesh_to_sdf_grid(mesh, GridDims(17, 17, 17))
    assert grid.values[8, 8, 8] == pytest.approx(
        -(3.0 - np.abs(np.array(center) - 8).max()), abs=1e-6)


def test_open_sheet_rejects_sdf_but_allows_udf():
    dims = GridDims(9, 9, 9)
    sheet = plane_sheet_mesh(dims, axis=2, coord=4.3)
    with pytest.raises(OpenMeshError):
        mesh_to_sdf_grid(sheet, dims, GridKind.SDF)
    udf = mesh_to_sdf_grid(sheet, dims, GridKind.UDF)
    assert udf.kind == GridKind.UDF
    assert udf.values.min() >= 0.0
    assert udf.values[4, 4, 4] == pytest.approx(0.3, abs=1e-9)


def test_parity_counts_a_ray_through_a_shared_triangle_side_once():
    # every face of this cube is split along a diagonal that the lattice
    # rays through (1, 1), (2, 2) and (3, 3) pass exactly
    dims = GridDims(5, 5, 5)
    grid = mesh_to_sdf_grid(cube_mesh((2.0, 2.0, 2.0), 1.5), dims)
    lattice = np.stack(np.meshgrid(*[np.arange(5.0)] * 3, indexing="ij"), axis=-1)
    inside = np.abs(lattice - 2.0).max(axis=-1) < 1.5
    assert np.array_equal(grid.values < 0, inside)


def test_lattice_aligned_marching_cubes_mesh_gets_its_far_signs_right():
    # marching cubes at 31^3, scaled into 16^3, leaves vertices at
    # rational lattice positions, so some rays run through shared sides
    scene = random_scene(5, 15.0)
    mesh = mc_extract(sample_csg_grid(lambda p: 2.0 * scene(p / 2.0), GridDims(31, 31, 31)))
    dims = GridDims(16, 16, 16)
    grid = mesh_to_sdf_grid(TriMesh(mesh.vertices / 2.0, mesh.tris), dims)
    lattice = np.stack(np.meshgrid(*[np.arange(16.0)] * 3, indexing="ij"), axis=-1)
    field = scene(lattice)
    far = np.abs(field) > 1.0
    assert np.array_equal(grid.values[far] < 0, field[far] < 0)


def test_occupancy_marks_cells_with_inside_centers():
    # generic pose: a cube aligned to exact lattice coordinates sends the
    # parity rays straight through face diagonals
    dims = GridDims(9, 9, 9)
    center = np.array([4.13, 3.91, 4.07])
    mesh = cube_mesh(center, 1.6)
    grid = occupancy_from_mesh(mesh, dims)
    occ = grid.values[:-1, :-1, :-1] > 0.5
    centers = np.argwhere(np.ones(dims.cell_shape, dtype=bool)) + 0.5
    inside = np.abs(centers - center).max(axis=1) < 1.6
    assert np.array_equal(occ.reshape(-1), inside)
    assert not grid.values[-1].any() and not grid.values[:, -1].any()


# ---------------------------------------------------------------------------
# point clouds


def test_noise_free_sheet_cloud_lies_on_the_sheet():
    dims = GridDims(9, 9, 9)
    sheet = plane_sheet_mesh(dims, axis=2, coord=4.3)
    cloud = sample_point_cloud(sheet, 500, noise_sigma=0.0, seed=3)
    assert np.allclose(cloud[:, 2], 4.3, atol=1e-6)
    again = sample_point_cloud(sheet, 500, noise_sigma=0.0, seed=3)
    assert np.array_equal(cloud, again)
    noisy = sample_point_cloud(sheet, 500, noise_sigma=0.5, seed=3)
    assert not np.allclose(noisy[:, 2], 4.3, atol=1e-3)


def test_cloud_sampling_is_area_weighted():
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                      [3.0, 4.0, 0.0]])
    tris = np.array([[0, 1, 2], [1, 3, 2]])
    mesh = TriMesh(verts, tris)
    areas = triangle_areas(verts, tris)
    p = areas[0] / areas.sum()
    cloud = sample_point_cloud(mesh, 10000, seed=5)
    # points in the first triangle satisfy x + y <= 1
    n0 = int((cloud[:, 0] + cloud[:, 1] <= 1.0 + 1e-9).sum())
    sigma = np.sqrt(10000 * p * (1 - p))
    assert abs(n0 - 10000 * p) < 3 * sigma


def test_csg_cloud_covers_a_scene_larger_than_the_first_probe():
    scene = random_scene(1, 255.0)
    cloud = sample_point_cloud(scene, 512, seed=1)
    assert np.abs(scene(cloud)).max() < 1e-6
    # the largest x of the shape, located on a 1-cell lattice
    ys = np.arange(0.0, 256.0)
    x_max = next(x for x in ys[::-1] if (scene(np.stack(np.meshgrid(
        [x], ys, ys, indexing="ij"), axis=-1)) < 0).any())
    assert cloud[:, 0].max() > x_max - 4.0


def test_csg_cloud_points_lie_on_the_surface():
    sphere = Sphere((8.0, 8.0, 8.0), 5.1)
    cloud = sample_point_cloud(sphere, 400, seed=7)
    radii = np.linalg.norm(cloud - 8.0, axis=1)
    assert np.abs(radii - 5.1).max() < 1e-6


# ---------------------------------------------------------------------------
# sample assembly and augmentation


def test_watertight_sample_flags_equal_sign_xor():
    dims = GridDims(17, 17, 17)
    for source in (random_scene(6, extent=16.0),
                   cube_mesh((8.1, 7.9, 8.0), 3.2)):
        sample = make_training_sample(source, dims)
        assert edge_equal(sample.gt_flags, xor_flags(sample.gt_signs))
        assert sample.gt_offsets.offsets.min() >= 0.0
        assert sample.gt_offsets.offsets.max() <= 1.0


def test_sample_kinds_carry_the_right_inputs():
    dims = GridDims(11, 11, 11)
    shape = Sphere((5.0, 5.0, 5.0), 3.2)
    sdf = make_training_sample(shape, dims, kind=GridKind.SDF)
    assert sdf.grid is not None and sdf.grid.kind == GridKind.SDF
    assert sdf.cloud is None and sdf.mode == "ndc"
    udf = make_training_sample(shape, dims, kind=GridKind.UDF)
    assert udf.grid.kind == GridKind.UDF and udf.mode == "undc"
    assert udf.grid.values.min() >= 0.0
    pts = make_training_sample(shape, dims, kind="points", cloud_size=256)
    assert pts.grid is None and pts.cloud.shape == (256, 3)
    assert pts.mode == "undc"


def test_identity_augmentation_is_bit_exact():
    dims = GridDims(9, 9, 9)
    sample = make_training_sample(Sphere((4.0, 4.0, 4.0), 2.6), dims)
    same = augment_sample(sample, 0)
    assert np.array_equal(same.grid.values, sample.grid.values)
    assert np.array_equal(same.gt_signs.inside, sample.gt_signs.inside)
    assert np.array_equal(same.gt_offsets.offsets, sample.gt_offsets.offsets)
    assert edge_equal(same.gt_flags, sample.gt_flags)


def test_sign_inversion_complements_signs_but_not_flags():
    dims = GridDims(9, 9, 9)
    sample = make_training_sample(Sphere((4.0, 4.0, 4.0), 2.6), dims)
    flipped = augment_sample(sample, 48)
    assert np.array_equal(flipped.gt_signs.inside, ~sample.gt_signs.inside)
    assert np.array_equal(flipped.grid.values, -sample.grid.values)
    assert edge_equal(flipped.gt_flags, sample.gt_flags)


def test_all_96_transforms_keep_gt_consistency_and_round_trip():
    dims = GridDims(5, 6, 7)
    sample = make_training_sample(random_scene(8, extent=5.0, margin=1.2), dims)
    for t in range(NUM_TRANSFORMS):
        moved = augment_sample(sample, t)
        assert edge_equal(moved.gt_flags, xor_flags(moved.gt_signs)), t
        back = augment_sample(moved, inverse_transform_id(t))
        assert np.array_equal(back.grid.values, sample.grid.values), t
        assert np.array_equal(back.gt_signs.inside, sample.gt_signs.inside), t
        # mirrored offset components go through 1 - x, which double rounding
        # keeps within one ulp but not bit-exact; everything else is exact
        assert np.allclose(back.gt_offsets.offsets, sample.gt_offsets.offsets,
                           rtol=0.0, atol=1e-15), t
        assert edge_equal(back.gt_flags, sample.gt_flags), t
        assert np.array_equal(back.masks.m_v, sample.masks.m_v), t
