"""File readers: parse errors carry the offending line, non-finite
numbers are refused, and NDCW weights round-trip or fail typed."""

import pathlib
import struct

import numpy as np
import pytest

from ndcmesh.csg import random_scene
from ndcmesh.datagen import sample_csg_grid, sample_point_cloud
from ndcmesh.errors import (BadMagic, BadVersion, GridFormatError, NonFiniteValues,
                            ObjParseError, ShapeError, TruncatedPayload)
from ndcmesh.fileio import (as_tri_mesh, load_weights, read_grid, read_mesh, read_obj,
                            read_ply, read_report, read_xyz, save_weights, write_grid,
                            write_mesh, write_obj, write_ply, write_report, write_xyz)
from ndcmesh.grids import EdgeField, GridDims, GridKind, ScalarGrid, SignGrid, VertexOffsetGrid
from ndcmesh.mesh import QuadMesh, TriMesh
from ndcmesh.nn import make_network
from ndcmesh.rng import rng_for


def test_face_with_a_missing_vertex_reports_its_own_line(tmp_path):
    path = tmp_path / "bad.obj"
    path.write_text("# header\nv 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n\nf 1 2 4\nv 0 0 1\nf 2 3 9\n")
    with pytest.raises(ObjParseError) as err:
        read_obj(path)
    assert err.value.line == 9
    assert str(err.value).startswith("line 9:")


def test_a_face_may_use_a_vertex_declared_after_it(tmp_path):
    path = tmp_path / "forward.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nf 1 2 3\nv 0 1 0\n")
    verts, faces, skipped = read_obj(path)
    assert len(verts) == 3 and len(faces) == 1 and skipped == 0


def test_read_obj_rejects_a_non_finite_vertex(tmp_path):
    path = tmp_path / "nan.obj"
    path.write_text("v 0 0 0\nv nan 1 0\nv 0 1 0\nf 1 2 3\n")
    with pytest.raises(NonFiniteValues, match=":2:"):
        read_obj(path)


def test_read_xyz_rejects_non_finite_points(tmp_path):
    path = tmp_path / "nan.xyz"
    path.write_text("0 0 0\n1 nan 0\n")
    with pytest.raises(NonFiniteValues):
        read_xyz(path)


def test_an_ndcg_offsets_file_holding_nan_is_rejected(tmp_path):
    dims = GridDims(3, 3, 3)
    path = tmp_path / "offsets.ndcg"
    write_grid(path, VertexOffsetGrid(dims, np.full(dims.cell_shape + (3,), 0.5)))
    data = bytearray(path.read_bytes())
    data[18 + 4 * 5:18 + 4 * 6] = struct.pack("<f", float("nan"))
    path.write_bytes(bytes(data))
    with pytest.raises(NonFiniteValues):
        read_grid(path)


# -- NDCW weights ------------------------------------------------------------

DIMS = GridDims(10, 10, 10)


def small_networks():
    """(network, its input) for one grid and one point network."""
    scene = random_scene(50, 9.0)
    grid_net = make_network("sdf_s", channels=4, seed=50)
    point_net = make_network("pc_encoder", channels=4, seed=51, head="vertex")
    return [(grid_net, (sample_csg_grid(scene, DIMS),)),
            (point_net, (sample_point_cloud(scene, 200, 0.0, 50), DIMS))]


def grid_arrays(out):
    return [getattr(out, name) for name in ("values", "inside", "offsets", "x", "y", "z")
            if hasattr(out, name)]


def test_weights_round_trip_byte_for_byte_with_identical_predictions(tmp_path):
    for net, args in small_networks():
        first, second = tmp_path / "a.ndcw", tmp_path / "b.ndcw"
        save_weights(first, net)
        back = load_weights(first)
        save_weights(second, back)
        assert first.read_bytes() == second.read_bytes(), net.variant
        assert (back.variant, back.head, back.channels) == (net.variant, net.head, net.channels)
        for a, b in zip(grid_arrays(net.predict(*args)), grid_arrays(back.predict(*args))):
            assert np.array_equal(a, b), net.variant


def corruptions(data: bytes):
    """(name, corrupted bytes, the exact error type) for one NDCW file."""
    first_weights = 14 + 10
    return [
        ("magic", b"XDCW" + data[4:], BadMagic),
        ("version", data[:4] + bytes([9]) + data[5:], BadVersion),
        ("variant", data[:5] + bytes([200]) + data[6:], GridFormatError),
        ("short header", data[:10], TruncatedPayload),
        ("layer header", data[:first_weights - 3], TruncatedPayload),
        ("layer weights", data[:first_weights + 8], TruncatedPayload),
        ("kind code", data[:14] + bytes([data[14] % 3 + 1]) + data[15:], GridFormatError),
        ("trailing byte", data + b"\0", GridFormatError),
    ]


def test_corrupt_weights_raise_their_typed_error(tmp_path):
    for net, _ in small_networks():
        good = tmp_path / "good.ndcw"
        save_weights(good, net)
        for name, data, error in corruptions(good.read_bytes()):
            bad = tmp_path / "bad.ndcw"
            bad.write_bytes(data)
            with pytest.raises(GridFormatError) as err:
                load_weights(bad)
            assert type(err.value) is error, (net.variant, name, err.value)


COMMITTED_WEIGHTS = sorted(
    (pathlib.Path(__file__).parent.parent / "ndcbench" / "weights").glob("*.ndcw"))


def test_committed_weights_load_and_save_to_the_same_bytes(tmp_path):
    assert len(COMMITTED_WEIGHTS) == 4
    for path in COMMITTED_WEIGHTS:
        save_weights(tmp_path / path.name, load_weights(path))
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name


def test_saving_non_finite_weights_raises_and_writes_nothing(tmp_path):
    for net, _ in small_networks():
        for bad_value in (np.nan, np.inf):
            net.param_layers()[-1].bias.value[0] = bad_value
            path = tmp_path / "bad.ndcw"
            with pytest.raises(NonFiniteValues):
                save_weights(path, net)
            assert not path.exists(), net.variant


def test_loading_non_finite_weights_raises(tmp_path):
    first_weight = 14 + 10
    for net, _ in small_networks():
        good = tmp_path / "good.ndcw"
        save_weights(good, net)
        data = good.read_bytes()
        for bad_value in (np.nan, -np.inf):
            word = struct.pack("<f", bad_value)
            # the first weight of the first layer, and the last bias of the last
            for bad in (data[:first_weight] + word + data[first_weight + 4:],
                        data[:-4] + word):
                path = tmp_path / "bad.ndcw"
                path.write_bytes(bad)
                with pytest.raises(NonFiniteValues):
                    load_weights(path)


# -- exact formats -------------------------------------------------------------


def as_float32(values) -> np.ndarray:
    return np.asarray(values).astype(np.float32).astype(np.float64)


def as_nine_digits(values) -> np.ndarray:
    return np.vectorize(lambda x: float(f"{x:.9g}"))(values)


def wide_reals(rng, shape) -> np.ndarray:
    """Signed magnitudes from 1e-8 to 1e20; the first two values are 0.0 and -0.0."""
    values = 10.0 ** rng.uniform(-8, 20, size=shape) * rng.choice([-1.0, 1.0], size=shape)
    values.reshape(-1)[:2] = (0.0, -0.0)
    return values


def test_every_ndcgrid_payload_reads_back_its_stated_rounding(tmp_path):
    dims = GridDims(3, 4, 5)
    rng = rng_for(41, "ndcgrid-round-trip")
    reals = [rng.normal(size=dims.edge_shape(a)) * 10.0 ** rng.uniform(-8, 8) for a in range(3)]
    reals[0][0, 0, 0] = np.nan  # crossing parameters are NaN off the surface
    cases = [  # (object, its rounding; None for exact booleans), in payload-code order
        (ScalarGrid(dims, GridKind.SDF, wide_reals(rng, dims.vertex_shape)), as_float32),
        (SignGrid(dims, rng.random(dims.vertex_shape) < 0.5), None),
        (VertexOffsetGrid(dims, rng.random(dims.cell_shape + (3,))), as_float32),
        (EdgeField(dims, *(rng.random(dims.edge_shape(a)) < 0.5 for a in range(3))), None),
        (EdgeField(dims, *reals), as_float32),
    ]
    for code, (obj, rounding) in enumerate(cases):
        path = tmp_path / f"payload{code}.ndcg"
        write_grid(path, obj)
        assert path.read_bytes()[17] == code
        back = read_grid(path)
        assert type(back) is type(obj) and back.dims == dims
        for got, sent in zip(grid_arrays(back), grid_arrays(obj), strict=True):
            if rounding is None:
                assert got.dtype == bool and np.array_equal(got, sent), code
            else:
                assert got.dtype == np.float64, code
                assert np.array_equal(got, rounding(sent), equal_nan=True), code


def grid_corruptions(data: bytes):
    """(name, corrupted bytes, the exact error type) for one NDCG file."""
    return [
        ("magic", b"NDCW" + data[4:], BadMagic),
        ("version", data[:4] + bytes([2]) + data[5:], BadVersion),
        ("payload code", data[:17] + bytes([5]) + data[18:], GridFormatError),
        ("short header", data[:17], TruncatedPayload),
        ("empty file", b"", TruncatedPayload),
        ("truncated payload", data[:-1], TruncatedPayload),
        ("header only", data[:18], TruncatedPayload),
        ("trailing byte", data + b"\0", GridFormatError),
    ]


def test_corrupt_ndcgrid_files_raise_their_typed_error(tmp_path):
    dims = GridDims(3, 4, 5)
    rng = rng_for(47, "ndcgrid-corruption")
    for obj in (ScalarGrid(dims, GridKind.SDF, rng.normal(size=dims.vertex_shape)),
                EdgeField(dims, *(rng.random(dims.edge_shape(a)) < 0.5 for a in range(3)))):
        good = tmp_path / "good.ndcg"
        write_grid(good, obj)
        for name, data, error in grid_corruptions(good.read_bytes()):
            bad = tmp_path / "bad.ndcg"
            bad.write_bytes(data)
            with pytest.raises(GridFormatError) as err:
                read_grid(bad)
            assert type(err.value) is error, (type(obj).__name__, name, err.value)


def reference_write_obj(path, mesh) -> None:
    """Row-by-row OBJ writer that write_obj must match byte for byte."""
    faces = mesh.quads if isinstance(mesh, QuadMesh) else mesh.tris
    with open(path, "w") as fh:
        for v in mesh.vertices:
            fh.write(f"v {v[0]:.9g} {v[1]:.9g} {v[2]:.9g}\n")
        for f in faces:
            fh.write("f " + " ".join(str(i + 1) for i in f) + "\n")


def reference_ply_faces(faces: np.ndarray) -> bytes:
    """Face-by-face PLY body that write_ply must end with."""
    n = faces.shape[1]
    counts = np.full((len(faces), 1), n, dtype=np.uint8)
    idx = faces.astype("<i4")
    return b"".join(counts[i].tobytes() + idx[i].tobytes() for i in range(len(faces)))


def random_meshes(rng):
    vertices = wide_reals(rng, (2002, 3))
    return [QuadMesh(vertices, rng.integers(0, len(vertices), size=(3000, 4))),
            TriMesh(vertices, rng.integers(0, len(vertices), size=(3000, 3)))]


def test_mesh_writers_match_their_row_by_row_references(tmp_path):
    for mesh in random_meshes(rng_for(42, "mesh-writers")):
        faces = mesh.quads if isinstance(mesh, QuadMesh) else mesh.tris
        write_obj(tmp_path / "a.obj", mesh)
        reference_write_obj(tmp_path / "b.obj", mesh)
        assert (tmp_path / "a.obj").read_bytes() == (tmp_path / "b.obj").read_bytes()
        write_ply(tmp_path / "a.ply", mesh)
        data = (tmp_path / "a.ply").read_bytes()
        assert data.endswith(mesh.vertices.astype("<f4").tobytes() + reference_ply_faces(faces))


def test_meshes_read_back_their_stated_rounding_and_type(tmp_path):
    for mesh in random_meshes(rng_for(43, "mesh-round-trip")):
        faces = mesh.quads if isinstance(mesh, QuadMesh) else mesh.tris
        for suffix, rounding in ((".obj", as_nine_digits), (".ply", as_float32)):
            path = tmp_path / ("mesh" + suffix)
            write_mesh(path, mesh)
            back = read_mesh(path)
            assert type(back) is type(mesh), suffix
            assert back.vertices.dtype == np.float64
            assert np.array_equal(back.vertices, rounding(mesh.vertices)), suffix
            back_faces = back.quads if isinstance(back, QuadMesh) else back.tris
            assert np.array_equal(back_faces, faces), suffix


def reference_as_tri_mesh(vertices, faces):
    """Face-by-face split that as_tri_mesh must match."""
    tris = []
    for f in faces:
        if len(f) == 3:
            tris.append(f)
        else:
            tris.append(f[[0, 1, 2]])
            tris.append(f[[0, 2, 3]])
    return TriMesh(vertices, np.array(tris, dtype=np.int64).reshape(-1, 3))


def reference_read_ply_faces(body: bytes, nf: int) -> list:
    """Record-by-record parse of the PLY face section."""
    faces, ofs = [], 0
    for _ in range(nf):
        if ofs + 1 > len(body):
            raise TruncatedPayload("ply face data truncated")
        cnt = body[ofs]
        ofs += 1
        if ofs + 4 * cnt > len(body):
            raise TruncatedPayload("ply face data truncated")
        faces.append(np.frombuffer(body[ofs:ofs + 4 * cnt], dtype="<i4").astype(np.int64))
        ofs += 4 * cnt
    return faces


def mixed_faces(rng, count: int, quad_share: float) -> list:
    sizes = np.where(rng.random(count) < quad_share, 4, 3)
    return [rng.integers(0, 50, size=n) for n in sizes]


def write_mixed_ply(path, vertices, faces) -> bytes:
    """A PLY file with faces of any vertex count; returns its face section."""
    body = b"".join(struct.pack("<B", len(f)) + np.asarray(f, "<i4").tobytes() for f in faces)
    header = ("ply\nformat binary_little_endian 1.0\n"
              f"element vertex {len(vertices)}\n"
              "property float x\nproperty float y\nproperty float z\n"
              f"element face {len(faces)}\n"
              "property list uchar int vertex_indices\nend_header\n")
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii") + vertices.astype("<f4").tobytes() + body)
    return body


def test_mixed_faces_read_and_split_like_their_face_by_face_references(tmp_path):
    rng = rng_for(45, "mixed-faces")
    vertices = rng.random((50, 3))
    # alternating, long runs, all triangles, all quads, a single face, none
    lists = [mixed_faces(rng, 500, share) for share in (0.5, 0.02, 0.98, 0.0, 1.0)]
    lists += [[np.array([3, 1, 4, 1])], []]
    for i, faces in enumerate(lists):
        got, want = as_tri_mesh(vertices, faces), reference_as_tri_mesh(vertices, faces)
        assert got.tris.dtype == want.tris.dtype and np.array_equal(got.tris, want.tris), i
        path = tmp_path / f"mixed{i}.ply"
        body = write_mixed_ply(path, vertices, faces)
        verts, back = read_ply(path)
        assert np.array_equal(verts, vertices.astype(np.float32)), i
        ref = reference_read_ply_faces(body, len(faces))
        assert len(back) == len(ref) == len(faces), i
        assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(back, ref)), i
    # PLY faces of other sizes read back as written; a mesh refuses them
    odd = [np.arange(3), np.arange(0), np.arange(5), np.arange(4)]
    body = write_mixed_ply(tmp_path / "odd.ply", vertices, odd)
    back = read_ply(tmp_path / "odd.ply")[1]
    assert all(np.array_equal(a, b) and a.dtype == b.dtype
               for a, b in zip(back, reference_read_ply_faces(body, len(odd))))
    with pytest.raises(ShapeError):
        as_tri_mesh(vertices, back)


def test_truncated_ply_faces_raise_truncated_payload(tmp_path):
    rng = rng_for(46, "truncated-ply")
    vertices = rng.random((50, 3))
    faces = mixed_faces(rng, 40, 0.5)
    body = write_mixed_ply(tmp_path / "full.ply", vertices, faces)
    data = (tmp_path / "full.ply").read_bytes()
    for cut in (1, 2, 4, 5, 17, len(body) - 1):
        (tmp_path / "cut.ply").write_bytes(data[:-cut])
        with pytest.raises(TruncatedPayload):
            reference_read_ply_faces(body[:-cut], len(faces))
        with pytest.raises(TruncatedPayload):
            read_ply(tmp_path / "cut.ply")


def test_clouds_and_reports_read_back_nine_digits(tmp_path):
    rng = rng_for(44, "text-round-trip")
    cloud = wide_reals(rng, (500, 3))
    write_xyz(tmp_path / "cloud.xyz", cloud)
    back = read_xyz(tmp_path / "cloud.xyz")
    assert back.dtype == np.float64 and np.array_equal(back, as_nine_digits(cloud))
    values = {"name": "scene", "count": 12, "cd": float(cloud[3, 0]), "zero": -0.0}
    write_report(tmp_path / "report.txt", values)
    back = read_report(tmp_path / "report.txt")
    assert list(back) == list(values)
    assert back["name"] == "scene" and int(back["count"]) == 12
    assert back["cd"] == f"{values['cd']:.9g}" and back["zero"] == "-0"
