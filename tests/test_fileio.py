"""File readers: parse errors carry the offending line, non-finite
numbers are refused, and NDCW weights round-trip or fail typed."""

import struct

import numpy as np
import pytest

from ndcmesh.csg import random_scene
from ndcmesh.datagen import sample_csg_grid, sample_point_cloud
from ndcmesh.errors import (BadMagic, BadVersion, GridFormatError, NonFiniteValues,
                            ObjParseError, TruncatedPayload)
from ndcmesh.fileio import (load_weights, read_grid, read_obj, read_xyz,
                            save_weights, write_grid)
from ndcmesh.grids import GridDims, VertexOffsetGrid
from ndcmesh.nn import make_network


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


def prediction_arrays(out):
    return [getattr(out, name) for name in ("inside", "offsets", "x", "y", "z")
            if hasattr(out, name)]


def test_weights_round_trip_byte_for_byte_with_identical_predictions(tmp_path):
    for net, args in small_networks():
        first, second = tmp_path / "a.ndcw", tmp_path / "b.ndcw"
        save_weights(first, net)
        back = load_weights(first)
        save_weights(second, back)
        assert first.read_bytes() == second.read_bytes(), net.variant
        assert (back.variant, back.head, back.channels) == (net.variant, net.head, net.channels)
        for a, b in zip(prediction_arrays(net.predict(*args)),
                        prediction_arrays(back.predict(*args))):
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
