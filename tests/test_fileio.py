"""Mesh file readers: parse errors carry the offending line."""

import pytest

from ndcmesh.errors import ObjParseError
from ndcmesh.fileio import read_obj


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
