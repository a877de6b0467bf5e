"""Contract of the command-line front end: exit codes and reruns."""

import os
import shutil

from ndcmesh.cli import cli_main


def run_chain(root: str) -> None:
    """gen -> train -> infer -> mesh (all modes) -> eval/stats, then the
    mesh-sourced and point-cloud datasets; every call must exit 0."""
    data = os.path.join(root, "csg")
    obj = os.path.join(root, "obj")
    pts = os.path.join(root, "points")
    sample = os.path.join(data, "sample_000", "input.ndcg")
    calls = [
        ["gen", "--out", data, "--count", "2", "--res", "12", "--seed", "3"],
        ["train", "--data", data, "--head", "signs", "--steps", "2", "--channels", "8"],
        ["train", "--data", data, "--head", "vertices", "--steps", "2", "--channels", "8"],
        ["infer", "--weights", os.path.join(data, "sdf_s.ndcw"),
         "--weights", os.path.join(data, "sdf_v.ndcw"), "--grid", sample,
         "--out-prefix", os.path.join(data, "pred")],
        *(["mesh", "--data", data, "--mode", mode] for mode in ("dc", "dc-est", "mc", "ndc")),
        ["mesh", "--data", data, "--mode", "undc", "--close-holes",
         "-o", os.path.join(data, "mesh_undc.ply")],
        ["eval", "--data", data, "--samples", "2000", "-o", os.path.join(data, "eval.txt")],
        ["stats", os.path.join(data, "mesh_undc.ply"), "-o", os.path.join(data, "stats.txt")],
        ["gen", "--out", obj, "--obj", os.path.join(data, "mesh_mc.obj"), "--res", "12"],
        ["gen", "--out", pts, "--kind", "points", "--res", "12", "--cloud-size", "256"],
        ["train", "--data", pts, "--head", "flags", "--steps", "2", "--channels", "8"],
    ]
    for argv in calls:
        assert cli_main(argv) == 0, argv


def snapshot(root: str) -> dict:
    files = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, root)] = fh.read()
    return files


def test_the_whole_chain_exits_0_and_reruns_byte_identically(tmp_path):
    root = str(tmp_path / "run")
    run_chain(root)
    first = snapshot(root)
    for name in ("sdf_s.ndcw", "sdf_v.ndcw", "pred_signs.ndcg", "pred_vertices.ndcg",
                 "mesh_dc.obj", "mesh_dc-est.obj", "mesh_mc.obj", "mesh_ndc.obj",
                 "mesh_undc.ply", "eval.txt", "stats.txt"):
        assert os.path.join("csg", name) in first, name
    assert os.path.join("obj", "sample_000", "gt_signs.ndcg") in first
    assert os.path.join("points", "pc_f.ndcw") in first
    shutil.rmtree(root)
    run_chain(root)
    assert snapshot(root) == first


def test_usage_and_data_errors_exit_1_and_2(tmp_path, capsys):
    data = str(tmp_path / "csg")
    obj = str(tmp_path / "obj")
    assert cli_main(["gen", "--out", data, "--res", "12"]) == 0
    assert cli_main(["train", "--data", data, "--steps", "2"]) == 1
    assert cli_main(["mesh", "--mode", "ndc", "--data", str(tmp_path / "missing")]) == 2
    assert cli_main(["mesh", "--mode", "mc", "--data", data,
                     "-o", str(tmp_path / "mc.obj")]) == 0
    assert cli_main(["gen", "--out", obj, "--obj", str(tmp_path / "mc.obj"), "--res", "12"]) == 0
    assert cli_main(["mesh", "--mode", "dc", "--data", obj]) == 2
    assert "error" in capsys.readouterr().err
