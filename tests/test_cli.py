"""Contract of the command-line front end: exit codes and reruns."""

import os
import shutil

import numpy as np
import pytest

import ndcmesh.nn.pointnet as pointnet
from ndcmesh import fileio
from ndcmesh.cli import HEAD_FILES, HEAD_STEMS, cli_main
from ndcmesh.grids import GridDims
from ndcmesh.ndc import mesh_cells
from ndcmesh.nn import make_network


def run_chain(root: str) -> None:
    """gen -> train -> infer -> mesh (all modes) -> eval/stats, then the
    mesh-sourced, point-cloud and voxel datasets; every call must exit 0."""
    data = os.path.join(root, "csg")
    obj = os.path.join(root, "obj")
    pts = os.path.join(root, "points")
    vox = os.path.join(root, "voxel")
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
        ["gen", "--out", vox, "--kind", "voxel", "--res", "12", "--seed", "3"],
        ["train", "--data", vox, "--head", "signs", "--steps", "2", "--channels", "8"],
        ["train", "--data", vox, "--head", "flags", "--steps", "2", "--channels", "8"],
        ["mesh", "--data", vox, "--mode", "undc"],
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
    for name in ("vox_s.ndcw", "vox_f.ndcw", "mesh_undc.obj"):
        assert os.path.join("voxel", name) in first, name
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


def test_mc_and_dc_refuse_datasets_without_signed_samples(tmp_path, capsys):
    """A UDF or voxel sample's input is read as what it is, so the sign-based
    extractors refuse it instead of meshing it as an SDF with no surface."""
    for kind in ("sdf", "udf", "voxel"):
        data = str(tmp_path / kind)
        assert cli_main(["gen", "--out", data, "--kind", kind, "--res", "12",
                         "--seed", "3"]) == 0
        for mode in ("mc", "dc-est", "dc"):
            out = str(tmp_path / f"{kind}_{mode}.obj")
            want = 0 if kind == "sdf" else 2
            assert cli_main(["mesh", "--data", data, "--mode", mode, "-o", out]) == want
            if want:
                assert "SDF" in capsys.readouterr().err, (kind, mode)
            else:
                with open(out) as fh:
                    assert "\nf " in fh.read(), mode


def test_fields_from_grids_of_different_sizes_are_data_errors(tmp_path, capsys):
    """Signs, flags and offsets read from files of different lattices make
    no mesh: ndc and undc exit 2 instead of meshing what overlaps."""
    data = {res: str(tmp_path / str(res)) for res in (10, 11)}
    for res, path in data.items():
        assert cli_main(["gen", "--out", path, "--res", str(res), "--seed", "5"]) == 0

    def gt(res, name):
        return os.path.join(data[res], "sample_000", name)

    for signs, offsets, want in ((10, 10, 0), (10, 11, 2), (11, 10, 2)):
        base = ["mesh", "--data", data[signs], "--offsets", gt(offsets, "gt_vertices.ndcg")]
        for mode, field in (("ndc", ["--signs", gt(signs, "gt_signs.ndcg")]),
                            ("undc", ["--flags", gt(signs, "gt_flags.ndcg")])):
            out = str(tmp_path / f"{mode}_{signs}_{offsets}.obj")
            assert cli_main(base + field + ["--mode", mode, "-o", out]) == want, (mode, offsets)
            if want:
                assert "offsets" in capsys.readouterr().err, (mode, offsets)


def small_dataset(root) -> str:
    data = str(root / "csg")
    assert cli_main(["gen", "--out", data, "--res", "10", "--seed", "4"]) == 0
    return data


def test_train_reads_the_stored_samples_not_their_source(tmp_path):
    data = small_dataset(tmp_path)
    obj = str(tmp_path / "shape.obj")
    mesh_data = str(tmp_path / "mesh")
    assert cli_main(["mesh", "--mode", "mc", "--data", data, "-o", obj]) == 0
    assert cli_main(["gen", "--out", mesh_data, "--obj", obj, "--res", "10"]) == 0
    os.remove(obj)
    assert cli_main(["train", "--data", mesh_data, "--head", "vertices",
                     "--steps", "1", "--channels", "4"]) == 0


def test_config_is_not_an_option(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a `gen` that accepted it would write ./runs
    config = tmp_path / "x.txt"
    config.write_text("seed=1\n")
    for command in ("gen", "train", "infer", "mesh", "eval", "stats"):
        assert cli_main([command, "--config", str(config)]) == 1, command


def test_numbers_outside_an_options_range_are_usage_errors(tmp_path, capsys):
    data = small_dataset(tmp_path)
    train = ["train", "--data", data, "--head", "vertices"]
    gen = ["gen", "--out", str(tmp_path / "unused")]
    rejected = [
        train + ["--epochs", "0"], train + ["--channels", "0"],
        train + ["--steps", "0"], train + ["--steps", "-3"],
        train + ["--lr", "nan"], train + ["--lr", "inf"], train + ["--lr", "-1e-3"],
        train + ["--halve-every", "-1"], train + ["--stop-below", "nan"],
        gen + ["--count", "0"], gen + ["--noise-sigma", "-1"],
        gen + ["--kind", "points", "--cloud-size", "0"],
        gen + ["--res", "1"], gen + ["--res", "0"], gen + ["--res", "-5"],
        ["infer", "--weights", str(tmp_path / "w.ndcw"), "--cloud", str(tmp_path / "c.xyz"),
         "--res", "1"],
        ["mesh", "--mode", "mc", "--data", data, "--iso", "inf"],
        ["mesh", "--mode", "ndc", "--data", data, "--sample", "-1"],
        ["eval", "--data", data, "--samples", "0"],
        ["eval", "--data", data, "--sample", "-1"],
    ]
    for argv in rejected:
        assert cli_main(argv) == 1, argv
    assert "Traceback" not in capsys.readouterr().err
    assert not os.path.exists(str(tmp_path / "unused"))
    # lr 0 and no lr halving stay legal
    assert cli_main(train + ["--steps", "1", "--channels", "4", "--lr", "0",
                             "--halve-every", "0"]) == 0


def test_mesh_reads_only_the_weights_train_writes_for_the_datasets_kind(tmp_path):
    """Weights for another input kind in an SDF dataset are not read: mesh
    falls back to the ground truth exactly as without them."""
    data = str(tmp_path / "csg")
    assert cli_main(["gen", "--out", data, "--res", "12", "--seed", "4"]) == 0

    def meshes(tag):
        out = {}
        for mode in ("ndc", "undc"):
            path = str(tmp_path / f"{tag}_{mode}.obj")
            assert cli_main(["mesh", "--mode", mode, "--data", data, "-o", path]) == 0, mode
            with open(path, "rb") as fh:
                out[mode] = fh.read()
        return out

    alone = meshes("alone")
    assert all(b"\nf " in obj for obj in alone.values())
    fileio.save_weights(os.path.join(data, "pc_f.ndcw"),
                        make_network("pc_encoder", channels=4, head="flag"))
    fileio.save_weights(os.path.join(data, "vox_v.ndcw"), make_network("vox_v", channels=4))
    assert meshes("stray") == alone


def test_eval_csv_writes_its_header_once_and_appends_rows(tmp_path):
    data = small_dataset(tmp_path)
    assert cli_main(["mesh", "--mode", "ndc", "--data", data]) == 0
    table = str(tmp_path / "eval.csv")
    for _ in range(2):
        assert cli_main(["eval", "--data", data, "--samples", "500", "--csv", table]) == 0
    with open(table) as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("pred,gt,cd,")
    assert lines[1] == lines[2]


def test_tri_seed_writes_the_same_triangle_mesh_on_every_run(tmp_path):
    data = small_dataset(tmp_path)
    outputs = []
    for name in ("a.obj", "b.obj"):
        out = str(tmp_path / name)
        assert cli_main(["mesh", "--mode", "ndc", "--data", data,
                         "--tri-seed", "7", "-o", out]) == 0
        with open(out) as fh:
            outputs.append(fh.read())
    assert outputs[0] == outputs[1]
    faces = [line.split()[1:] for line in outputs[0].splitlines() if line.startswith("f ")]
    assert faces and all(len(face) == 3 for face in faces)


def test_stop_below_ends_training_early(tmp_path, capsys):
    data = small_dataset(tmp_path)
    train = ["train", "--data", data, "--head", "vertices", "--epochs", "3",
             "--channels", "4"]
    assert cli_main(train) == 0
    assert " 3 epochs " in capsys.readouterr().out
    assert cli_main(train + ["--stop-below", "1e9"]) == 0
    assert " 1 epochs " in capsys.readouterr().out


def test_train_takes_the_network_from_the_dataset_kind_alone(tmp_path, capsys):
    data = small_dataset(tmp_path)
    assert cli_main(["train", "--data", data, "--head", "vertices", "--steps", "1",
                     "--channels", "4", "--variant", "sdf"]) == 1
    assert "unrecognized arguments: --variant" in capsys.readouterr().err
    for kind, extra in (("udf", []), ("points", ["--cloud-size", "64"])):
        other = str(tmp_path / kind)
        assert cli_main(["gen", "--out", other, "--kind", kind, "--res", "8"] + extra) == 0
        assert cli_main(["train", "--data", other, "--head", "signs", "--steps", "1",
                         "--channels", "4"]) == 1, kind
        err = capsys.readouterr().err
        assert "sign" in err and "--variant" not in err, kind


def count_calls(monkeypatch, *targets) -> dict:
    """Count the calls of each (module, function name) in `targets`."""
    calls = {}
    for module, name in targets:
        calls[name] = 0

        def wrapper(*args, fn=getattr(module, name), name=name, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)
    return calls


def test_infer_finds_a_clouds_neighborhoods_once_for_both_point_networks(tmp_path, monkeypatch):
    cloud = 1.0 + 9.0 * np.random.default_rng(7).random((300, 3))
    cloud_path = str(tmp_path / "cloud.xyz")
    fileio.write_xyz(cloud_path, cloud)
    cloud = fileio.read_xyz(cloud_path)
    nets, argv = [], ["infer", "--cloud", cloud_path, "--res", "12",
                      "--out-prefix", str(tmp_path / "pred")]
    for head in ("flag", "vertex"):
        net = make_network("pc_encoder", channels=6, seed=8, head=head)
        path = str(tmp_path / f"pc_{head}.ndcw")
        fileio.save_weights(path, net)
        nets.append(fileio.load_weights(path))
        argv += ["--weights", path]
    calls = count_calls(monkeypatch, (pointnet, "knn_indices"), (fileio, "read_xyz"))
    assert cli_main(argv) == 0
    # one query for the points, one for the active cell centers
    assert calls == {"knn_indices": 2, "read_xyz": 1}
    # each file is the one a network predicting alone writes
    for net, suffix in zip(nets, ("_flags.ndcg", "_vertices.ndcg")):
        alone = str(tmp_path / ("alone" + suffix))
        fileio.write_grid(alone, net.predict(cloud, GridDims(12, 12, 12)))
        with open(alone, "rb") as a, open(str(tmp_path / ("pred" + suffix)), "rb") as b:
            assert a.read() == b.read(), suffix


def test_mesh_finds_a_clouds_neighborhoods_once_for_both_point_networks(tmp_path, monkeypatch):
    data = str(tmp_path / "points")
    assert cli_main(["gen", "--out", data, "--kind", "points", "--res", "12",
                     "--cloud-size", "256"]) == 0
    for stem, head in (("pc_f", "flag"), ("pc_v", "vertex")):
        net = make_network("pc_encoder", channels=6, seed=9, head=head)
        fileio.save_weights(os.path.join(data, stem + ".ndcw"), net)
    calls = count_calls(monkeypatch, (pointnet, "knn_indices"), (fileio, "read_xyz"))
    assert cli_main(["mesh", "--data", data, "--mode", "undc"]) == 0
    # one query for the points, one for the active cell centers
    assert calls == {"knn_indices": 2, "read_xyz": 1}


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("kind", ["sdf", "points"])
def test_infer_predicts_offsets_only_at_the_cells_its_mesh_reads(tmp_path, kind):
    """With a sign or flag head in the call, the vertex head predicts at
    that field's mesh cells only: its file holds the vertex head's own
    offsets there and 0.5 elsewhere, and every mesh is unchanged."""
    data = str(tmp_path / kind)
    assert cli_main(["gen", "--out", data, "--kind", kind, "--res", "16",
                     "--cloud-size", "512"]) == 0
    sdir = os.path.join(data, "sample_000")
    field, bias = ("sign", 0.0) if kind == "sdf" else ("flag", -0.2)
    weights = {}
    for head in (field, "vertex"):
        stem = HEAD_STEMS[kind, head]
        net = make_network("pc_encoder" if kind == "points" else stem, channels=6, seed=3,
                           head=head)
        if head == field:  # so that the mesh reads some of the vertex head's cells only
            net.param_layers()[-1].bias.value[:] = bias
        weights[head] = os.path.join(data, stem + ".ndcw")
        fileio.save_weights(weights[head], net)
    source = (["--grid", os.path.join(sdir, "input.ndcg")] if kind == "sdf" else
              ["--cloud", os.path.join(sdir, "cloud.xyz"), "--res", "16"])

    def infer(prefix, *heads):
        argv = ["infer", *source, "--out-prefix", str(tmp_path / prefix)]
        assert cli_main(argv + [a for h in heads for a in ("--weights", weights[h])]) == 0
        return {h: str(tmp_path / (prefix + HEAD_FILES[h][3])) for h in heads}

    alone = {**infer("field", field), **infer("vertex", "vertex")}
    for heads in ((field, "vertex"), ("vertex", field)):
        both = infer("both_" + heads[0], *heads)
        assert read_bytes(both[field]) == read_bytes(alone[field]), heads
        cells = mesh_cells(fileio.read_grid(both[field]))
        full = fileio.read_grid(alone["vertex"]).offsets
        offsets = fileio.read_grid(both["vertex"]).offsets
        assert offsets[cells].tobytes() == full[cells].tobytes(), heads
        assert np.all(offsets[~cells] == 0.5) and np.any(full[~cells] != 0.5), heads
        modes = ([["--mode", "ndc"]] if kind == "sdf" else
                 [["--mode", "undc"], ["--mode", "undc", "--close-holes"]])
        given = "--signs" if kind == "sdf" else "--flags"
        # from the field file with either vertex file, and with both fields
        # predicted from the dataset's weights
        inputs = [[given, both[field], "--offsets", alone["vertex"]],
                  [given, both[field], "--offsets", both["vertex"]], []]
        for mode in modes:
            objs = []
            for files in inputs:
                path = str(tmp_path / "mesh.obj")
                assert cli_main(["mesh", "--data", data, "-o", path, *mode, *files]) == 0
                objs.append(read_bytes(path))
            assert b"\nf " in objs[0] and objs[1] == objs[0] == objs[2], mode
