"""Command-line front end tying the pipeline together.

Subcommands:

  gen    build training samples (random CSG scenes or an OBJ shape)
  train  fit one network head on a generated dataset
  infer  run a trained network on a grid or point-cloud file
  mesh   extract a mesh (dc / dc-est / mc / ndc / undc)
  eval   compare a predicted mesh against a ground-truth mesh
  stats  edge-topology statistics of a mesh file

A dataset directory DATA holds MANIFEST_NAME, the weights `train` writes
and, per sample, DATA/sample_NNN/ with these files from `gen`:

  INPUT_NAME    the input grid (read as the dataset's kind), or
  CLOUD_NAME    the input point cloud
  HEAD_FILES    per head, its ground truth: signs, edge flags or offsets
  GT_MESH_NAME  the mesh extracted from that ground truth

`train` reads them back, so it learns from exactly the values `infer`
and `mesh` read. Each (dataset kind, head) pair has one network, named
by the stem of its weights file (HEAD_STEMS): `train` writes
DATA/<stem>.ndcw, and `mesh` predicts with exactly that file or, without
it, reads the ground truth.

Exit codes: 0 success, 1 usage error (including numbers outside an
option's range), 2 data error (bad files, missing inputs, diverged
training). All randomness flows from a single --seed per subcommand;
sub-seeds are derived with the library mixing function, so reruns with
the same arguments produce byte-identical artifacts.

scipy is imported only where a k-d tree is built: point-cloud
neighborhoods (train, infer and mesh on point clouds), mesh ground
truth (gen --obj) and eval. `import ndcmesh` and every other command,
gen from CSG included, run on numpy alone.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import os
import sys

from . import fileio
from .csg import csg_normal_fn, random_scene
from .datagen import ACTIVE_MANHATTAN, TrainingSample, make_training_sample
from .dc import dc_extract
from .errors import NdcMeshError
from .grids import (EdgeField, GridDims, GridKind, ScalarGrid, SignGrid,
                    VertexOffsetGrid)
from .mc import mc_extract
from .mesh import QuadMesh, edge_topology_stats, split_quads
from .metrics import evaluate_mesh
from .ndc import close_holes, mesh_cells, ndc_extract, undc_extract
from .nn import TrainConfig, cloud_neighbors, train_network
from .nn.network import BAND_WIDTH
from .rng import derive_seed

MANIFEST_NAME = "manifest.txt"
INPUT_NAME = "input.ndcg"
CLOUD_NAME = "cloud.xyz"
GT_MESH_NAME = "gt_mesh.obj"

# CLI spellings for network inputs and heads
KIND_NAMES = {"sdf": GridKind.SDF, "udf": GridKind.UDF,
              "voxel": GridKind.OCC, "points": "points"}
HEAD_NAMES = {"signs": "sign", "flags": "flag", "vertices": "vertex"}
# the weights stem of each (dataset kind, head): a grid network's stem is
# its variant, and both point heads are a "pc_encoder"; UDF and
# point-cloud inputs carry no sign, so they have no sign head
HEAD_STEMS = {("sdf", "sign"): "sdf_s", ("sdf", "vertex"): "sdf_v",
              ("sdf", "flag"): "sdf_f", ("udf", "vertex"): "sdf_v",
              ("udf", "flag"): "sdf_f", ("voxel", "sign"): "vox_s",
              ("voxel", "vertex"): "vox_v", ("voxel", "flag"): "vox_f",
              ("points", "vertex"): "pc_v", ("points", "flag"): "pc_f"}
# per head: the TrainingSample field of its ground truth, the file that
# holds it, the type stored there, and the suffix of `infer`'s prediction
HEAD_FILES = {"sign": ("gt_signs", "gt_signs.ndcg", SignGrid, "_signs.ndcg"),
              "flag": ("gt_flags", "gt_flags.ndcg", EdgeField, "_flags.ndcg"),
              "vertex": ("gt_offsets", "gt_vertices.ndcg", VertexOffsetGrid,
                         "_vertices.ndcg")}


class UsageError(Exception):
    """Semantic misuse that argparse choices cannot express."""


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


# ---------------------------------------------------------------------------
# shared plumbing


def _sample_dir(data: str, index: int) -> str:
    return os.path.join(data, f"sample_{index:03d}")


def _load_manifest(data: str) -> dict:
    path = os.path.join(data, MANIFEST_NAME)
    if not os.path.exists(path):
        raise FileNotFoundError(f"no manifest at {path}; run `gen` first")
    return fileio.read_report(path)


def _manifest_dims(manifest: dict) -> GridDims:
    r = int(manifest["res"])
    return GridDims(r, r, r)


def _csg_scene(manifest: dict, index: int):
    """The CSG scene `gen` built sample `index` from."""
    scene_seed = derive_seed(int(manifest["csg_seed"]), "scene", index)
    return random_scene(scene_seed, float(int(manifest["res"]) - 1))


def _read_grid(path: str, cls, kind: GridKind = GridKind.SDF):
    """Read an NDCGRID file that must hold a `cls`."""
    obj = fileio.read_grid(path, kind)
    if not isinstance(obj, cls):
        raise NdcMeshError(f"{path} holds {type(obj).__name__}, expected {cls.__name__}")
    return obj


def _read_input(sdir: str, manifest: dict) -> ScalarGrid:
    """A sample's input grid, read as the dataset's kind."""
    return _read_grid(os.path.join(sdir, INPUT_NAME), ScalarGrid, KIND_NAMES[manifest["kind"]])


def _load_samples(data: str, manifest: dict) -> list:
    """The TrainingSamples `gen` wrote to `data`."""
    dims = _manifest_dims(manifest)
    points = manifest["kind"] == "points"
    samples = []
    for i in range(int(manifest["count"])):
        sdir = _sample_dir(data, i)
        samples.append(TrainingSample(
            dims, None if points else _read_input(sdir, manifest),
            fileio.read_xyz(os.path.join(sdir, CLOUD_NAME)) if points else None,
            **{field: _read_grid(os.path.join(sdir, name), cls)
               for field, name, cls, _ in HEAD_FILES.values()}))
    return samples


def _cloud_neighbors_of(cloud_path: str):
    """A function of the resolution giving the neighborhoods of the cloud
    stored at `cloud_path`. The cloud is read, and its neighborhoods
    found, once per resolution, so every point network shares them."""
    return functools.cache(
        lambda res: cloud_neighbors(fileio.read_xyz(cloud_path), GridDims(res, res, res)))


def _predict(net, read_input, neighbors, res: int, cells=None):
    """Run a loaded network on the grid `read_input(kind)` returns, given
    the network's own input kind, or, for a point network, on a stored
    cloud's neighborhoods (`neighbors`, see _cloud_neighbors_of).
    `cells` maps GridDims to the cells a mesh on that lattice reads
    (ndc.mesh_cells); a vertex head predicts only at those of its own."""
    if net.variant == "pc_encoder":
        dims = GridDims(res, res, res)
        inputs = (neighbors(res), dims)
    else:
        grid = read_input(GridKind(net.input_kind))
        dims, inputs = grid.dims, (grid,)
    return net.predict(*inputs, cells=(cells or {}).get(dims) if net.head == "vertex" else None)


def _resolve_field(explicit, data: str, sdir: str, head: str, neighbors, mesh_field=None):
    """Load a prediction field: explicit file > the weights `train` writes
    for the dataset's kind and this head (HEAD_STEMS) > GT file.
    `neighbors` gives the sample cloud's neighborhoods (_cloud_neighbors_of).
    Predicted vertex offsets are computed only at the cells a mesh from
    `mesh_field`, the signs or flags, reads."""
    _, gt_name, cls, _ = HEAD_FILES[head]
    if explicit:
        return _read_grid(explicit, cls)
    manifest = _load_manifest(data)
    kind = manifest["kind"]
    if (kind, head) in HEAD_STEMS:
        wpath = os.path.join(data, HEAD_STEMS[kind, head] + ".ndcw")
        if os.path.exists(wpath):
            cells = None if mesh_field is None else {mesh_field.dims: mesh_cells(mesh_field)}
            return _predict(fileio.load_weights(wpath), lambda _: _read_input(sdir, manifest),
                            neighbors, int(manifest["res"]), cells)
    gt_path = os.path.join(sdir, gt_name)
    if os.path.exists(gt_path):
        return _read_grid(gt_path, cls)
    raise FileNotFoundError(f"no {head} field: pass a file, or train a {head} head")


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args) -> None:
    kind = args.kind
    csg_seed = args.csg_seed if args.csg_seed is not None else derive_seed(args.seed, "csg")
    dims = GridDims(args.res, args.res, args.res)
    os.makedirs(args.out, exist_ok=True)

    manifest = {
        "kind": kind, "res": args.res, "count": args.count,
        "csg_seed": csg_seed, "seed": args.seed,
        "cloud_size": args.cloud_size, "noise_sigma": args.noise_sigma,
        "obj": os.path.abspath(args.obj) if args.obj else "",
    }
    fileio.write_report(os.path.join(args.out, MANIFEST_NAME), manifest)

    mesh = fileio.as_tri_mesh(*fileio.read_obj(args.obj)[:2]) if args.obj else None
    for i in range(args.count):
        source = mesh if mesh is not None else _csg_scene(manifest, i)
        sample = make_training_sample(
            source, dims, kind=KIND_NAMES[kind],
            seed=derive_seed(args.seed, "sample", i),
            cloud_size=args.cloud_size, noise_sigma=args.noise_sigma)
        sdir = _sample_dir(args.out, i)
        os.makedirs(sdir, exist_ok=True)
        if sample.grid is not None:
            fileio.write_grid(os.path.join(sdir, INPUT_NAME), sample.grid)
        if sample.cloud is not None:
            fileio.write_xyz(os.path.join(sdir, CLOUD_NAME), sample.cloud)
        for field, name, _, _ in HEAD_FILES.values():
            fileio.write_grid(os.path.join(sdir, name), getattr(sample, field))
        if sample.mode == "ndc":
            gt_mesh = ndc_extract(sample.gt_signs, sample.gt_offsets)
        else:
            gt_mesh = undc_extract(sample.gt_flags, sample.gt_offsets)
        fileio.write_obj(os.path.join(sdir, GT_MESH_NAME), gt_mesh)
        print(f"sample {i}: {len(gt_mesh.vertices)} gt vertices, "
              f"{len(gt_mesh.faces)} gt faces -> {sdir}")


def cmd_train(args) -> None:
    manifest = _load_manifest(args.data)
    head = HEAD_NAMES[args.head]
    kind = manifest["kind"]
    stem = HEAD_STEMS.get((kind, head))
    if stem is None:
        raise UsageError(f"no {args.head} head for {kind} datasets")
    variant = "pc_encoder" if kind == "points" else stem

    samples = _load_samples(args.data, manifest)
    if args.steps is not None:
        epochs = -(-args.steps // len(samples))
    else:
        epochs = args.epochs
    config = TrainConfig(
        variant=variant, head=head, channels=args.channels, lr=args.lr,
        epochs=epochs, halve_every=args.halve_every, augment=args.augment,
        seed=derive_seed(args.seed, "train", stem), stop_below=args.stop_below)
    net, history = train_network(config, samples)

    out = args.out or os.path.join(args.data, stem + ".ndcw")
    fileio.save_weights(out, net)
    steps_run = len(history) * len(samples)
    print(f"{stem}: {len(history)} epochs ({steps_run} steps), "
          f"final loss {history[-1]:.6g} -> {out}")


def cmd_infer(args) -> None:
    if not args.grid and not args.cloud:
        raise UsageError("pass --grid FILE or --cloud FILE")
    nets = []
    for wpath in args.weights:
        net = fileio.load_weights(wpath)
        if net.variant == "pc_encoder":
            if not args.cloud:
                raise UsageError(f"{wpath} is a point-cloud network; pass --cloud")
            if args.res is None:
                raise UsageError("--res is required with --cloud")
        elif not args.grid:
            raise UsageError(f"{wpath} is a grid network; pass --grid")
        nets.append(net)
    neighbors = _cloud_neighbors_of(args.cloud)
    # a mesh reads vertex offsets only at the cells its signs or flags
    # give: the sign and flag heads run first, and the vertex heads only
    # at the union of those cells on their own lattice
    cells = {}
    for net in sorted(nets, key=lambda net: net.head == "vertex"):
        pred = _predict(net, lambda kind: fileio.read_grid(
            args.grid, KIND_NAMES.get(args.grid_kind, kind)), neighbors, args.res, cells)
        if net.head != "vertex":
            cells[pred.dims] = cells.get(pred.dims, False) | mesh_cells(pred)
        *_, suffix = HEAD_FILES[net.head]
        out = args.out_prefix + suffix
        fileio.write_grid(out, pred)
        print(f"{net.variant}/{net.head} -> {out}")


def cmd_mesh(args) -> None:
    sdir = _sample_dir(args.data, args.sample)
    out = args.out or os.path.join(args.data, f"mesh_{args.mode}.obj")
    # a point network's input: read, and its neighborhoods found, once
    neighbors = _cloud_neighbors_of(os.path.join(sdir, CLOUD_NAME))

    if args.close_holes and args.mode != "undc":
        print("note: --close-holes only applies to undc", file=sys.stderr)
    if args.mode in ("dc", "dc-est", "mc"):
        grid = (_read_grid(args.sdf, ScalarGrid) if args.sdf
                else _read_input(sdir, _load_manifest(args.data)))
        if args.mode == "mc":
            mesh = mc_extract(grid, args.iso)
        elif args.mode == "dc-est":
            mesh = dc_extract(grid, "estimated", args.iso)
        else:
            # exact normals come from the generating CSG scene
            manifest = _load_manifest(args.data)
            if manifest.get("obj"):
                raise NdcMeshError("mode dc needs analytic normals from a CSG "
                                   "scene; use dc-est for mesh-derived grids")
            scene = _csg_scene(manifest, args.sample)
            mesh = dc_extract(grid, csg_normal_fn(scene), args.iso)
    elif args.mode == "ndc":
        signs = _resolve_field(args.signs, args.data, sdir, "sign", neighbors)
        offsets = _resolve_field(args.offsets, args.data, sdir, "vertex", neighbors, signs)
        mesh = ndc_extract(signs, offsets)
    else:  # undc
        flags = _resolve_field(args.flags, args.data, sdir, "flag", neighbors)
        offsets = _resolve_field(args.offsets, args.data, sdir, "vertex", neighbors, flags)
        if args.close_holes:
            flags = close_holes(flags)
        mesh = undc_extract(flags, offsets)

    if args.tri_seed is not None and isinstance(mesh, QuadMesh):
        mesh = split_quads(mesh, args.tri_seed)
    fileio.write_mesh(out, mesh)
    print(f"{args.mode}: {len(mesh.vertices)} vertices, "
          f"{len(mesh.faces)} faces -> {out}")


def cmd_eval(args) -> None:
    pred_path = args.pred or os.path.join(args.data, "mesh_ndc.obj")
    gt_path = args.gt or os.path.join(_sample_dir(args.data, args.sample), GT_MESH_NAME)
    pred = fileio.as_tri_mesh(*fileio.read_faces(pred_path))
    gt = fileio.as_tri_mesh(*fileio.read_faces(gt_path))
    report = evaluate_mesh(pred, gt, samples=args.samples,
                           seed=derive_seed(args.seed, "eval"))
    values = report.as_dict()
    sys.stdout.write(fileio.format_report(values))
    if args.out:
        fileio.write_report(args.out, values)
    if args.csv:
        row = {"pred": pred_path, "gt": gt_path, **values}
        new = not os.path.exists(args.csv)
        with open(args.csv, "a", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(row))
            if new:
                writer.writeheader()
            writer.writerow(row)


def cmd_stats(args) -> None:
    mesh = fileio.read_mesh(args.mesh)
    st = edge_topology_stats(mesh)
    values = {
        "v_count": len(mesh.vertices), "f_count": len(mesh.faces),
        "edge_count": st.edge_count, "boundary": st.boundary,
        "manifold": st.manifold, "nonmanifold3": st.nonmanifold3,
        "nonmanifold4": st.nonmanifold4,
    }
    for key, frac in st.fractions.items():
        values[key + "_pct"] = 100.0 * frac
    sys.stdout.write(fileio.format_report(values))
    if args.out:
        fileio.write_report(args.out, values)


# ---------------------------------------------------------------------------
# parser


def _number(cast, low=None):
    """argparse type: a finite `cast` value, at least `low` when given."""
    rule = "a finite number" + ("" if low is None else f" >= {low}")

    def parse(text: str):
        value = cast(text)
        if not math.isfinite(value) or (low is not None and value < low):
            raise argparse.ArgumentTypeError(f"{text!r} is not {rule}")
        return value

    parse.__name__ = cast.__name__  # argparse names it in "invalid int value"
    return parse


COUNT = _number(int, 1)
RES = _number(int, 2)  # a grid has at least 2 vertices per axis
NON_NEGATIVE_INT = _number(int, 0)
NON_NEGATIVE = _number(float, 0)
FINITE = _number(float)


def build_parser() -> _Parser:
    parser = _Parser(prog="ndcmesh", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", metavar="command", required=True)

    def subcommand(name: str, func, summary: str):
        sub = subs.add_parser(name, help=summary)
        sub.add_argument("--seed", type=int, default=0, help="top-level seed")
        sub.set_defaults(func=func)
        return sub

    g = subcommand("gen", cmd_gen, "generate training samples")
    g.add_argument("--out", default="runs", help="output dataset directory")
    g.add_argument("--count", type=COUNT, default=1, help="number of samples")
    g.add_argument("--res", type=RES, default=32, help="grid resolution per axis")
    g.add_argument("--kind", choices=sorted(KIND_NAMES), default="sdf",
                   help="network input kind")
    g.add_argument("--csg-seed", type=int, default=None,
                   help="scene seed (default: derived from --seed)")
    g.add_argument("--cloud-size", type=COUNT, default=4096,
                   help="points per cloud (kind=points)")
    g.add_argument("--noise-sigma", type=NON_NEGATIVE, default=0.0,
                   help="cloud noise, in cell units")
    g.add_argument("--obj", help="build samples from this OBJ instead of CSG")

    t = subcommand("train", cmd_train, "train one network head")
    t.add_argument("--data", default="runs", help="dataset directory from gen")
    t.add_argument("--head", choices=sorted(HEAD_NAMES), required=True)
    t.add_argument("--steps", type=COUNT, default=None,
                   help="optimizer steps (rounded up to whole epochs)")
    t.add_argument("--epochs", type=COUNT, default=400)
    t.add_argument("--channels", type=COUNT, default=24,
                   help="network width (small default keeps CPU runs quick)")
    t.add_argument("--lr", type=NON_NEGATIVE, default=1e-4)
    t.add_argument("--halve-every", type=NON_NEGATIVE_INT, default=100,
                   help="halve lr every N epochs (0 disables)")
    t.add_argument("--augment", action="store_true",
                   help="random transform per sample per epoch")
    t.add_argument("--stop-below", type=FINITE, default=None,
                   help="stop once the epoch loss drops below this")
    t.add_argument("--out", help="weights file (default: DATA/<stem>.ndcw, e.g. sdf_v or pc_f)")

    i = subcommand("infer", cmd_infer, "run trained networks")
    i.description = (
        f"Grid networks predict signs on the input's |v| < {BAND_WIDTH:g} band (for "
        "voxels: the corners of cells with a neighbour, among the 26 in the "
        "grid, of the other occupancy) and copy the input's own sign "
        "elsewhere, vertex offsets at cells with a corner in that band (0.5 "
        "elsewhere) and flags on edges with both ends in it (false elsewhere). "
        f"Point networks predict at cells within {ACTIVE_MANHATTAN} Manhattan steps "
        "of a cell holding a point; elsewhere offsets are 0.5 and flags false. "
        "With a sign or flag head in the same call, on the same lattice, vertex "
        "offsets are predicted only at the cells where the mesh from those signs "
        "or flags has a vertex (with or without --close-holes), and are 0.5 "
        "elsewhere.")
    i.add_argument("--weights", action="append", required=True,
                   help="weights file (repeatable)")
    i.add_argument("--grid", help="input NDCGRID scalar grid")
    i.add_argument("--grid-kind", choices=["sdf", "udf", "voxel"], default=None)
    i.add_argument("--cloud", help="input xyz point cloud")
    i.add_argument("--res", type=RES, default=None,
                   help="output grid resolution for --cloud")
    i.add_argument("--out-prefix", default="pred")

    m = subcommand("mesh", cmd_mesh, "extract a mesh")
    m.add_argument("--mode", choices=["dc", "dc-est", "mc", "ndc", "undc"], required=True)
    m.add_argument("--data", default="runs", help="dataset directory")
    m.add_argument("--sample", type=NON_NEGATIVE_INT, default=0, help="sample index")
    m.add_argument("--sdf", help="scalar grid file (dc/dc-est/mc)")
    m.add_argument("--signs", help="sign grid file (ndc)")
    m.add_argument("--flags", help="edge flag file (undc)")
    m.add_argument("--offsets", help="vertex offset file (ndc/undc)")
    m.add_argument("--iso", type=FINITE, default=0.0)
    m.add_argument("--close-holes", action="store_true",
                   help="repair isolated missing flags before undc")
    m.add_argument("--tri-seed", type=int, default=None,
                   help="split quads into triangles with this seed")
    m.add_argument("-o", "--out", help="output .obj or .ply")

    e = subcommand("eval", cmd_eval, "compare two meshes")
    e.add_argument("pred", nargs="?", help="predicted mesh (.obj/.ply)")
    e.add_argument("gt", nargs="?", help="ground-truth mesh")
    e.add_argument("--data", default="runs", help="dataset directory defaults")
    e.add_argument("--sample", type=NON_NEGATIVE_INT, default=0)
    e.add_argument("--samples", type=COUNT, default=20000,
                   help="surface samples per mesh")
    e.add_argument("-o", "--out", help="write the report here too")
    e.add_argument("--csv", help="append one row to this CSV")

    s = subcommand("stats", cmd_stats, "mesh topology stats")
    s.add_argument("mesh", help="mesh file (.obj/.ply)")
    s.add_argument("-o", "--out", help="write the report here too")

    return parser


def cli_main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.func(args)
    except SystemExit as exc:  # argparse: -h exits 0, usage errors exit 1
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NdcMeshError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
