"""The four benchmark workloads.

Each workload makes its inputs from the run seed, runs one kind of
operation in a closed loop (the next operation starts when the previous
one has returned), and checks every output afterwards with the oracles
in oracles.py. The operations call the package the way a user would:
library entry points for the classical extractors, and the `ndcmesh`
command line (in-process, through cli_main) for inference and training.

A workload provides:

  make_inputs()   build the inputs; repeated to time set-up
  warm_up()       one untimed operation
  op(i)           operation i of the timed phase
  check()         verify every output; returns surf_err and final_loss
  trace_hooks(t)  wrap package functions for the traced run
  peaks()         tracemalloc peaks, measured after the timed phase
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import shutil
import tracemalloc
import zlib

import numpy as np

from ndcmesh import fileio
from ndcmesh.cli import cli_main
from ndcmesh.csg import CsgShape, Union, csg_normal_fn, random_scene
from ndcmesh.datagen import sample_csg_grid, sample_point_cloud
from ndcmesh.dc import dc_extract, dc_fields
from ndcmesh.grids import GridDims, GridKind
from ndcmesh.mc import mc_extract
from ndcmesh.mesh import TriMesh
from ndcmesh.ndc import ndc_extract
from ndcmesh.rng import derive_seed

import oracles
from oracles import CheckFailed, require

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WEIGHTS_DIR = os.path.join(BENCH_DIR, "weights")
SURFACE_SAMPLES = 4000  # points per output mesh for surf_err


class OpFailed(Exception):
    """An operation returned an error instead of an output."""


def seeds_for(seed: int, tag: str, count: int) -> list[int]:
    """`count` 63-bit seeds derived from the run seed and a workload tag."""
    ss = np.random.SeedSequence([int(seed), zlib.crc32(tag.encode())])
    return [int(s) >> 1 for s in ss.generate_state(count, np.uint64)]


def run_cli(argv: list[str]) -> str:
    """Run one `ndcmesh` subcommand in-process; returns its stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main([str(a) for a in argv])
    if code != 0:
        raise OpFailed(f"ndcmesh {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


class Scaled(CsgShape):
    """A CSG shape scaled and moved: f(p) = g((p - offset) * k) / k."""

    def __init__(self, shape: CsgShape, k: float, offset=(0.0, 0.0, 0.0)):
        self.shape, self.k = shape, float(k)
        self.offset = np.asarray(offset, dtype=np.float64)

    def evaluate(self, p):
        return self.shape.evaluate((p - self.offset) * self.k) / self.k


def surface_points(verts: np.ndarray, faces: np.ndarray, count: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Area-weighted uniform samples on a triangle or quad mesh."""
    if faces.shape[1] == 4:
        faces = np.concatenate([faces[:, [0, 1, 2]], faces[:, [0, 2, 3]]])
    a, b, c = (verts[faces[:, i]] for i in range(3))
    area = 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)
    require(area.sum() > 0, "mesh has no area to sample")
    pick = rng.choice(len(faces), size=count, p=area / area.sum())
    u, v = rng.random(count), rng.random(count)
    flip = u + v > 1
    u[flip], v[flip] = 1 - u[flip], 1 - v[flip]
    return a[pick] + u[:, None] * (b - a)[pick] + v[:, None] * (c - a)[pick]


class Quality:
    """Accumulates surf_err and the vertex loss over output meshes.

    surf_err is the mean |f| of the scene's analytic field at points
    sampled on each mesh, averaged over meshes; the vertex loss is the
    root mean square of f over each mesh's vertices, averaged over
    meshes. Both are in cell units.
    """

    def __init__(self):
        self.surf, self.vert = [], []
        self.rng = np.random.default_rng(12345)

    def add(self, scene: CsgShape, verts: np.ndarray, faces: np.ndarray) -> None:
        require(len(faces) > 0, "output mesh is empty")
        pts = surface_points(verts, faces, SURFACE_SAMPLES, self.rng)
        self.surf.append(float(np.mean(np.abs(scene(pts)))))
        self.vert.append(float(np.sqrt(np.mean(scene(verts) ** 2))))

    def surf_err(self) -> float:
        return float(np.mean(self.surf))

    def vertex_loss(self) -> float:
        return float(np.mean(self.vert))


def tracemalloc_peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def wrap_convs(tracer, net) -> None:
    """Time each Conv3d of a network and tally its floating-point work.

    Forward flops are 2 * out * in * kernel^3 * voxels; the backward pass
    computes both the weight and the input gradient, twice that.
    """
    for i, layer in enumerate(net.param_layers()):
        per_voxel = 2.0 * layer.out_channels * layer.in_channels * layer.kernel ** 3
        fwd, bwd = layer.forward, layer.backward

        def forward(x, fwd=fwd, name=f"nn.conv{i}.fwd", w=per_voxel):
            with tracer.span(name):
                y = fwd(x)
            tracer.flops(name, w * x[0].size)
            return y

        def backward(gy, bwd=bwd, name=f"nn.conv{i}.bwd", w=per_voxel):
            with tracer.span(name):
                g = bwd(gy)
            tracer.flops(name, 2.0 * w * gy[0].size)
            return g

        layer.forward, layer.backward = forward, backward


def weight_stem(net) -> str:
    if net.variant == "pc_encoder":
        return "pc_" + net.head[0]
    return net.variant


# ---------------------------------------------------------------- classic


class Classic:
    """MC, DC with estimated normals and DC with analytic normals on
    held-out 64^3 CSG scenes, one scene per operation."""

    name = "classic"
    res = 64
    # operation time, peak memory and output quality vary by about 20%
    # between scenes; twelve per round keep a run's figures steady
    scenes_per_round = 12
    # the warm-up extracts a fixed small scene, so set-up does not vary
    # with the run seed
    warm_seed, warm_res = 7, 32

    def __init__(self, seed: int, work: str, tracer):
        self.seeds = seeds_for(seed, self.name, self.scenes_per_round)
        self.tracer = tracer
        self.round_size = self.scenes_per_round
        self.outputs = []  # (scene index, mc, dc-est, dc-exact)

    def make_inputs(self):
        dims = GridDims(self.res, self.res, self.res)
        self.scenes = [random_scene(s, self.res - 1.0) for s in self.seeds]
        self.grids = [sample_csg_grid(sc, dims) for sc in self.scenes]
        self.normal_fns = [self.tracer.wrap("csg.normal_fn", csg_normal_fn(sc))
                           for sc in self.scenes]

    def _extract(self, grid, normal_fn):
        with self.tracer.span("mc.extract"):
            mc = mc_extract(grid)
        est = dc_extract(grid, "estimated")
        exact = dc_extract(grid, normal_fn)
        self.tracer.count("dc.cells", grid.dims.cell_count)
        self.tracer.count("dc.active_cells", len(est.vertices))
        return mc, est, exact

    def warm_up(self):
        scene = random_scene(self.warm_seed, self.warm_res - 1.0)
        grid = sample_csg_grid(scene, GridDims(self.warm_res, self.warm_res, self.warm_res))
        self._extract(grid, csg_normal_fn(scene))

    def op(self, i: int):
        j = i % self.scenes_per_round
        self.outputs.append((j,) + self._extract(self.grids[j], self.normal_fns[j]))

    def check(self):
        quality = Quality()
        checked = {}
        for j, mc, est, exact in self.outputs:
            meshes = ((mc.vertices, mc.tris), (est.vertices, est.quads),
                      (exact.vertices, exact.quads))
            if j in checked:
                oracles.check_same_meshes(checked[j], meshes, f"scene {j}")
                continue
            checked[j] = meshes
            inside = self.grids[j].values < 0
            oracles.check_two_manifold(mc.tris, f"scene {j} mc")
            oracles.check_dc_counts(inside, est.vertices, est.quads, f"scene {j} dc-est")
            oracles.check_dc_counts(inside, exact.vertices, exact.quads, f"scene {j} dc-exact")
            for v, f in meshes:
                quality.add(self.scenes[j], v, f)
        # one scene once more, so a run checks determinism however many
        # rounds it timed
        mc, est, exact = self._extract(self.grids[0], self.normal_fns[0])
        oracles.check_same_meshes(checked[0], ((mc.vertices, mc.tris), (est.vertices, est.quads),
                                               (exact.vertices, exact.quads)), "scene 0 rerun")
        return quality.surf_err(), quality.vertex_loss()

    def trace_hooks(self, tracer):
        import ndcmesh.dc as dc
        tracer.patch_call(dc, "signs_from_scalar", "grids.signs")
        tracer.patch_call(dc, "edge_crossings_linear", "grids.crossings")
        tracer.patch_call(dc, "edge_crossing_normals", "grids.normals")
        tracer.patch_call(dc, "assemble_dual_mesh", "dual.assemble")
        solve = dc._dc_solve

        def dc_solve(grid, normal_source, *args, **kwargs):
            name = "dc.fields" if isinstance(normal_source, str) else "dc.fields_exact"
            with tracer.span(name):
                return solve(grid, normal_source, *args, **kwargs)

        tracer.patch(dc, "_dc_solve", dc_solve)

    def peaks(self):
        mc = [tracemalloc_peak_mb(lambda: mc_extract(g)) for g in self.grids[:2]]
        dc = [tracemalloc_peak_mb(lambda: dc_fields(g, "estimated")) for g in self.grids[:2]]
        return {"mc.extract_peak_mb": float(np.median(mc)),
                "dc.fields_peak_mb": float(np.median(dc))}


# -------------------------------------------------------------- ndc_infer


class NdcInfer:
    """`ndcmesh infer` + `mesh --mode ndc` from an SDF grid, then
    `infer` + `mesh --mode undc --close-holes` from a point cloud."""

    name = "ndc_infer"
    res = 48
    scenes_per_round = 5
    cloud_size = 2048

    def __init__(self, seed: int, work: str, tracer):
        self.seeds = seeds_for(seed, self.name, self.scenes_per_round)
        self.work = work
        self.tracer = tracer
        self.round_size = self.scenes_per_round
        self.outputs = []  # (scene index, file prefix)
        self.weights = {s: os.path.join(WEIGHTS_DIR, s + ".ndcw")
                        for s in ("sdf_s", "sdf_v", "pc_f", "pc_v")}

    def _path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def make_inputs(self):
        dims = GridDims(self.res, self.res, self.res)
        self.scenes = [random_scene(s, self.res - 1.0) for s in self.seeds]
        for j, (sc, s) in enumerate(zip(self.scenes, self.seeds)):
            fileio.write_grid(self._path(f"grid{j}.ndcg"), sample_csg_grid(sc, dims))
            with self.tracer.span("datagen.cloud"):
                cloud = sample_point_cloud(sc, self.cloud_size, 0.0, s)
            fileio.write_xyz(self._path(f"cloud{j}.xyz"), cloud)
        for path in self.weights.values():
            require(os.path.exists(path), f"missing weights file {path}")

    def _run(self, j: int, prefix: str):
        span, w = self.tracer.span, self.weights
        sdf, pc = prefix + "_sdf", prefix + "_pc"
        with span("cli.infer"):
            run_cli(["infer", "--weights", w["sdf_s"], "--weights", w["sdf_v"],
                     "--grid", self._path(f"grid{j}.ndcg"), "--out-prefix", sdf])
        with span("cli.mesh"):
            run_cli(["mesh", "--mode", "ndc", "--data", self.work,
                     "--signs", sdf + "_signs.ndcg", "--offsets", sdf + "_vertices.ndcg",
                     "-o", prefix + "_ndc.obj"])
        with span("cli.infer"):
            run_cli(["infer", "--weights", w["pc_f"], "--weights", w["pc_v"],
                     "--cloud", self._path(f"cloud{j}.xyz"), "--res", self.res,
                     "--out-prefix", pc])
        with span("cli.mesh"):
            run_cli(["mesh", "--mode", "undc", "--close-holes", "--data", self.work,
                     "--flags", pc + "_flags.ndcg", "--offsets", pc + "_vertices.ndcg",
                     "-o", prefix + "_undc.obj"])

    def warm_up(self):
        self._run(0, self._path("warm"))

    def op(self, i: int):
        j = i % self.scenes_per_round
        prefix = self._path(f"op{i}")
        self._run(j, prefix)
        self.outputs.append((j, prefix))

    def check(self):
        quality = Quality()
        checked = {}
        for j, prefix in self.outputs:
            ndc_obj, undc_obj = prefix + "_ndc.obj", prefix + "_undc.obj"
            digests = (oracles.file_digest(ndc_obj), oracles.file_digest(undc_obj))
            if j in checked:
                require(digests == checked[j],
                        f"scene {j}: a repeated operation wrote another mesh")
                continue
            checked[j] = digests
            code, _, inside = oracles.read_ndcg(prefix + "_sdf_signs.ndcg")
            require(code == 1, f"{prefix}_sdf_signs.ndcg: not a sign grid")
            v, q = oracles.read_obj(ndc_obj)
            oracles.check_dual_mesh(oracles.sign_flags(inside), v, q, f"scene {j} ndc")
            oracles.check_no_boundary(q, f"scene {j} ndc")
            quality.add(self.scenes[j], v, q)

            code, _, pred = oracles.read_ndcg(prefix + "_pc_flags.ndcg")
            require(code == 3, f"{prefix}_pc_flags.ndcg: not a flag field")
            v, q = oracles.read_obj(undc_obj)
            oracles.check_dual_mesh(oracles.close_holes(pred), v, q, f"scene {j} undc")
            quality.add(self.scenes[j], v, q)
        # one scene once more, so a run checks determinism however many
        # rounds it timed
        prefix = self._path("rerun")
        self._run(0, prefix)
        require((oracles.file_digest(prefix + "_ndc.obj"),
                 oracles.file_digest(prefix + "_undc.obj")) == checked[0],
                "scene 0: a repeated operation wrote another mesh")
        return quality.surf_err(), quality.vertex_loss()

    def trace_hooks(self, tracer):
        import ndcmesh.cli as cli
        import ndcmesh.nn.pointnet as pointnet
        for attr in ("read_grid", "write_grid", "write_obj"):
            tracer.patch_call(fileio, attr, f"fileio.{attr}")
        load = fileio.load_weights

        def load_weights(path):
            with tracer.span("fileio.load_weights"):
                net = load(path)
            stem = weight_stem(net)
            net.predict = tracer.wrap(f"nn.{stem}.predict", net.predict)
            if stem == "sdf_v":
                wrap_convs(tracer, net)
            return net

        tracer.patch(fileio, "load_weights", load_weights)
        tracer.patch_call(pointnet, "knn_indices", "nn.pc.knn")
        ndc_fn, undc_fn, close_fn = cli.ndc_extract, cli.undc_extract, cli.close_holes

        def ndc_extract_traced(signs, offsets):
            with tracer.span("ndc.extract"):
                mesh = ndc_fn(signs, offsets)
            tracer.count("ndc.quads", len(mesh.quads))
            return mesh

        def undc_extract_traced(flags, offsets):
            with tracer.span("ndc.undc_extract"):
                mesh = undc_fn(flags, offsets)
            tracer.count("undc.quads", len(mesh.quads))
            return mesh

        def close_holes_traced(flags, *args, **kwargs):
            with tracer.span("ndc.close_holes"):
                out = close_fn(flags, *args, **kwargs)
            flips = sum(int(np.count_nonzero(a != b)) for a, b in zip(out.axes, flags.axes))
            tracer.count("ndc.close_holes_flips", flips)
            return out

        tracer.patch(cli, "ndc_extract", ndc_extract_traced)
        tracer.patch(cli, "undc_extract", undc_extract_traced)
        tracer.patch(cli, "close_holes", close_holes_traced)

    def peaks(self):
        grid = fileio.read_grid(self._path("grid0.ndcg"), GridKind.SDF)
        cloud = fileio.read_xyz(self._path("cloud0.xyz"))
        dims = grid.dims
        out = []
        for stem, path in self.weights.items():
            net = fileio.load_weights(path)
            if stem.startswith("pc"):
                out.append(tracemalloc_peak_mb(lambda: net.predict(cloud, dims)))
            else:
                out.append(tracemalloc_peak_mb(lambda: net.predict(grid)))
        return {"nn.predict_peak_mb": float(max(out))}


# ---------------------------------------------------------------- training


class _Train:
    """Shared plumbing: `gen` in set-up, one `train` per operation."""

    steps = 12
    channels = 16
    lr = "1e-3"
    augment = True
    train_seed = 1  # fixed: the run seed varies the data, not the network

    def __init__(self, seed: int, work: str, tracer):
        self.work = work
        self.tracer = tracer
        self.round_size = 1
        self.data = os.path.join(work, "data")
        self.gen_seed, self.scene_seed = seeds_for(seed, self.name, 2)
        self.outputs = []  # (weights path, final loss)

    def _gen_args(self) -> list:
        raise NotImplementedError

    def make_inputs(self):
        shutil.rmtree(self.data, ignore_errors=True)
        run_cli(["gen", "--out", self.data, "--seed", self.gen_seed] + self._gen_args())

    def _train(self, out: str, lr: str | None = None, augment: bool | None = None) -> float:
        args = ["train", "--data", self.data, "--head", "vertices",
                "--steps", self.steps, "--channels", self.channels,
                "--lr", lr or self.lr, "--seed", self.train_seed, "--out", out]
        if self.augment if augment is None else augment:
            args.append("--augment")
        with self.tracer.span("cli.train"):
            text = run_cli(args)
        found = re.search(r"final loss (\S+) ->", text)
        require(found is not None, f"train printed no final loss: {text!r}")
        return float(found.group(1))

    def warm_up(self):
        self._train(os.path.join(self.work, "warm.ndcw"))

    def op(self, i: int):
        out = os.path.join(self.work, f"op{i}.ndcw")
        self.outputs.append((out, self._train(out)))

    def _samples(self) -> list[tuple]:
        """(scene in grid coordinates, sample directory) per sample."""
        raise NotImplementedError

    def check(self):
        path0, loss0 = self.outputs[0]
        oracles.check_same_bytes([path for path, _ in self.outputs])
        require(all(loss == loss0 for _, loss in self.outputs),
                "same seed, different final loss")
        # lr 0 keeps the initial weights, so one epoch reports the loss of
        # the untrained network on every sample
        untrained = self._train(os.path.join(self.work, "untrained.ndcw"),
                                lr="0", augment=False)
        oracles.check_loss_decreased(loss0, untrained)
        self.extra_checks()
        quality = Quality()
        net = fileio.load_weights(path0)
        for scene, sdir in self._samples():
            grid = fileio.read_grid(os.path.join(sdir, "input.ndcg"), GridKind.SDF)
            signs = fileio.read_grid(os.path.join(sdir, "gt_signs.ndcg"))
            mesh = ndc_extract(signs, net.predict(grid))
            quality.add(scene, mesh.vertices, mesh.quads)
        return quality.surf_err(), loss0

    def extra_checks(self):
        pass

    def trace_hooks(self, tracer):
        import ndcmesh.cli as cli
        import ndcmesh.datagen as datagen
        import ndcmesh.nn.train as train
        make_sample = cli.make_training_sample

        def make_training_sample(*args, **kwargs):
            tracer.count("datagen.samples_rebuilt")
            with tracer.span("datagen.sample"):
                return make_sample(*args, **kwargs)

        tracer.patch(cli, "make_training_sample", make_training_sample)
        tracer.patch_call(datagen, "gt_edge_data", "datagen.gt_edge")
        tracer.patch_call(datagen, "pseudo_gt_vertices", "datagen.pseudo_gt")
        tracer.patch_call(datagen, "build_masks", "datagen.masks")
        tracer.patch_call(datagen, "mesh_to_sdf_grid", "datagen.mesh_sdf")
        tracer.patch_call(train, "train_step", "nn.train_step")
        tracer.patch_call(train, "augment_sample", "transforms.augment")
        tracer.patch_call(fileio, "save_weights", "fileio.save_weights")
        tracer.patch_call(fileio, "read_obj", "fileio.read_obj")

        class TracedAdam(train.Adam):
            def step(self):
                with tracer.span("nn.adam"):
                    super().step()

        tracer.patch(train, "Adam", TracedAdam)
        make_network = train.make_network

        def make_network_traced(*args, **kwargs):
            net = make_network(*args, **kwargs)
            if weight_stem(net) == "sdf_v":
                wrap_convs(tracer, net)
            return net

        tracer.patch(train, "make_network", make_network_traced)

    def peaks(self):
        return {}


class TrainCsg(_Train):
    """`ndcmesh train --head vertices --augment` on CSG samples at 24^3."""

    name = "train_csg"
    res = 24
    count = 6

    def _gen_args(self):
        return ["--count", self.count, "--res", self.res, "--kind", "sdf",
                "--csg-seed", self.scene_seed]

    def _samples(self):
        # the scene seeds `gen` derives from --csg-seed
        return [(random_scene(derive_seed(self.scene_seed, "scene", i), self.res - 1.0),
                 os.path.join(self.data, f"sample_{i:03d}"))
                for i in range(self.count)]


class TrainMesh(_Train):
    """`ndcmesh train` on a mesh dataset: ground truth is rebuilt from
    an OBJ of about a thousand triangles on every call. The OBJ is the
    marching-cubes mesh of the union of three random scenes, moved by a
    sub-cell shift.

    After every three trains, a round runs `ndcmesh gen --obj` on the
    unshifted marching-cubes mesh of a fixed scene and checks the
    ground-truth signs it writes. Unshifted, the mesh's vertices sit at
    rational lattice positions and lattice rays pass exactly through
    mesh edges, where the ray parity of `datagen` counts one crossing
    twice; that operation fails on every run until the fault is mended
    (see README.md).
    """

    name = "train_mesh"
    res = 12
    steps = 2
    augment = False
    target_tris = 1000
    base_extent = 63.0
    shift = (0.1357, 0.2468, 0.3579)
    lattice_seed = 1  # fixed scene of the lattice-aligned mesh
    trains_per_round = 3

    def __init__(self, seed: int, work: str, tracer):
        super().__init__(seed, work, tracer)
        self.round_size = self.trains_per_round + 1

    def _mesh(self, scene_seed: int, shift, stem: str):
        """Write the OBJ of three random scenes in one; returns its path
        and the scene in training-grid coordinates."""
        # three scenes in one: the loss averages over more primitives, so
        # it swings less from seed to seed than a single scene's would
        parts = [random_scene(s, self.base_extent) for s in seeds_for(scene_seed, self.name, 3)]
        base = Union(Union(parts[0], parts[1]), parts[2])
        # marching cubes at the resolution whose triangle count is nearest
        # the target; the mesh is then scaled into the training grid
        best, r = None, 24
        for _ in range(3):
            shape = Scaled(base, self.base_extent / (r - 1))
            mesh = mc_extract(sample_csg_grid(shape, GridDims(r, r, r)))
            if best is None or abs(len(mesh.tris) - self.target_tris) < abs(len(best[1].tris) - self.target_tris):
                best = (r, mesh)
            r = int(np.clip(round(r * np.sqrt(self.target_tris / max(len(mesh.tris), 1))), 8, 96))
        r, mesh = best
        path = os.path.join(self.work, stem + ".obj")
        fileio.write_obj(path, TriMesh(mesh.vertices * ((self.res - 1) / (r - 1)) + shift, mesh.tris))
        return path, Scaled(base, self.base_extent / (self.res - 1), shift)

    def make_inputs(self):
        self.obj, self.scene = self._mesh(self.scene_seed, self.shift, "shape")
        self.lattice_obj, self.lattice_scene = self._mesh(self.lattice_seed, (0.0, 0.0, 0.0),
                                                          "lattice")
        super().make_inputs()

    def _gen_args(self):
        return ["--count", 1, "--res", self.res, "--obj", self.obj]

    def op(self, i: int):
        if i % self.round_size < self.trains_per_round:
            super().op(i)
            return
        # traced spans of this operation go to a phase of their own, so
        # the per-layer figures describe the train operations
        phase, self.tracer.phase = self.tracer.phase, "lattice"
        try:
            data = os.path.join(self.work, "lattice")
            shutil.rmtree(data, ignore_errors=True)
            run_cli(["gen", "--out", data, "--seed", 1, "--count", 1, "--res", self.res,
                     "--obj", self.lattice_obj])
            self._check_gt_signs(os.path.join(data, "sample_000"), self.lattice_scene)
        finally:
            self.tracer.phase = phase

    def _samples(self):
        return [(self.scene, os.path.join(self.data, "sample_000"))]

    @staticmethod
    def _check_gt_signs(sdir: str, scene) -> None:
        code, vshape, inside = oracles.read_ndcg(os.path.join(sdir, "gt_signs.ndcg"))
        require(code == 1, "gt_signs.ndcg: not a sign grid")
        axes = [np.arange(s, dtype=np.float64) for s in vshape]
        lattice = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        oracles.check_far_signs(inside, scene(lattice), f"{sdir}/gt_signs.ndcg")

    def extra_checks(self):
        self._check_gt_signs(os.path.join(self.data, "sample_000"), self.scene)


WORKLOADS = {w.name: w for w in (Classic, NdcInfer, TrainCsg, TrainMesh)}


# ------------------------------------------------------------ layer metrics

# (name, unit, better, source); sources: "span" (seconds per timed
# operation), "setup" (seconds per set-up), "count" (per operation),
# "ratio", "gflops" (GFLOP/s over the timed phase) and "peak".
LAYER_METRICS = [
    ("grids.signs_s", "s", "lower", "span"),
    ("grids.crossings_s", "s", "lower", "span"),
    ("grids.normals_s", "s", "lower", "span"),
    ("dc.fields_s", "s", "lower", "span"),
    ("dc.fields_exact_s", "s", "lower", "span"),
    ("csg.normal_fn_s", "s", "lower", "span"),
    ("mc.extract_s", "s", "lower", "span"),
    ("dual.assemble_s", "s", "lower", "span"),
    ("dc.fields_peak_mb", "MB", "lower", "peak"),
    ("mc.extract_peak_mb", "MB", "lower", "peak"),
    ("dc.cells", "count", "lower", "count"),
    ("dc.active_cells", "count", "lower", "count"),
    ("dc.active_ratio", "1", "higher", "ratio"),
    ("cli.infer_s", "s", "lower", "span"),
    ("cli.mesh_s", "s", "lower", "span"),
    ("fileio.read_grid_s", "s", "lower", "span"),
    ("fileio.write_grid_s", "s", "lower", "span"),
    ("fileio.load_weights_s", "s", "lower", "span"),
    ("fileio.write_obj_s", "s", "lower", "span"),
    ("nn.sdf_s.predict_s", "s", "lower", "span"),
    ("nn.sdf_v.predict_s", "s", "lower", "span"),
    ("nn.pc_f.predict_s", "s", "lower", "span"),
    ("nn.pc_v.predict_s", "s", "lower", "span"),
    ("nn.pc.knn_s", "s", "lower", "span"),
    ("ndc.extract_s", "s", "lower", "span"),
    ("ndc.undc_extract_s", "s", "lower", "span"),
    ("ndc.close_holes_s", "s", "lower", "span"),
    ("nn.predict_peak_mb", "MB", "lower", "peak"),
    ("ndc.close_holes_flips", "count", "lower", "count"),
    ("ndc.quads", "count", "lower", "count"),
    ("undc.quads", "count", "lower", "count"),
]
for _i in range(6):
    LAYER_METRICS += [
        (f"nn.conv{_i}.fwd_s", "s", "lower", "span"),
        (f"nn.conv{_i}.fwd_gflops", "GFLOP/s", "higher", "gflops"),
        (f"nn.conv{_i}.bwd_s", "s", "lower", "span"),
        (f"nn.conv{_i}.bwd_gflops", "GFLOP/s", "higher", "gflops"),
    ]
LAYER_METRICS += [
    ("cli.train_s", "s", "lower", "span"),
    ("nn.train_step_s", "s", "lower", "span"),
    ("nn.adam_s", "s", "lower", "span"),
    ("transforms.augment_s", "s", "lower", "span"),
    ("datagen.pseudo_gt_s", "s", "lower", "span"),
    ("datagen.masks_s", "s", "lower", "span"),
    ("fileio.save_weights_s", "s", "lower", "span"),
    ("datagen.sample_s", "s", "lower", "span"),
    ("datagen.gt_edge_s", "s", "lower", "span"),
    ("datagen.samples_rebuilt", "count", "lower", "count"),
    ("datagen.mesh_sdf_s", "s", "lower", "span"),
    ("fileio.read_obj_s", "s", "lower", "span"),
    ("datagen.cloud_s", "s", "lower", "setup"),
]


def layer_values(tracer, ops: int, setups: int, peaks: dict) -> dict:
    """Per-layer figures of a traced run; layers a workload never calls
    read 0."""
    timed = tracer.totals("timed")
    setup = tracer.totals("setup")
    counts = tracer.counts("timed")
    flops = tracer.flop_totals("timed")
    out = {}
    for name, unit, _, source in LAYER_METRICS:
        key = name[:-2] if name.endswith("_s") else name
        if source == "span":
            value = timed.get(key, 0.0) / ops
        elif source == "setup":
            value = setup.get(key, 0.0) / setups
        elif source == "count":
            value = counts.get(name, 0.0) / ops
        elif source == "ratio":
            cells = counts.get("dc.cells", 0.0)
            value = counts.get("dc.active_cells", 0.0) / cells if cells else 0.0
        elif source == "gflops":
            key = name[: -len("_gflops")]
            busy = timed.get(key, 0.0)
            value = flops.get(key, 0.0) / busy / 1e9 if busy else 0.0
        else:
            value = peaks.get(name, 0.0)
        out[name] = {"value": value, "unit": unit}
    return out
