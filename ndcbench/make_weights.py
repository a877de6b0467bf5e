"""Rebuild the four network weight files that ndc_infer runs.

Usage, from the repository root:

  python3 ndcbench/make_weights.py            # rewrite ndcbench/weights/
  python3 ndcbench/make_weights.py --check    # rebuild, compare byte for byte
  python3 ndcbench/make_weights.py --quality  # accuracy on held-out 64^3 scenes

The weights come from `ndcmesh gen` and `ndcmesh train` with fixed
seeds, on 20^3 CSG scenes whose seeds and extent differ from every scene
the benchmark reconstructs:

  gen   --kind sdf    --count 4 --res 20 --seed 101   -> sdf_s, sdf_v
  gen   --kind points --count 4 --res 20 --seed 102   -> pc_f, pc_v
  train --steps 160 --channels 16 --lr 1e-3 --seed <gen seed>

Run with one BLAS thread, as the benchmark does; float32 sums can change
in the last bit with another thread count.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WEIGHTS_DIR = os.path.join(BENCH_DIR, "weights")

DATASETS = {"sdf": 101, "points": 102}
HEADS = {"sdf_s": ("sdf", "signs"), "sdf_v": ("sdf", "vertices"),
         "pc_f": ("points", "flags"), "pc_v": ("points", "vertices")}
TRAIN_ARGS = ["--steps", "160", "--channels", "16", "--lr", "1e-3"]


def build(out: str) -> dict:
    """Generate both datasets and train every head; returns stem -> path."""
    from workloads import run_cli

    for kind, seed in DATASETS.items():
        run_cli(["gen", "--out", os.path.join(out, kind), "--kind", kind,
                 "--count", 4, "--res", 20, "--seed", seed])
    paths = {}
    for stem, (kind, head) in HEADS.items():
        paths[stem] = os.path.join(out, stem + ".ndcw")
        run_cli(["train", "--data", os.path.join(out, kind), "--head", head,
                 "--seed", DATASETS[kind], "--out", paths[stem]] + TRAIN_ARGS)
    return paths


def quality(scenes: int = 3, res: int = 64) -> None:
    """Sign accuracy in the |sdf| < 1 band and mean vertex error against
    the pseudo ground truth, for the SDF networks on held-out scenes."""
    import numpy as np

    from ndcmesh import fileio
    from ndcmesh.csg import random_scene
    from ndcmesh.datagen import gt_edge_data, pseudo_gt_vertices, sample_csg_grid
    from ndcmesh.grids import GridDims
    from workloads import seeds_for

    signs_net = fileio.load_weights(os.path.join(WEIGHTS_DIR, "sdf_s.ndcw"))
    verts_net = fileio.load_weights(os.path.join(WEIGHTS_DIR, "sdf_v.ndcw"))
    dims = GridDims(res, res, res)
    for seed in seeds_for(0, "weights-quality", scenes):
        scene = random_scene(seed, res - 1.0)
        grid = sample_csg_grid(scene, dims)
        band = np.abs(grid.values) < 1.0
        pred = signs_net.predict(grid).inside
        acc = np.mean(pred[band] == (grid.values[band] < 0))
        _, tvals, normals = gt_edge_data(scene, dims)
        gt = pseudo_gt_vertices(tvals, normals, dims).offsets
        inside = grid.values < 0
        corners = sum(inside[dx:dx + res - 1, dy:dy + res - 1, dz:dz + res - 1].astype(int)
                      for dx in (0, 1) for dy in (0, 1) for dz in (0, 1))
        cells = (corners > 0) & (corners < 8)
        err = np.linalg.norm(verts_net.predict(grid).offsets[cells] - gt[cells], axis=1)
        print(f"scene {seed}: sign accuracy in band {acc:.4f}, "
              f"mean vertex error {err.mean():.4f} cells over {int(cells.sum())} cells")


def main(argv) -> int:
    import shutil
    import tempfile

    sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]
    if "--quality" in argv:
        quality()
        return 0
    os.makedirs(os.path.join(BENCH_DIR, "out"), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="weights-", dir=os.path.join(BENCH_DIR, "out"))
    try:
        paths = build(tmp)
        if "--check" in argv:
            from oracles import file_digest
            same = True
            for stem, path in paths.items():
                kept = os.path.join(WEIGHTS_DIR, stem + ".ndcw")
                ok = os.path.exists(kept) and file_digest(kept) == file_digest(path)
                print(f"{stem}: {'identical' if ok else 'DIFFERS'}")
                same &= ok
            return 0 if same else 1
        os.makedirs(WEIGHTS_DIR, exist_ok=True)
        for stem, path in paths.items():
            shutil.copyfile(path, os.path.join(WEIGHTS_DIR, stem + ".ndcw"))
            print(f"{stem} -> {os.path.join(WEIGHTS_DIR, stem + '.ndcw')}")
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
