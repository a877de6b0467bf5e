"""Self-test of the benchmark's output checks.

Usage, from the repository root:

  python3 ndcbench/selftest.py

Each check in oracles.py must accept a correct output and reject the
same output with one fault put in: a dropped face, a vertex moved out of
its cell, a quad with its corners out of order, a mesh left with a hole
that hole closing mends, a rerun that moved a vertex, a flipped
ground-truth sign, a changed weight byte, and a loss that did not go
down. The benchmark's own hole closing must also agree with the
package's. Also
checks that the file readers agree with the package's writers and that
BENCHMARK.json lists the per-layer metrics the traced run prints.
Exits 0 when every case behaves, 1 otherwise.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def main() -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]
    import json
    import shutil
    import tempfile

    import numpy as np

    import oracles
    from ndcmesh import fileio
    from ndcmesh.csg import Box, Subtract, Sphere
    from ndcmesh.datagen import sample_csg_grid
    from ndcmesh.dc import dc_extract, dc_fields
    from ndcmesh.grids import EdgeField, GridDims, xor_flags
    from ndcmesh.mc import mc_extract
    from ndcmesh.ndc import close_holes, ndc_extract, undc_extract
    from oracles import CheckFailed
    from workloads import LAYER_METRICS

    failures = []

    def expect(ok: bool, case: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {case}")
        if not ok:
            failures.append(case)

    def passes(fn, *args) -> bool:
        try:
            fn(*args)
            return True
        except CheckFailed as exc:
            print(f"     unexpected: {exc}")
            return False

    def rejects(fn, *args) -> bool:
        try:
            fn(*args)
            return False
        except CheckFailed:
            return True

    dims = GridDims(20, 20, 20)
    scene = Subtract(Box((9.6, 9.4, 9.5), (5.2, 4.6, 4.1)), Sphere((12.3, 11.1, 13.2), 3.7))
    grid = sample_csg_grid(scene, dims)
    inside = grid.values < 0

    mc = mc_extract(grid)
    expect(passes(oracles.check_two_manifold, mc.tris, "mc"), "mc mesh is two-manifold")
    expect(rejects(oracles.check_two_manifold, mc.tris[1:], "mc"),
           "mc mesh with a dropped face is rejected")

    dc = dc_extract(grid, "estimated")
    expect(passes(oracles.check_dc_counts, inside, dc.vertices, dc.quads, "dc"),
           "dc counts match the sign lattice")
    expect(rejects(oracles.check_dc_counts, inside, dc.vertices, dc.quads[1:], "dc"),
           "dc mesh with a dropped face is rejected")
    expect(rejects(oracles.check_no_boundary, dc.quads[1:], "dc"),
           "dc mesh with a dropped face has a boundary")

    signs, offsets = dc_fields(grid, "estimated")
    ndc = ndc_extract(signs, offsets)
    flags = oracles.sign_flags(signs.inside)
    expect(passes(oracles.check_dual_mesh, flags, ndc.vertices, ndc.quads, "ndc"),
           "ndc mesh is dual to its sign flags")
    expect(rejects(oracles.check_dual_mesh, flags, ndc.vertices, ndc.quads[1:], "ndc"),
           "ndc mesh with a dropped face is rejected")
    moved = ndc.vertices.copy()
    moved[len(moved) // 2, 0] += 1.5
    expect(rejects(oracles.check_dual_mesh, flags, moved, ndc.quads, "ndc"),
           "ndc vertex moved out of its cell is rejected")
    crossed = ndc.quads.copy()
    crossed[0] = crossed[0, [0, 2, 1, 3]]
    expect(rejects(oracles.check_dual_mesh, flags, ndc.vertices, crossed, "ndc"),
           "quad with corners out of ring order is rejected")
    unflagged = [f.copy() for f in flags]
    edge = np.argwhere(unflagged[2][1:-1, 1:-1, :])[0] + (1, 1, 0)
    unflagged[2][tuple(edge)] = False
    expect(rejects(oracles.check_dual_mesh, unflagged, ndc.vertices, ndc.quads, "ndc"),
           "quad on an unflagged edge is rejected")

    holed = [f.copy() for f in flags]
    holed[2][tuple(edge)] = False
    closed = oracles.close_holes(holed)
    expect(all(np.array_equal(c, f) for c, f in zip(closed, flags)),
           "hole closing puts back a flag dropped from a closed surface")
    program = close_holes(EdgeField(dims, *holed))
    expect(all(np.array_equal(c, np.asarray(p)) for c, p in zip(closed, program.axes)),
           "hole closing agrees with ndcmesh.ndc.close_holes")
    unclosed = undc_extract(EdgeField(dims, *holed), offsets)
    expect(rejects(oracles.check_dual_mesh, closed, unclosed.vertices, unclosed.quads, "undc"),
           "undc mesh without hole closing is rejected")
    meshes = [(ndc.vertices, ndc.quads)]
    expect(passes(oracles.check_same_meshes, meshes, [(ndc.vertices.copy(), ndc.quads.copy())],
                  "rerun"), "a rerun with identical arrays passes")
    expect(rejects(oracles.check_same_meshes, meshes, [(moved, ndc.quads)], "rerun"),
           "a rerun with a moved vertex is rejected")

    ramp = np.arange(20, dtype=np.float64)[:, None, None] - 9.5 + np.zeros(dims.vertex_shape)
    expect(passes(oracles.check_far_signs, ramp < 0, ramp, "signs"),
           "signs that match the field pass")
    flipped = ramp < 0
    flipped[2, 3, 4] = ~flipped[2, 3, 4]
    expect(rejects(oracles.check_far_signs, flipped, ramp, "signs"),
           "a flipped ground-truth sign is rejected")
    expect(oracles.check_loss_decreased(0.1, 0.2) is None, "a lower final loss passes")
    expect(rejects(oracles.check_loss_decreased, 0.3, 0.2), "a higher final loss is rejected")
    expect(rejects(oracles.check_loss_decreased, float("nan"), 0.2),
           "a NaN final loss is rejected")

    out = os.path.join(BENCH_DIR, "out")
    os.makedirs(out, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="selftest-", dir=out)
    try:
        weights = os.path.join(BENCH_DIR, "weights", "sdf_v.ndcw")
        a, b = os.path.join(tmp, "a.ndcw"), os.path.join(tmp, "b.ndcw")
        shutil.copyfile(weights, a)
        shutil.copyfile(weights, b)
        expect(passes(oracles.check_same_bytes, [a, b]), "identical weights pass")
        with open(b, "r+b") as fh:
            fh.seek(100)
            byte = fh.read(1)
            fh.seek(100)
            fh.write(bytes([byte[0] ^ 1]))
        expect(rejects(oracles.check_same_bytes, [a, b]), "a changed weight byte is rejected")

        path = os.path.join(tmp, "signs.ndcg")
        fileio.write_grid(path, signs)
        code, _, back = oracles.read_ndcg(path)
        expect(code == 1 and np.array_equal(back.astype(bool), signs.inside),
               "sign grid reads back as written")
        fileio.write_grid(path, offsets)
        code, _, back = oracles.read_ndcg(path)
        expect(code == 2 and np.allclose(back, offsets.offsets, atol=1e-6),
               "offset grid reads back as written")
        fileio.write_grid(path, xor_flags(signs))
        code, _, back = oracles.read_ndcg(path)
        expect(code == 3 and all(np.array_equal(x.astype(bool), y)
                                 for x, y in zip(back, flags)),
               "flag field reads back as written")
        obj = os.path.join(tmp, "mesh.obj")
        fileio.write_obj(obj, ndc)
        v, q = oracles.read_obj(obj)
        expect(np.allclose(v, ndc.vertices, atol=1e-6) and np.array_equal(q, ndc.quads),
               "OBJ reads back as written")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    expect(listed == [m[:3] for m in LAYER_METRICS],
           "BENCHMARK.json per_layer matches the traced run's metrics")

    print(f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
