"""Output checks that do not call the package under test.

Every check here re-derives what an output must satisfy from first
principles with plain numpy: a mesh file is parsed by its own reader,
expected vertex and face counts come from the sign lattice, and the
dual structure (one vertex per active cell, one quad per flagged edge)
is rebuilt from the flag field. A failed check raises CheckFailed with a
message that names the property.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np


class CheckFailed(Exception):
    """An output violates a property it must hold."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------- files

def read_obj(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Vertices (V, 3) and faces (F, k) of an OBJ with uniform face size."""
    verts, faces = [], []
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "v":
                verts.append([float(x) for x in parts[1:4]])
            elif parts[0] == "f":
                faces.append([int(x.split("/")[0]) - 1 for x in parts[1:]])
    sizes = {len(f) for f in faces}
    require(len(sizes) <= 1, f"{path}: mixed face sizes {sorted(sizes)}")
    v = np.asarray(verts, dtype=np.float64).reshape(-1, 3)
    f = np.asarray(faces, dtype=np.int64).reshape(len(faces), -1)
    require(f.size == 0 or (f.min() >= 0 and f.max() < len(v)),
            f"{path}: face index out of range")
    return v, f


def read_ndcg(path: str):
    """(code, (m, n, k), payload) of an NDCGRID file.

    Payload is a (m, n, k) array for vertex codes 0 and 1, a
    (m-1, n-1, k-1, 3) array for code 2, and a list of three edge arrays
    for codes 3 and 4.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    require(data[:4] == b"NDCG" and data[4] == 1, f"{path}: not an NDCGRID v1 file")
    m, n, k = struct.unpack_from("<III", data, 5)
    code = data[17]
    body = data[18:]
    vshape, cshape = (m, n, k), (m - 1, n - 1, k - 1)
    eshapes = [(m - 1, n, k), (m, n - 1, k), (m, n, k - 1)]

    def take(dtype, count):
        size = np.dtype(dtype).itemsize * count
        require(len(body) == size, f"{path}: payload is {len(body)} bytes, not {size}")
        return np.frombuffer(body, dtype=dtype)

    if code in (0, 1):
        arr = take("<f4" if code == 0 else np.uint8, m * n * k)
        return code, vshape, arr.reshape(vshape, order="F")
    if code == 2:
        arr = take("<f4", 3 * int(np.prod(cshape)))
        return code, vshape, np.moveaxis(arr.reshape((3,) + cshape, order="F"), 0, 3)
    if code in (3, 4):
        counts = [int(np.prod(s)) for s in eshapes]
        arr = take(np.uint8 if code == 3 else "<f4", sum(counts))
        parts, ofs = [], 0
        for shape, count in zip(eshapes, counts):
            parts.append(arr[ofs:ofs + count].reshape(shape, order="F"))
            ofs += count
        return code, vshape, parts
    raise CheckFailed(f"{path}: unknown payload code {code}")


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ------------------------------------------------------------- topology

def edge_face_counts(faces: np.ndarray) -> np.ndarray:
    """Number of faces on each distinct undirected mesh edge."""
    if len(faces) == 0:
        return np.zeros(0, dtype=np.int64)
    pairs = np.stack([faces, np.roll(faces, -1, axis=1)], axis=-1).reshape(-1, 2)
    pairs = np.sort(pairs, axis=1)
    _, counts = np.unique(pairs, axis=0, return_counts=True)
    return counts


def check_two_manifold(faces: np.ndarray, what: str) -> None:
    """Every edge is shared by exactly two faces."""
    counts = edge_face_counts(faces)
    bad = int(np.sum(counts != 2))
    require(len(faces) > 0 and bad == 0,
            f"{what}: {bad} of {len(counts)} edges not shared by exactly two faces")


def check_no_boundary(faces: np.ndarray, what: str) -> None:
    """No edge belongs to exactly one face."""
    counts = edge_face_counts(faces)
    bad = int(np.sum(counts == 1))
    require(len(faces) > 0 and bad == 0, f"{what}: {bad} boundary edges")


# --------------------------------------------------------- dual structure

def sign_flags(inside: np.ndarray) -> list[np.ndarray]:
    """Per-axis sign-change flags of a vertex sign lattice."""
    s = np.asarray(inside, dtype=bool)
    return [np.diff(s, axis=a) for a in range(3)]


def active_cells(flags: list[np.ndarray]) -> np.ndarray:
    """Cells touching a flagged edge, by scattering each edge to its cells."""
    fx, fy, fz = (np.asarray(f, dtype=bool) for f in flags)
    cshape = (fx.shape[0], fy.shape[1], fz.shape[2])
    act = np.zeros(cshape, dtype=bool)
    for a, f in enumerate((fx, fy, fz)):
        b, c = (a + 1) % 3, (a + 2) % 3
        for db in (0, 1):
            for dc in (0, 1):
                src = [slice(None)] * 3
                src[b] = slice(db, db + cshape[b])
                src[c] = slice(dc, dc + cshape[c])
                act |= f[tuple(src)]
    return act


def differing_corner_cells(inside: np.ndarray) -> int:
    """Cells whose eight corner signs are not all equal."""
    s = np.asarray(inside, dtype=np.int8)
    lo = np.ones(tuple(d - 1 for d in s.shape), dtype=np.int8)
    hi = np.zeros_like(lo)
    for dx in (0, 1):
        for dy in (0, 1):
            for dz in (0, 1):
                c = s[dx:dx + lo.shape[0], dy:dy + lo.shape[1], dz:dz + lo.shape[2]]
                lo = np.minimum(lo, c)
                hi = np.maximum(hi, c)
    return int(np.count_nonzero(lo != hi))


def interior_flag_count(flags: list[np.ndarray]) -> int:
    """Flagged edges that have four surrounding cells."""
    total = 0
    for a, f in enumerate(flags):
        inner = [slice(None)] * 3
        inner[(a + 1) % 3] = slice(1, -1)
        inner[(a + 2) % 3] = slice(1, -1)
        total += int(np.count_nonzero(f[tuple(inner)]))
    return total


def check_dc_counts(inside: np.ndarray, verts: np.ndarray, quads: np.ndarray,
                    what: str) -> None:
    """One vertex per differing-corner cell, one quad per interior
    sign-change edge, and a closed surface."""
    want_v = differing_corner_cells(inside)
    want_q = interior_flag_count(sign_flags(inside))
    require(len(verts) == want_v, f"{what}: {len(verts)} vertices, {want_v} active cells")
    require(len(quads) == want_q, f"{what}: {len(quads)} quads, {want_q} sign-change edges")
    check_no_boundary(quads, what)


def quad_edges(cells: np.ndarray, what: str) -> np.ndarray:
    """The lattice edge each quad surrounds, as rows (axis, i, j, l).

    `cells` is (Q, 4, 3): the cell of each quad corner. The four cells
    must share their coordinate along one axis a and, across the other
    two axes b, c, visit (b-1, c-1), (b, c-1), (b, c), (b-1, c) in this
    cyclic order or its reverse, where (b, c) locates the edge.
    """
    out = np.empty((len(cells), 4), dtype=np.int64)
    if len(cells) == 0:
        return out
    same = np.all(cells == cells[:, :1], axis=1)  # (Q, 3)
    require(bool(np.all(same.sum(axis=1) == 1)),
            f"{what}: a quad does not lie around a single lattice edge")
    axis = np.argmax(same, axis=1)
    b, c = (axis + 1) % 3, (axis + 2) % 3
    rows = np.arange(len(cells))
    cb = cells[rows, :, b]  # (Q, 4)
    cc = cells[rows, :, c]
    hb, hc = cb.max(axis=1), cc.max(axis=1)
    db = cb - hb[:, None] + 1  # in {0, 1} for the four surrounding cells
    dc = cc - hc[:, None] + 1
    code = db + 2 * dc  # (0,0)->0, (1,0)->1, (1,1)->3, (0,1)->2
    ring = np.array([0, 1, 3, 2])
    ok = np.zeros(len(cells), dtype=bool)
    for shift in range(4):
        for order in (ring, ring[::-1]):
            ok |= np.all(code == np.roll(order, shift)[None], axis=1)
    require(bool(np.all(ok)), f"{what}: a quad does not join the four cells around an edge")
    out[:, 0] = axis
    out[rows, 1 + axis] = cells[:, 0, :][rows, axis]
    out[rows, 1 + b] = hb
    out[rows, 1 + c] = hc
    return out


def check_dual_mesh(flags: list[np.ndarray], verts: np.ndarray, quads: np.ndarray,
                    what: str, tol: float = 1e-5) -> None:
    """Check a mesh assembled dual to a flag field.

    Vertex i must sit inside (or on the boundary of) the i-th active cell
    in x-fastest order, and every quad must join the four cells around
    one flagged interior edge, with each such edge used exactly once.
    """
    flags = [np.asarray(f, dtype=bool) for f in flags]
    act = active_cells(flags)
    zz, yy, xx = np.nonzero(act.transpose(2, 1, 0))
    cells = np.stack([xx, yy, zz], axis=1)
    require(len(cells) == len(verts),
            f"{what}: {len(verts)} vertices, {len(cells)} active cells")
    inside = np.all((verts >= cells - tol) & (verts <= cells + 1 + tol), axis=1)
    require(bool(np.all(inside)),
            f"{what}: {int(np.sum(~inside))} vertices outside their own cell")
    corner_cells = cells[quads] if len(quads) else np.empty((0, 4, 3), dtype=np.int64)
    e = quad_edges(corner_cells, what)
    vshape = (flags[0].shape[0] + 1,) + flags[0].shape[1:]
    key = np.ravel_multi_index(tuple(e.T), (3,) + vshape)
    require(len(np.unique(key)) == len(key), f"{what}: two quads on one edge")
    on_flag = np.array([flags[a][i, j, l] for a, i, j, l in e], dtype=bool)
    require(bool(np.all(on_flag)),
            f"{what}: {int(np.sum(~on_flag))} quads on unflagged edges")
    want = interior_flag_count(flags)
    require(len(quads) == want, f"{what}: {len(quads)} quads, {want} flagged interior edges")


def _edge_rings(vshape: tuple, axis: int) -> tuple[tuple, np.ndarray]:
    """Interior lattice edges along `axis` and the four cells around each.

    Returns the edges' index arrays into the axis's flag array and their
    cells as linear cell indices (E, 4), in ring order.
    """
    b, c = (axis + 1) % 3, (axis + 2) % 3
    eshape = list(vshape)
    eshape[axis] -= 1
    lo = [0, 0, 0]
    lo[b] = lo[c] = 1
    hi = list(eshape)
    hi[b] -= 1
    hi[c] -= 1
    grids = np.meshgrid(*(np.arange(l, h) for l, h in zip(lo, hi)), indexing="ij")
    idx = tuple(g.ravel() for g in grids)
    cshape = tuple(d - 1 for d in vshape)
    ring = []
    for db, dc in ((1, 1), (0, 1), (0, 0), (1, 0)):
        cell = list(idx)
        cell[b] = idx[b] - db
        cell[c] = idx[c] - dc
        ring.append(np.ravel_multi_index(tuple(cell), cshape))
    return idx, np.stack(ring, axis=1)


def close_holes(flags: list[np.ndarray], passes: int = 3) -> list[np.ndarray]:
    """Flags after hole closing, decided on the dual mesh itself.

    An unflagged interior edge gains its flag when at least three of
    the four mesh edges of the quad it would add are boundary edges (one
    face) of the current mesh. All additions of a pass are decided on
    the same mesh; passes repeat until nothing changes, at most `passes`
    times.
    """
    flags = [np.array(f, dtype=bool) for f in flags]
    vshape = (flags[0].shape[0] + 1,) + flags[0].shape[1:]
    rings = [_edge_rings(vshape, a) for a in range(3)]
    cells = int(np.prod([d - 1 for d in vshape]))

    def mesh_edges(ring: np.ndarray) -> np.ndarray:
        nxt = np.roll(ring, -1, axis=1)
        return np.minimum(ring, nxt) * cells + np.maximum(ring, nxt)

    keys = [mesh_edges(ring) for _, ring in rings]
    for _ in range(passes):
        used = np.concatenate([k[f[idx]] for (idx, _), k, f in zip(rings, keys, flags)])
        edge, count = np.unique(used.ravel(), return_counts=True)
        boundary = edge[count == 1]
        added = False
        for (idx, _), k, f in zip(rings, keys, flags):
            open_count = np.isin(k, boundary).sum(axis=1)
            add = ~f[idx] & (open_count >= 3)
            if np.any(add):
                added = True
                f[tuple(i[add] for i in idx)] = True
        if not added:
            break
    return flags


# ------------------------------------------------------------- training

def check_far_signs(inside: np.ndarray, field: np.ndarray, what: str,
                    margin: float = 1.0) -> None:
    """Inside flags agree with a signed field wherever |field| > margin."""
    far = np.abs(field) > margin
    wrong = int(np.count_nonzero(np.asarray(inside, dtype=bool)[far] != (field[far] < 0)))
    require(wrong == 0, f"{what}: {wrong} signs disagree with the scene "
                        f"more than {margin} cell from the surface")


def check_same_meshes(first, second, what: str) -> None:
    """Two lists of (vertices, faces) pairs hold identical arrays."""
    for (v0, f0), (v1, f1) in zip(first, second):
        require(np.array_equal(v0, v1) and np.array_equal(f0, f1),
                f"{what}: a repeated operation gave another mesh")


def check_same_bytes(paths: list[str]) -> None:
    """Every file has the bytes of the first."""
    first = file_digest(paths[0])
    for path in paths[1:]:
        require(file_digest(path) == first, f"{path}: same seed, different bytes")


def check_loss_decreased(final: float, untrained: float) -> None:
    require(bool(np.isfinite(final)), f"final loss {final} is not finite")
    require(final < untrained,
            f"final loss {final} is not below the untrained loss {untrained}")
