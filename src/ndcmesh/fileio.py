"""File formats: OBJ/PLY meshes, NDCGRID grids, NDCW weights, reports.

NDCGRID is the shared binary grid format: magic "NDCG", version byte
0x01, little-endian u32 dims m,n,k, a payload code byte, then the
payload with x varying fastest, y next, z slowest. Reals are 32-bit
IEEE little-endian. Payload codes:

  0  f32 scalar per vertex        (ScalarGrid; occupancy stores its
                                   cell values anchored at min corners)
  1  u8 per vertex                (SignGrid / vertex masks; 1 = inside)
  2  f32 x 3 per cell             (VertexOffsetGrid; 3 components
                                   contiguous per cell)
  3  u8 per edge, x/y/z blocks    (boolean EdgeField)
  4  f32 per edge, x/y/z blocks   (real EdgeField, e.g. crossing t)

NDCW stores network weights: magic "NDCW", version 0x01, variant and
head code bytes, u32 channels, u8 residual block count, u16 layer
count, then per parametric layer a header (kind byte, u32 in, u32 out,
kernel byte) followed by f32 weights in (out, in, kz, ky, kx) order and
f32 biases.
"""

import math
import struct

import numpy as np

from .errors import (BadMagic, BadVersion, GridFormatError, NonFiniteValues,
                     ObjParseError, ShapeError, TruncatedPayload)
from .grids import (EdgeField, GridDims, GridKind, ScalarGrid, SignGrid,
                    VertexOffsetGrid)
from .mesh import QuadMesh, TriMesh

GRID_MAGIC = b"NDCG"
GRID_VERSION = 1
WEIGHTS_MAGIC = b"NDCW"
WEIGHTS_VERSION = 1

PAYLOAD_SCALAR = 0
PAYLOAD_SIGNS = 1
PAYLOAD_OFFSETS = 2
PAYLOAD_FLAGS = 3
PAYLOAD_EDGE_REALS = 4

_VARIANT_CODES = {"sdf_v": 0, "sdf_s": 1, "sdf_f": 2,
                  "vox_s": 3, "vox_v": 4, "vox_f": 5, "pc_encoder": 6}
_VARIANT_NAMES = {v: k for k, v in _VARIANT_CODES.items()}
_HEAD_CODES = {"sign": 0, "vertex": 1, "flag": 2}
_HEAD_NAMES = {v: k for k, v in _HEAD_CODES.items()}
# layer kind code by kernel size: conv3, conv1, and fc (no kernel, 0)
_LAYER_KINDS = {3: 1, 1: 2, 0: 3}


# ---------------------------------------------------------------- OBJ

def write_obj(path, mesh: QuadMesh | TriMesh) -> None:
    faces = mesh.quads if isinstance(mesh, QuadMesh) else mesh.tris
    with open(path, "w") as fh:
        for v in mesh.vertices:
            fh.write(f"v {v[0]:.9g} {v[1]:.9g} {v[2]:.9g}\n")
        for f in faces:
            fh.write("f " + " ".join(str(i + 1) for i in f) + "\n")


def read_obj(path):
    """(vertices, faces, skipped): faces is a list of index arrays.

    Accepts v and f records with 3 or 4 indices ("a/b/c" slash forms
    keep the vertex index). Other record types are skipped and counted.
    Malformed records raise ObjParseError with the line number.
    """
    vertices = []
    faces = []
    face_lines = []
    skipped = 0
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if parts[0] == "v":
                if len(parts) < 4:
                    raise ObjParseError("vertex needs 3 coordinates", lineno)
                try:
                    vertices.append([float(parts[1]), float(parts[2]), float(parts[3])])
                except ValueError:
                    raise ObjParseError("bad vertex coordinate", lineno) from None
                if not all(map(math.isfinite, vertices[-1])):
                    raise NonFiniteValues(f"{path}:{lineno}: non-finite vertex coordinate")
            elif parts[0] == "f":
                idx = []
                for tok in parts[1:]:
                    tok = tok.split("/")[0]
                    try:
                        i = int(tok)
                    except ValueError:
                        raise ObjParseError("bad face index", lineno) from None
                    if i == 0:
                        raise ObjParseError("face index 0 (OBJ is 1-based)", lineno)
                    idx.append(i - 1 if i > 0 else len(vertices) + i)
                if len(idx) not in (3, 4):
                    raise ObjParseError(
                        f"face needs 3 or 4 vertices, got {len(idx)}", lineno)
                if any(i < 0 or i >= 10 ** 9 for i in idx):
                    raise ObjParseError("face index out of range", lineno)
                faces.append(np.array(idx, dtype=np.int64))
                face_lines.append(lineno)
            else:
                skipped += 1
    verts = np.asarray(vertices, dtype=np.float64).reshape(-1, 3)
    for f, lineno in zip(faces, face_lines):
        if f.max(initial=-1) >= len(verts):
            raise ObjParseError("face references a missing vertex", lineno)
    return verts, faces, skipped


def as_tri_mesh(vertices: np.ndarray, faces: list) -> TriMesh:
    """Coerce mixed faces: quads split along the (0, 2) diagonal."""
    tris = []
    for f in faces:
        if len(f) == 3:
            tris.append(f)
        else:
            tris.append(f[[0, 1, 2]])
            tris.append(f[[0, 2, 3]])
    out = np.array(tris, dtype=np.int64).reshape(-1, 3)
    return TriMesh(vertices, out)


def as_quad_mesh(vertices: np.ndarray, faces: list) -> QuadMesh:
    if any(len(f) != 4 for f in faces):
        raise ShapeError("mesh has non-quad faces")
    quads = np.array(faces, dtype=np.int64).reshape(-1, 4)
    return QuadMesh(vertices, quads)


def read_obj_mesh(path):
    """TriMesh or QuadMesh depending on the face types in the file."""
    verts, faces, _ = read_obj(path)
    if faces and all(len(f) == 4 for f in faces):
        return as_quad_mesh(verts, faces)
    return as_tri_mesh(verts, faces)


# ---------------------------------------------------------------- PLY

def write_ply(path, mesh: QuadMesh | TriMesh) -> None:
    """Binary little-endian PLY with positions and faces only."""
    faces = mesh.quads if isinstance(mesh, QuadMesh) else mesh.tris
    header = (
        "ply\nformat binary_little_endian 1.0\n"
        f"element vertex {len(mesh.vertices)}\n"
        "property float x\nproperty float y\nproperty float z\n"
        f"element face {len(faces)}\n"
        "property list uchar int vertex_indices\nend_header\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(mesh.vertices.astype("<f4").tobytes())
        n = faces.shape[1]
        counts = np.full((len(faces), 1), n, dtype=np.uint8)
        idx = faces.astype("<i4")
        rows = b"".join(counts[i].tobytes() + idx[i].tobytes()
                        for i in range(len(faces)))
        fh.write(rows)


def read_ply(path):
    """Read the PLY subset written by write_ply."""
    with open(path, "rb") as fh:
        data = fh.read()
    end = data.find(b"end_header\n")
    if not data.startswith(b"ply\n") or end < 0:
        raise BadMagic("not a ply file")
    header = data[:end].decode("ascii").splitlines()
    if "format binary_little_endian 1.0" not in header:
        raise BadVersion("only binary little-endian ply is supported")
    nv = nf = 0
    for line in header:
        if line.startswith("element vertex"):
            nv = int(line.split()[2])
        elif line.startswith("element face"):
            nf = int(line.split()[2])
    body = data[end + len(b"end_header\n"):]
    need = nv * 12
    if len(body) < need:
        raise TruncatedPayload("ply vertex data truncated")
    verts = np.frombuffer(body[:need], dtype="<f4").reshape(nv, 3).astype(np.float64)
    faces = []
    ofs = need
    for _ in range(nf):
        if ofs + 1 > len(body):
            raise TruncatedPayload("ply face data truncated")
        cnt = body[ofs]
        ofs += 1
        if ofs + 4 * cnt > len(body):
            raise TruncatedPayload("ply face data truncated")
        faces.append(np.frombuffer(body[ofs:ofs + 4 * cnt], dtype="<i4").astype(np.int64))
        ofs += 4 * cnt
    return verts, faces


def write_mesh(path, mesh) -> None:
    """Dispatch on extension: .obj or .ply."""
    if str(path).lower().endswith(".ply"):
        write_ply(path, mesh)
    else:
        write_obj(path, mesh)


def read_mesh(path):
    if str(path).lower().endswith(".ply"):
        verts, faces = read_ply(path)
        if faces and all(len(f) == 4 for f in faces):
            return as_quad_mesh(verts, faces)
        return as_tri_mesh(verts, faces)
    return read_obj_mesh(path)


# ------------------------------------------------------------ NDCGRID

def _xfirst(arr: np.ndarray) -> np.ndarray:
    """Serialize with x fastest (first index fastest)."""
    return np.asfortranarray(arr).ravel(order="F")


def _from_xfirst(buf: np.ndarray, shape) -> np.ndarray:
    return buf.reshape(shape, order="F")


def write_grid(path, obj) -> None:
    dims = obj.dims
    if isinstance(obj, ScalarGrid):
        code = PAYLOAD_SCALAR
        payload = _xfirst(obj.values).astype("<f4").tobytes()
    elif isinstance(obj, SignGrid):
        code = PAYLOAD_SIGNS
        payload = _xfirst(obj.inside).astype(np.uint8).tobytes()
    elif isinstance(obj, VertexOffsetGrid):
        code = PAYLOAD_OFFSETS
        comps = np.moveaxis(obj.offsets, 3, 0)  # (3, cx, cy, cz), comp fastest
        payload = comps.ravel(order="F").astype("<f4").tobytes()
    elif isinstance(obj, EdgeField):
        arrays = [np.asarray(obj.axis(a)) for a in range(3)]
        if arrays[0].dtype == bool:
            code = PAYLOAD_FLAGS
            payload = b"".join(_xfirst(a).astype(np.uint8).tobytes() for a in arrays)
        else:
            code = PAYLOAD_EDGE_REALS
            payload = b"".join(_xfirst(a).astype("<f4").tobytes() for a in arrays)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} as a grid")
    with open(path, "wb") as fh:
        fh.write(GRID_MAGIC)
        fh.write(bytes([GRID_VERSION]))
        fh.write(struct.pack("<III", *dims.vertex_shape))
        fh.write(bytes([code]))
        fh.write(payload)


def read_grid(path, kind: GridKind = GridKind.SDF):
    """Read any NDCGRID file to its typed object.

    Scalar payloads need the caller to say what the values mean, since
    the format stores numbers, not semantics; `kind` applies only to
    payload code 0.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 18:
        raise TruncatedPayload(f"{path}: file shorter than any valid header")
    if data[:4] != GRID_MAGIC:
        raise BadMagic(f"{path}: magic {data[:4]!r} is not {GRID_MAGIC!r}")
    if data[4] != GRID_VERSION:
        raise BadVersion(f"{path}: version {data[4]} (expected {GRID_VERSION})")
    m, n, k = struct.unpack_from("<III", data, 5)
    code = data[17]
    dims = GridDims(m, n, k)
    body = data[18:]

    def take(count, dtype):
        item = np.dtype(dtype).itemsize
        if len(body) < count * item:
            raise TruncatedPayload(
                f"{path}: payload needs {count * item} bytes, has {len(body)}")
        if len(body) > count * item:
            raise GridFormatError(
                f"{path}: {len(body) - count * item} unexpected trailing bytes")
        return np.frombuffer(body, dtype=dtype, count=count)

    if code == PAYLOAD_SCALAR:
        vals = take(dims.vertex_count, "<f4").astype(np.float64)
        return ScalarGrid(dims, kind, _from_xfirst(vals, dims.vertex_shape))
    if code == PAYLOAD_SIGNS:
        vals = take(dims.vertex_count, np.uint8)
        return SignGrid(dims, _from_xfirst(vals, dims.vertex_shape).astype(bool))
    if code == PAYLOAD_OFFSETS:
        vals = take(3 * dims.cell_count, "<f4").astype(np.float64)
        comps = _from_xfirst(vals, (3,) + dims.cell_shape)
        return VertexOffsetGrid(dims, np.moveaxis(comps, 0, 3))
    if code in (PAYLOAD_FLAGS, PAYLOAD_EDGE_REALS):
        dtype = np.uint8 if code == PAYLOAD_FLAGS else np.dtype("<f4")
        counts = [int(np.prod(dims.edge_shape(a))) for a in range(3)]
        vals = take(sum(counts), dtype)
        parts = []
        ofs = 0
        for a in range(3):
            block = vals[ofs:ofs + counts[a]]
            ofs += counts[a]
            arr = _from_xfirst(block, dims.edge_shape(a))
            parts.append(arr.astype(bool) if code == PAYLOAD_FLAGS
                         else arr.astype(np.float64))
        return EdgeField(dims, *parts)
    raise GridFormatError(f"{path}: unknown payload code {code}")


# --------------------------------------------------------------- NDCW

def save_weights(path, net) -> None:
    layers = net.param_layers()
    with open(path, "wb") as fh:
        fh.write(WEIGHTS_MAGIC)
        fh.write(bytes([WEIGHTS_VERSION]))
        fh.write(bytes([_VARIANT_CODES[net.variant]]))
        fh.write(bytes([_HEAD_CODES[net.head]]))
        fh.write(struct.pack("<I", net.channels))
        fh.write(bytes([getattr(net, "resblock_count", 0)]))
        fh.write(struct.pack("<H", len(layers)))
        for layer in layers:
            w = layer.weight.value
            kernel = getattr(layer, "kernel", 0)
            fh.write(struct.pack("<BIIB", _LAYER_KINDS[kernel], w.shape[1], w.shape[0], kernel))
            fh.write(np.ascontiguousarray(w, dtype="<f4").tobytes())
            fh.write(np.ascontiguousarray(layer.bias.value, dtype="<f4").tobytes())


def load_weights(path):
    from .nn import make_network
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 14:
        raise TruncatedPayload(f"{path}: file shorter than the weights header")
    if data[:4] != WEIGHTS_MAGIC:
        raise BadMagic(f"{path}: magic {data[:4]!r} is not {WEIGHTS_MAGIC!r}")
    if data[4] != WEIGHTS_VERSION:
        raise BadVersion(f"{path}: version {data[4]} (expected {WEIGHTS_VERSION})")
    variant = _VARIANT_NAMES.get(data[5])
    head = _HEAD_NAMES.get(data[6])
    if variant is None or head is None:
        raise GridFormatError(f"{path}: unknown variant/head codes")
    channels, = struct.unpack_from("<I", data, 7)
    resblocks = data[11]
    n_layers, = struct.unpack_from("<H", data, 12)
    net = make_network(variant, channels=channels, head=head,
                       resblocks=resblocks if variant == "pc_encoder" else None)
    layers = net.param_layers()
    if len(layers) != n_layers:
        raise GridFormatError(
            f"{path}: {n_layers} layers in file, architecture has {len(layers)}")
    ofs = 14
    for layer in layers:
        if ofs + 10 > len(data):
            raise TruncatedPayload(f"{path}: layer header truncated")
        kind_code, fin, fout, kernel = struct.unpack_from("<BIIB", data, ofs)
        ofs += 10
        expect_kernel = getattr(layer, "kernel", 0)
        if kernel != expect_kernel:
            raise GridFormatError(
                f"{path}: layer kernel {kernel} does not match architecture {expect_kernel}")
        if kind_code != _LAYER_KINDS[kernel]:
            raise GridFormatError(
                f"{path}: layer kind code {kind_code} does not match kernel {kernel}")
        w = layer.weight.value
        b = layer.bias.value
        if (fin, fout) != (w.shape[1], w.shape[0]):
            raise GridFormatError(
                f"{path}: layer shape {(fin, fout)} does not match {w.shape[1::-1]}")
        nw, nb = w.size, b.size
        if ofs + 4 * (nw + nb) > len(data):
            raise TruncatedPayload(f"{path}: layer weights truncated")
        w[...] = np.frombuffer(data, "<f4", nw, ofs).reshape(w.shape)
        ofs += 4 * nw
        b[...] = np.frombuffer(data, "<f4", nb, ofs).reshape(b.shape)
        ofs += 4 * nb
    if ofs != len(data):
        raise GridFormatError(f"{path}: {len(data) - ofs} unexpected trailing bytes")
    return net


# ---------------------------------------------------- reports, clouds

def write_report(path, values: dict) -> None:
    """Flat key=value lines, insertion order."""
    with open(path, "w") as fh:
        fh.write(format_report(values))


def format_report(values: dict) -> str:
    lines = []
    for key, val in values.items():
        if isinstance(val, float):
            lines.append(f"{key}={val:.9g}")
        else:
            lines.append(f"{key}={val}")
    return "\n".join(lines) + "\n"


def read_report(path) -> dict:
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise GridFormatError(f"{path}: bad report line {line!r}")
            key, _, val = line.partition("=")
            out[key.strip()] = val.strip()
    return out


def write_xyz(path, points: np.ndarray) -> None:
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    with open(path, "w") as fh:
        for p in pts:
            fh.write(f"{p[0]:.9g} {p[1]:.9g} {p[2]:.9g}\n")


def read_xyz(path) -> np.ndarray:
    rows = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) < 3:
                raise GridFormatError(f"{path}:{lineno}: point needs 3 coordinates")
            rows.append([float(parts[0]), float(parts[1]), float(parts[2])])
    points = np.asarray(rows, dtype=np.float64).reshape(-1, 3)
    if not np.all(np.isfinite(points)):
        raise NonFiniteValues(f"{path}: point coordinates must be finite")
    return points
