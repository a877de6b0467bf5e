"""File formats: OBJ/PLY meshes, NDCGRID grids, NDCW weights, reports.

Each binary format has one header struct, and NDCGRID one payload table
(_PAYLOADS), that its reader and its writer share.

NDCGRID header "<4sB3IB": magic "NDCG", version 1, u32 dims m, n, k and
a payload code. The payload is one or three blocks, each stored with its
first index fastest (x, then y, then z):

  code  stored  blocks          object
  0     f32     vertices        ScalarGrid (occupancy stores its cell
                                values anchored at min corners)
  1     u8      vertices        SignGrid / vertex masks (1 = inside)
  2     f32     (3,) + cells    VertexOffsetGrid, components contiguous
  3     u8      x, y, z edges   boolean EdgeField
  4     f32     x, y, z edges   real EdgeField, e.g. crossing t

NDCW header "<4sBBBIBH": magic "NDCW", version 1, variant code, head
code, u32 channels, u8 residual block count, u16 layer count. Each
parametric layer follows as a header "<BIIB" (kind code, u32 in, u32
out, kernel), f32 weights in (out, in, kz, ky, kx) order and f32 biases.
Non-finite weights raise NonFiniteValues on save and on load.

Precision: OBJ vertices and .xyz points are text with 9 significant
digits; NDCGRID reals and PLY vertices are float32. Readers return
float64 arrays of those stored values, and bool for u8 payloads.
Training learns from what `gen` stored, so it sees the same numbers that
inference and meshing read.
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

_GRID_HEADER = struct.Struct("<4sB3IB")
_WEIGHTS_HEADER = struct.Struct("<4sBBBIBH")
_LAYER_HEADER = struct.Struct("<BIIB")

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
    faces = mesh.faces
    vertex_rows = "v %.9g %.9g %.9g\n" * len(mesh.vertices)
    face_rows = ("f" + " %d" * faces.shape[1] + "\n") * len(faces)
    with open(path, "w") as fh:
        fh.write(vertex_rows % tuple(mesh.vertices.ravel().tolist()))
        fh.write(face_rows % tuple((faces + 1).ravel().tolist()))


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
    """Coerce mixed faces, in order: quads split along the (0, 2) diagonal."""
    sizes = np.fromiter(map(len, faces), dtype=np.int64, count=len(faces))
    if np.any((sizes < 3) | (sizes > 4)):
        raise ShapeError("faces must have 3 or 4 vertices")
    flat = np.concatenate(faces).astype(np.int64) if faces else np.empty(0, np.int64)
    # triangle j of a face joins its corners 0, j + 1 and j + 2
    ntri = sizes - 2
    face = np.repeat(np.arange(len(faces)), ntri)
    j = np.arange(len(face)) - np.repeat(np.cumsum(ntri) - ntri, ntri)
    first = (np.cumsum(sizes) - sizes)[face]
    corners = np.stack([np.zeros_like(j), j + 1, j + 2], axis=1)
    return TriMesh(vertices, flat[first[:, None] + corners])


def as_mesh(vertices: np.ndarray, faces: list):
    """QuadMesh if every face is a quad (and there is one), else TriMesh."""
    if faces and all(len(f) == 4 for f in faces):
        return QuadMesh(vertices, np.array(faces, dtype=np.int64))
    return as_tri_mesh(vertices, faces)


# ---------------------------------------------------------------- PLY

def write_ply(path, mesh: QuadMesh | TriMesh) -> None:
    """Binary little-endian PLY with positions and faces only."""
    faces = mesh.faces
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
        rows = np.empty(len(faces), dtype=[("n", "u1"), ("i", "<i4", (n,))])
        rows["n"] = n
        rows["i"] = faces
        fh.write(rows.tobytes())


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
    # each count byte locates the next record, so one pass over the
    # counts finds every record; the indices are then read with one
    # gather per vertex count
    starts, ofs = [], need
    for _ in range(nf):
        if ofs >= len(body):
            raise TruncatedPayload("ply face data truncated")
        starts.append(ofs)
        ofs += 1 + 4 * body[ofs]
    if ofs > len(body):
        raise TruncatedPayload("ply face data truncated")
    data = np.frombuffer(body, dtype=np.uint8)
    starts = np.array(starts, dtype=np.int64)
    counts = data[starts]
    faces = [None] * nf
    for n in np.unique(counts).tolist():
        at = np.flatnonzero(counts == n)
        idx = data[(starts[at] + 1)[:, None] + np.arange(4 * n)].view("<i4").astype(np.int64)
        for i, face in zip(at.tolist(), idx):
            faces[i] = face
    return verts, faces


def write_mesh(path, mesh) -> None:
    """Dispatch on extension: .obj or .ply."""
    if str(path).lower().endswith(".ply"):
        write_ply(path, mesh)
    else:
        write_obj(path, mesh)


def read_faces(path):
    """(vertices, faces) of a .ply file or, for any other extension, an OBJ."""
    if str(path).lower().endswith(".ply"):
        return read_ply(path)
    return read_obj(path)[:2]


def read_mesh(path):
    """TriMesh or QuadMesh depending on the face types in the file."""
    return as_mesh(*read_faces(path))


# ------------------------------------------------------------ NDCGRID

def _edge_shapes(dims: GridDims) -> list:
    return [dims.edge_shape(a) for a in range(3)]


# code: (stored dtype, block shapes of dims d, the object of d, kind and blocks b)
_PAYLOADS = {
    PAYLOAD_SCALAR: ("<f4", lambda d: [d.vertex_shape],
                     lambda d, kind, b: ScalarGrid(d, kind, *b)),
    PAYLOAD_SIGNS: ("u1", lambda d: [d.vertex_shape], lambda d, kind, b: SignGrid(d, *b)),
    PAYLOAD_OFFSETS: ("<f4", lambda d: [(3,) + d.cell_shape],
                      lambda d, kind, b: VertexOffsetGrid(d, np.moveaxis(b[0], 0, 3))),
    PAYLOAD_FLAGS: ("u1", _edge_shapes, lambda d, kind, b: EdgeField(d, *b)),
    PAYLOAD_EDGE_REALS: ("<f4", _edge_shapes, lambda d, kind, b: EdgeField(d, *b)),
}


def _grid_payload(obj) -> tuple:
    """(payload code, blocks) of a grid object."""
    if isinstance(obj, ScalarGrid):
        return PAYLOAD_SCALAR, [obj.values]
    if isinstance(obj, SignGrid):
        return PAYLOAD_SIGNS, [obj.inside]
    if isinstance(obj, VertexOffsetGrid):
        return PAYLOAD_OFFSETS, [np.moveaxis(obj.offsets, 3, 0)]
    if isinstance(obj, EdgeField):
        blocks = [np.asarray(a) for a in obj.axes]
        return (PAYLOAD_FLAGS if blocks[0].dtype == bool else PAYLOAD_EDGE_REALS), blocks
    raise TypeError(f"cannot serialize {type(obj).__name__} as a grid")


def write_grid(path, obj) -> None:
    code, blocks = _grid_payload(obj)
    dtype = _PAYLOADS[code][0]
    with open(path, "wb") as fh:
        fh.write(_GRID_HEADER.pack(GRID_MAGIC, GRID_VERSION, *obj.dims.vertex_shape, code))
        for block in blocks:
            fh.write(block.astype(dtype).tobytes(order="F"))


def read_grid(path, kind: GridKind = GridKind.SDF):
    """Read any NDCGRID file to its typed object.

    Scalar payloads need the caller to say what the values mean, since
    the format stores numbers, not semantics; `kind` applies only to
    payload code 0.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _GRID_HEADER.size:
        raise TruncatedPayload(f"{path}: file shorter than any valid header")
    magic, version, m, n, k, code = _GRID_HEADER.unpack_from(data)
    if magic != GRID_MAGIC:
        raise BadMagic(f"{path}: magic {magic!r} is not {GRID_MAGIC!r}")
    if version != GRID_VERSION:
        raise BadVersion(f"{path}: version {version} (expected {GRID_VERSION})")
    dims = GridDims(m, n, k)
    if code not in _PAYLOADS:
        raise GridFormatError(f"{path}: unknown payload code {code}")
    dtype, shapes_of, build = _PAYLOADS[code]
    shapes = shapes_of(dims)
    sizes = [math.prod(shape) for shape in shapes]
    need = sum(sizes) * np.dtype(dtype).itemsize
    have = len(data) - _GRID_HEADER.size
    if have < need:
        raise TruncatedPayload(f"{path}: payload needs {need} bytes, has {have}")
    if have > need:
        raise GridFormatError(f"{path}: {have - need} unexpected trailing bytes")
    values = np.frombuffer(data, dtype, sum(sizes), _GRID_HEADER.size)
    values = values.astype(bool if dtype == "u1" else np.float64)
    blocks = [block.reshape(shape, order="F")
              for block, shape in zip(np.split(values, np.cumsum(sizes)[:-1]), shapes)]
    return build(dims, kind, blocks)


# --------------------------------------------------------------- NDCW

def _check_finite(path, index: int, layer) -> None:
    if not (np.isfinite(layer.weight.value).all() and np.isfinite(layer.bias.value).all()):
        raise NonFiniteValues(f"{path}: layer {index} holds non-finite weights")


def save_weights(path, net) -> None:
    layers = net.param_layers()
    for index, layer in enumerate(layers):
        _check_finite(path, index, layer)
    with open(path, "wb") as fh:
        fh.write(_WEIGHTS_HEADER.pack(
            WEIGHTS_MAGIC, WEIGHTS_VERSION, _VARIANT_CODES[net.variant],
            _HEAD_CODES[net.head], net.channels, getattr(net, "resblock_count", 0),
            len(layers)))
        for layer in layers:
            w = layer.weight.value
            kernel = getattr(layer, "kernel", 0)
            fh.write(_LAYER_HEADER.pack(_LAYER_KINDS[kernel], w.shape[1], w.shape[0], kernel))
            fh.write(np.ascontiguousarray(w, dtype="<f4").tobytes())
            fh.write(np.ascontiguousarray(layer.bias.value, dtype="<f4").tobytes())


def load_weights(path):
    from .nn import make_network
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _WEIGHTS_HEADER.size:
        raise TruncatedPayload(f"{path}: file shorter than the weights header")
    (magic, version, variant_code, head_code, channels, resblocks,
     n_layers) = _WEIGHTS_HEADER.unpack_from(data)
    if magic != WEIGHTS_MAGIC:
        raise BadMagic(f"{path}: magic {magic!r} is not {WEIGHTS_MAGIC!r}")
    if version != WEIGHTS_VERSION:
        raise BadVersion(f"{path}: version {version} (expected {WEIGHTS_VERSION})")
    variant = _VARIANT_NAMES.get(variant_code)
    head = _HEAD_NAMES.get(head_code)
    if variant is None or head is None:
        raise GridFormatError(f"{path}: unknown variant/head codes")
    net = make_network(variant, channels=channels, head=head,
                       resblocks=resblocks if variant == "pc_encoder" else None)
    layers = net.param_layers()
    if len(layers) != n_layers:
        raise GridFormatError(
            f"{path}: {n_layers} layers in file, architecture has {len(layers)}")
    ofs = _WEIGHTS_HEADER.size
    for index, layer in enumerate(layers):
        if ofs + _LAYER_HEADER.size > len(data):
            raise TruncatedPayload(f"{path}: layer header truncated")
        kind_code, fin, fout, kernel = _LAYER_HEADER.unpack_from(data, ofs)
        ofs += _LAYER_HEADER.size
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
        _check_finite(path, index, layer)
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
    rows = "%.9g %.9g %.9g\n" * len(pts)
    with open(path, "w") as fh:
        fh.write(rows % tuple(pts.ravel().tolist()))


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
