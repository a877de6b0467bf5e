"""Mesh evaluation: sampled Chamfer/F1, normal agreement, edge metrics,
triangle angle quality.

All comparisons run on uniform area-weighted surface samples carrying
face normals. Chamfer distance uses the squared-distance symmetric sum
(mean of squared nearest-neighbor distances in both directions, added).
Normals are compared unoriented, via the absolute dot product, since
flag-based meshes may be non-orientable.

Default thresholds, recorded in every report: F1 distance tau is
0.003 x the ground-truth bounding-box diagonal; edge samples are points
with a neighbor within 0.01 x diagonal whose normal deviates by more
than 30 degrees. When either mesh has no edge samples the edge Chamfer
is reported as inf and edge F1 as 0.
"""

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import EmptyMesh
from .mesh import (EdgeTopologyStats, TriMesh, edge_topology_stats,
                   sample_triangles, triangle_areas)
from .rng import derive_seed, rng_for

F1_TAU_FACTOR = 0.003
EDGE_RADIUS_FACTOR = 0.01
EDGE_ANGLE_DEG = 30.0
IN_THRESHOLDS_DEG = (5.0, 30.0, 80.0)
SA_THRESHOLDS_DEG = (10.0, 20.0, 30.0)
CD_TABLE_SCALE = 1e5


@dataclass
class SampledSurface:
    points: np.ndarray   # (N, 3)
    normals: np.ndarray  # (N, 3) unit
    faces: np.ndarray    # (N,) source triangle index

    def __len__(self) -> int:
        return len(self.points)


def sample_surface(mesh: TriMesh, count: int, seed: int = 0) -> SampledSurface:
    """Uniform area-weighted samples with face normals."""
    fi, points = sample_triangles(mesh, count, rng_for(seed, "surface-samples"))
    fn = np.cross(mesh.vertices[mesh.tris[:, 1]] - mesh.vertices[mesh.tris[:, 0]],
                  mesh.vertices[mesh.tris[:, 2]] - mesh.vertices[mesh.tris[:, 0]])
    norms = np.linalg.norm(fn, axis=1, keepdims=True)
    fn = np.divide(fn, norms, out=np.zeros_like(fn), where=norms > 0)
    return SampledSurface(points, fn[fi], fi)


def _nn(a: np.ndarray, b: np.ndarray):
    """Nearest neighbor in b for each point of a: (distances, indices)."""
    return cKDTree(b).query(a)


def chamfer_f1(a: SampledSurface, b: SampledSurface, tau: float):
    """(cd, f1): squared-sum Chamfer and F-score at distance tau."""
    da, _ = _nn(a.points, b.points)
    db, _ = _nn(b.points, a.points)
    cd = float(np.mean(da ** 2) + np.mean(db ** 2))
    recall = float(np.mean(da <= tau))
    precision = float(np.mean(db <= tau))
    if precision + recall == 0:
        return cd, 0.0
    return cd, 2.0 * precision * recall / (precision + recall)


def normal_consistency(a: SampledSurface, b: SampledSurface,
                       thresholds_deg=IN_THRESHOLDS_DEG):
    """(nc, in_pct_a, in_pct_b): unoriented normal agreement at nearest
    neighbors, plus per-direction inaccurate-normal percentages."""
    _, ia = _nn(a.points, b.points)
    _, ib = _nn(b.points, a.points)
    dot_a = np.abs(np.einsum("ij,ij->i", a.normals, b.normals[ia]))
    dot_b = np.abs(np.einsum("ij,ij->i", b.normals, a.normals[ib]))
    nc = 0.5 * (float(dot_a.mean()) + float(dot_b.mean()))
    ang_a = np.degrees(np.arccos(np.clip(dot_a, 0.0, 1.0)))
    ang_b = np.degrees(np.arccos(np.clip(dot_b, 0.0, 1.0)))
    in_a = {t: 100.0 * float(np.mean(ang_a > t)) for t in thresholds_deg}
    in_b = {t: 100.0 * float(np.mean(ang_b > t)) for t in thresholds_deg}
    return nc, in_a, in_b


def edge_sample_mask(s: SampledSurface, radius: float,
                     angle_deg: float = EDGE_ANGLE_DEG) -> np.ndarray:
    """True where some other sample within radius disagrees in normal
    direction by more than angle_deg (unoriented)."""
    cos_thresh = np.cos(np.radians(angle_deg))
    tree = cKDTree(s.points)
    pairs = tree.query_pairs(radius, output_type="ndarray")
    mask = np.zeros(len(s), dtype=bool)
    if len(pairs):
        dots = np.abs(np.einsum("ij,ij->i",
                                s.normals[pairs[:, 0]], s.normals[pairs[:, 1]]))
        sharp = dots < cos_thresh
        mask[pairs[sharp, 0]] = True
        mask[pairs[sharp, 1]] = True
    return mask


def edge_metrics(a: SampledSurface, b: SampledSurface, tau: float,
                 radius: float, angle_deg: float = EDGE_ANGLE_DEG):
    """(ecd, ef1): Chamfer/F1 restricted to edge samples.

    An empty edge set on either side yields (inf, 0).
    """
    ma = edge_sample_mask(a, radius, angle_deg)
    mb = edge_sample_mask(b, radius, angle_deg)
    if not ma.any() or not mb.any():
        return float("inf"), 0.0
    ea = SampledSurface(a.points[ma], a.normals[ma], a.faces[ma])
    eb = SampledSurface(b.points[mb], b.normals[mb], b.faces[mb])
    return chamfer_f1(ea, eb, tau)


def small_angles(mesh: TriMesh, thresholds_deg=SA_THRESHOLDS_DEG):
    """(sa_pct, degenerate_count): percentage of triangle interior
    angles below each threshold; zero-area triangles count as three 0
    degree angles and are also tallied separately."""
    if len(mesh.tris) == 0:
        raise EmptyMesh("cannot measure angles of an empty mesh")
    v = mesh.vertices[mesh.tris]
    angles = np.empty((len(mesh.tris), 3))
    for i in range(3):
        e1 = v[:, (i + 1) % 3] - v[:, i]
        e2 = v[:, (i + 2) % 3] - v[:, i]
        n1 = np.linalg.norm(e1, axis=1)
        n2 = np.linalg.norm(e2, axis=1)
        denom = n1 * n2
        cosang = np.divide(np.einsum("ij,ij->i", e1, e2), denom,
                           out=np.ones(len(denom)), where=denom > 0)
        angles[:, i] = np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))
    degenerate = triangle_areas(mesh.vertices, mesh.tris) == 0
    angles[degenerate] = 0.0
    flat = angles.ravel()
    sa = {t: 100.0 * float(np.mean(flat < t)) for t in thresholds_deg}
    return sa, int(degenerate.sum())


def bbox_diagonal(points: np.ndarray) -> float:
    return float(np.linalg.norm(points.max(axis=0) - points.min(axis=0)))


def bbox_max_extent(points: np.ndarray) -> float:
    return float((points.max(axis=0) - points.min(axis=0)).max())


@dataclass
class MetricsReport:
    cd: float
    f1: float
    nc: float
    ecd: float
    ef1: float
    cd_scaled: float                 # unit-cube normalized cd x 1e5
    in_pct_gt: dict
    in_pct_pred: dict
    sa_pct: dict
    degenerate_tris: int
    v_count: int
    t_count: int
    topology: EdgeTopologyStats
    tau: float
    edge_radius: float
    edge_angle_deg: float = EDGE_ANGLE_DEG
    norm_basis: str = "gt bbox max extent to unit cube"

    def as_dict(self) -> dict:
        out = {
            "cd": self.cd, "f1": self.f1, "nc": self.nc,
            "ecd": self.ecd, "ef1": self.ef1, "cd_scaled": self.cd_scaled,
            "degenerate_tris": self.degenerate_tris,
            "v_count": self.v_count, "t_count": self.t_count,
            "tau": self.tau, "edge_radius": self.edge_radius,
            "edge_angle_deg": self.edge_angle_deg,
            "norm_basis": self.norm_basis,
            "boundary_edges": self.topology.boundary,
            "nonmanifold3_edges": self.topology.nonmanifold3,
            "nonmanifold4_edges": self.topology.nonmanifold4,
        }
        for t, p in self.in_pct_gt.items():
            out[f"in_gt_{t:g}deg"] = p
        for t, p in self.in_pct_pred.items():
            out[f"in_pred_{t:g}deg"] = p
        for t, p in self.sa_pct.items():
            out[f"sa_{t:g}deg"] = p
        return out


def evaluate_mesh(pred: TriMesh, gt: TriMesh, samples: int = 20000,
                  seed: int = 0) -> MetricsReport:
    """Full report for a predicted mesh against a ground-truth mesh."""
    # one shared sampling seed so evaluating a mesh against itself is
    # exactly (cd 0, f1 1) rather than sampling noise
    gs = sample_surface(gt, samples, derive_seed(seed, "eval-samples"))
    ps = sample_surface(pred, samples, derive_seed(seed, "eval-samples"))
    diag = bbox_diagonal(gs.points)
    tau = F1_TAU_FACTOR * diag
    radius = EDGE_RADIUS_FACTOR * diag
    cd, f1 = chamfer_f1(gs, ps, tau)
    nc, in_gt, in_pred = normal_consistency(gs, ps)
    ecd, ef1 = edge_metrics(gs, ps, tau, radius)
    sa, degen = small_angles(pred)
    extent = bbox_max_extent(gs.points)
    cd_scaled = cd / (extent * extent) * CD_TABLE_SCALE if extent > 0 else float("inf")
    return MetricsReport(
        cd=cd, f1=f1, nc=nc, ecd=ecd, ef1=ef1, cd_scaled=cd_scaled,
        in_pct_gt=in_gt, in_pct_pred=in_pred, sa_pct=sa,
        degenerate_tris=degen, v_count=len(pred.vertices),
        t_count=len(pred.tris), topology=edge_topology_stats(pred),
        tau=tau, edge_radius=radius)
