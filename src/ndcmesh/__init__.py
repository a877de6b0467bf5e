"""Dual contouring on regular grids: classical, learned, and unsigned.

The package covers the full desk-scale pipeline: scalar/sign/edge grid
containers, QEF solves, marching cubes and classical dual contouring
baselines, sign- and flag-driven mesh extraction with predicted vertex
offsets, a small self-contained training stack (3D convnets and a
point-cloud encoder, written on numpy), ground-truth generation from
CSG scenes or meshes, and the evaluation metric suite.
"""

from . import errors, fileio
from .csg import (Box, CsgShape, Cylinder, Intersect, Sphere, Subtract,
                  Union, csg_normal_fn, csg_sdf_eval, random_scene)
from .datagen import (TrainingSample, augment_sample, build_masks,
                      cloud_active_cells, make_training_sample,
                      pseudo_gt_vertices, sample_csg_grid, sample_point_cloud)
from .dc import dc_extract, dc_fields
from .grids import (EdgeField, GridDims, GridKind, MaskGrids, ScalarGrid,
                    SignGrid, VertexOffsetGrid, edge_crossing_normals,
                    edge_crossings_linear, signs_from_scalar, xor_flags)
from .mc import mc_extract
from .mesh import (EdgeTopologyStats, QuadMesh, TriMesh, edge_topology_stats,
                   split_quads)
from .metrics import (MetricsReport, SampledSurface, chamfer_f1,
                      edge_metrics, evaluate_mesh, normal_consistency,
                      sample_surface, small_angles)
from .ndc import close_holes, ndc_extract, undc_extract
from .nn import TrainConfig, make_network, train_network
from .qef import PlaneConstraint, qef_objective, qef_solve, qef_solve_batch
from .rng import derive_seed, rng_for
from .transforms import (NUM_TRANSFORMS, inverse_transform_id, is_rotation,
                         transform_points)

__version__ = "0.1.0"

__all__ = [
    "Box", "CsgShape", "Cylinder", "EdgeField", "EdgeTopologyStats",
    "GridDims", "GridKind", "Intersect", "MaskGrids", "MetricsReport",
    "NUM_TRANSFORMS", "PlaneConstraint", "QuadMesh",
    "SampledSurface", "ScalarGrid", "SignGrid", "Sphere", "Subtract",
    "TrainConfig", "TrainingSample", "TriMesh", "Union", "VertexOffsetGrid",
    "augment_sample", "build_masks", "chamfer_f1", "cloud_active_cells",
    "close_holes", "csg_normal_fn", "csg_sdf_eval", "dc_extract", "dc_fields",
    "derive_seed", "edge_crossing_normals", "edge_crossings_linear",
    "edge_metrics", "edge_topology_stats", "errors", "evaluate_mesh",
    "fileio", "inverse_transform_id", "is_rotation", "make_network",
    "make_training_sample", "mc_extract", "ndc_extract",
    "normal_consistency", "pseudo_gt_vertices", "qef_objective", "qef_solve",
    "qef_solve_batch", "random_scene", "rng_for", "sample_csg_grid",
    "sample_point_cloud", "sample_surface", "signs_from_scalar",
    "small_angles", "split_quads", "train_network", "transform_points",
    "undc_extract", "xor_flags",
]
