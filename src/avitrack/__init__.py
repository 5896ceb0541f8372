"""Multi-view 3D bird tracking with landmark-based match outlier rejection."""

from .camera import CameraModel, project, projection_matrix
from .matching import (
    Correspondence,
    DetectionTable,
    FeatureMatch,
    Keypoint,
    cluster_correspondences,
    knn_match,
    reject_by_landmark,
)
from .reconstruction import ObservationTable, reconstruct_frame
from .synthworld import DatasetBundle, SceneConfig, generate, truth_labels
from .tracking import MultiObjectTracker, TrackerConfig
from .voronoi import BoundedVoronoi, LandmarkSet, build_bounded_diagram, nearest_landmark

__version__ = "0.1.0"

__all__ = [
    "BoundedVoronoi",
    "CameraModel",
    "Correspondence",
    "DatasetBundle",
    "DetectionTable",
    "FeatureMatch",
    "Keypoint",
    "LandmarkSet",
    "MultiObjectTracker",
    "ObservationTable",
    "SceneConfig",
    "TrackerConfig",
    "build_bounded_diagram",
    "cluster_correspondences",
    "generate",
    "knn_match",
    "nearest_landmark",
    "project",
    "projection_matrix",
    "reconstruct_frame",
    "reject_by_landmark",
    "truth_labels",
]
