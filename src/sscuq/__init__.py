"""Uncertainty-aware voxel scene completion tools.

Two core capabilities, plus everything needed to verify them at desk
scale:

* propagation of per-pixel depth uncertainty into a probabilistic voxel
  occupancy grid via exact ray/voxel traversal;
* hierarchical conformal prediction for class-imbalanced voxel
  classification: an occupancy gate on a KL-based score with per-class
  recall guarantees, then per-class prediction sets whose error rates
  compose to the requested class-conditional coverage.

A deterministic synthetic-scene harness (label grids, rendered noisy
depths, miscalibrated softmax surrogates) makes every statistical
guarantee testable without any trained network.
"""

from .grids import (
    BinaryOccupancyGrid,
    CameraIntrinsics,
    DepthEstimate,
    GridGeometry,
    GroundTruthDepth,
    LabelGrid,
    ProbOccupancyGrid,
    SoftmaxGrid,
    ValidationError,
)
from .container import ContainerError, FormatError, TruncationError, read_grid, write_grid
from .depth import KlLossReport, gaussian_cdf_interval, kl_loss
from .projection import (
    RaySegment,
    build_binary_grid,
    build_prob_grid,
    pixel_to_point,
    traverse_ray,
)
from .conformal import (
    CalibrationSet,
    CccpModel,
    DegeneracyWarning,
    HcpConfig,
    HcpModel,
    ScpModel,
    cccp_calibrate,
    class_quantiles,
    conformal_quantile,
    hcp_calibrate,
    hcp_predict_batch,
    load_model,
    save_model,
    score_class,
    score_kl,
    score_occupied,
    scp_calibrate,
    split_alpha,
)
from .metrics import (
    GeometryMetrics,
    MetricsReport,
    SweepRow,
    avg_size,
    cov_gap,
    geometry_metrics_from_masks,
    occupied_recall_flat,
    recall_iou_sweep,
    semantic_miou_flat,
)
from .synth import (
    ClassifierSpec,
    GenerationError,
    ObjectTemplate,
    SceneSpec,
    classify_labels,
    default_classifier_spec,
    default_geometry,
    default_intrinsics,
    default_scene_spec,
    draw_labels,
    generate_scene,
    render_depth,
    synth_classifier,
)
from .pipeline import (
    ConfigError,
    PipelineConfig,
    run_calibrate,
    run_evaluate,
    run_project,
    run_simulate,
    run_sweep,
    split_mask,
)

__version__ = "0.1.0"
