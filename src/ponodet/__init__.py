"""Dense anchor-based detector training at desk scale.

Per-class anchor clustering, normalized-overlap anchor assignment with
ambiguity-managed labels, an IoU localization loss, automatically learned
class/size balance weights, and a minimal reverse-mode autodiff engine to
train toy predictors on synthetic scenes.
"""

from .geometry import Box, Detection, Offsets, decode, encode, iou, nms
from .anchors import (AnchorGrid, AnchorSet, build_grid, kmeans_anchors,
                      sizes_per_class)
from .assignment import (Assignment, GroundTruth, ams_labels, assign_ao,
                         pono_labels, pred_iou_values, threshold_labels)
from .loss import BalanceWeights, LossReport, balanced_totals, weight_gradients
from .data import GenSpec, Scene, generate, hflip, load_dataset, save_dataset
from .model import PredictorOutput, TabularPredictor, ToyNet, ToyNetConfig
from .train import RunState, TrainConfig, lr_at, run_training, sgd_step, train_iteration
from .evaluation import average_precision, extract_detections, map_eval

__version__ = "0.1.0"

__all__ = [
    "Box", "Detection", "Offsets", "decode", "encode", "iou", "nms",
    "AnchorGrid", "AnchorSet", "build_grid", "kmeans_anchors", "sizes_per_class",
    "Assignment", "GroundTruth", "ams_labels", "assign_ao", "pono_labels",
    "pred_iou_values", "threshold_labels",
    "BalanceWeights", "LossReport", "balanced_totals", "weight_gradients",
    "GenSpec", "Scene", "generate", "hflip", "load_dataset", "save_dataset",
    "PredictorOutput", "TabularPredictor", "ToyNet", "ToyNetConfig",
    "RunState", "TrainConfig", "lr_at", "run_training", "sgd_step",
    "train_iteration",
    "average_precision", "extract_detections", "map_eval",
]
