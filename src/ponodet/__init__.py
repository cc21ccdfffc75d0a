"""Dense anchor-based detector training at desk scale.

Per-class anchor clustering, normalized-overlap anchor assignment with
ambiguity-managed labels, an IoU localization loss, automatically learned
class/size balance weights, and a minimal reverse-mode autodiff engine to
train a toy convnet on synthetic scenes.
"""

from .geometry import Detections, GroundTruth, nms
from .anchors import (AnchorGrid, AnchorSet, build_grid, kmeans_anchors,
                      sizes_per_class)
from .assignment import Assignment, ams_labels, assign_ao, pred_iou_values
from .loss import LossReport, initial_balance
from .data import GenSpec, Scene, generate, hflip, load_dataset, save_dataset
from .model import PredictorOutput, ToyNet, ToyNetConfig
from .train import RunState, TrainConfig, lr_at, run_training, sgd_step, train_iteration
from .evaluation import extract_detections, map_eval

__version__ = "0.1.0"

__all__ = [
    "Detections", "GroundTruth", "nms",
    "AnchorGrid", "AnchorSet", "build_grid", "kmeans_anchors", "sizes_per_class",
    "Assignment", "ams_labels", "assign_ao", "pred_iou_values",
    "LossReport", "initial_balance",
    "GenSpec", "Scene", "generate", "hflip", "load_dataset", "save_dataset",
    "PredictorOutput", "ToyNet", "ToyNetConfig",
    "RunState", "TrainConfig", "lr_at", "run_training", "sgd_step",
    "train_iteration",
    "extract_detections", "map_eval",
]
