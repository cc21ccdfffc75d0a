"""Dense anchor-based detector training at desk scale.

Per-class anchor clustering, normalized-overlap anchor assignment with
ambiguity-managed labels, an IoU localization loss, automatically learned
class/size balance weights, and a minimal reverse-mode autodiff engine to
train a toy convnet on synthetic scenes.
"""

__version__ = "0.1.0"
