"""Mesh U-Net prediction of task contrast maps from functional connectomes,
with a reconstructive-contrastive training objective and subject-
fingerprinting evaluation, on synthetic cohorts at desk scale."""

from .autodiff import Param, Tensor, adam_step, backward, grad_check
from .connectome import GeneratorConfig, generate_cohort
from .icosphere import Icosphere, build_hierarchy, icosphere
from .model import BrainSurfCNN, ModelConfig, build_model, predict_ensemble
from .rcloss import Margins, init_margins, rc_loss, schedule_margins

__version__ = "0.1.0"

__all__ = [
    "BrainSurfCNN",
    "GeneratorConfig",
    "Icosphere",
    "Margins",
    "ModelConfig",
    "Param",
    "Tensor",
    "adam_step",
    "backward",
    "build_hierarchy",
    "build_model",
    "generate_cohort",
    "grad_check",
    "icosphere",
    "init_margins",
    "predict_ensemble",
    "rc_loss",
    "schedule_margins",
    "__version__",
]
