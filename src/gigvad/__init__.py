"""Weakly-supervised video anomaly detection head on synthetic features.

A global max-pooled pattern vector gates the feature channels, cosine
relevance to that vector picks the top-k spatial cells per segment, a top-p
consensus turns segment scores into video scores, and four BCE-style terms
train the two heads from video-level labels alone. Inference produces
smoothed frame-level scores evaluated by ROC AUC and class-wise F1.
"""

from .backbone import SIGNATURE_OFFSET, synthetic_backbone
from .checkpoint import load_checkpoint, save_checkpoint
from .config import Config, format_config, load_config, parse_config
from .data import (AnomalySpan, DatasetSpec, VideoSpec, default_test_spec,
                   default_train_spec, frame_truth, generate_dataset,
                   read_dataset, write_dataset)
from .errors import (CheckpointError, ConfigError, DatasetError, DimensionError,
                     GigVadError, MetricError, NumericError)
from .gig import (FeatureMaps, HeadParams, VideoLabels, enhance,
                  global_pattern, video_level_loss, video_overall_score)
from .inference import (EvalReport, FrameScoreSeries, classify_frames,
                        evaluate_dataset, gaussian_smooth, report_text,
                        score_video, smooth_series, window_starts)
from .losses import (LossBreakdown, multiclass_loss, segment_overall_loss,
                     sparsity_loss, total_loss)
from .metrics import f1_metrics, roc_auc
from .model import HeadOutputs, run_head, video_loss
from .ops import GradCheckReport, dropout, grad_check
from .spatial import (ConsensusScore, consensus, relation_scores, select_topk,
                      segment_patterns, segment_scores)
from .tensor import GradTape, Tensor
from .training import (TrainResult, adagrad_step, hflip_augment,
                       sample_segments, train)

__version__ = "0.1.0"

__all__ = [
    "AnomalySpan", "CheckpointError", "Config", "ConfigError", "ConsensusScore",
    "DatasetError", "DatasetSpec", "DimensionError", "EvalReport",
    "FeatureMaps", "FrameScoreSeries", "GigVadError", "GradCheckReport",
    "GradTape", "HeadOutputs", "HeadParams", "LossBreakdown", "MetricError",
    "NumericError", "SIGNATURE_OFFSET", "Tensor", "TrainResult",
    "VideoLabels", "VideoSpec", "adagrad_step", "classify_frames", "consensus",
    "default_test_spec", "default_train_spec", "dropout", "enhance",
    "evaluate_dataset", "f1_metrics", "format_config", "frame_truth",
    "gaussian_smooth", "generate_dataset", "global_pattern", "grad_check",
    "hflip_augment", "load_checkpoint", "load_config", "multiclass_loss",
    "parse_config", "read_dataset", "relation_scores", "report_text",
    "roc_auc", "run_head", "sample_segments", "save_checkpoint", "score_video",
    "segment_overall_loss", "segment_patterns", "segment_scores",
    "select_topk", "smooth_series", "sparsity_loss", "synthetic_backbone",
    "total_loss", "train", "video_level_loss", "video_loss",
    "video_overall_score", "window_starts", "write_dataset",
]
