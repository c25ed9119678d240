"""Explainable feature-crossing network for sequential tabular rating."""

from .autodiff import Param, Tensor, backward, grad_check, sgd_step, zero_grads
from .data import (DatasetSplit, FeatureField, SchemaConfig, SequencedSample,
                   build_schema, gen_synthetic_interaction, load_csv, split,
                   write_csv)
from .model import (EvalReport, Model, TrainConfig, auc, evaluate,
                    load_checkpoint, lq_loss, objective, save_checkpoint, train)
from .explain import (CombinationPattern, IndividualExplanation,
                      backtrack_patterns, emit_reports,
                      individual_explanation)
from .baselines import LrModel, ZScoreModel, lr_predict, lr_train, zscore_rate

__all__ = [
    "Param", "Tensor", "backward", "grad_check", "sgd_step", "zero_grads",
    "DatasetSplit", "FeatureField", "SchemaConfig", "SequencedSample",
    "build_schema", "gen_synthetic_interaction", "load_csv", "split",
    "write_csv",
    "EvalReport", "Model", "TrainConfig", "auc", "evaluate",
    "load_checkpoint", "lq_loss", "objective", "save_checkpoint", "train",
    "CombinationPattern", "IndividualExplanation", "backtrack_patterns",
    "emit_reports", "individual_explanation",
    "LrModel", "ZScoreModel", "lr_predict", "lr_train", "zscore_rate",
]
