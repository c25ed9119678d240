"""Explainable feature-crossing network for sequential tabular rating."""

import os

# Each BLAS thread-count variable left unset is set to 1. This runs before NumPy
# loads whenever the package is imported first, as by the ``crossnet`` command.
# ``Model.score`` scores on two threads, and a BLAS on several threads keeps
# idle workers spinning on the same CPUs, which made scoring slower.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .autodiff import Param, Tensor, backward, grad_check, sgd_step, zero_grads
from .data import (DatasetSplit, FeatureField, SchemaConfig, SequencedSample,
                   build_schema, gen_synthetic_interaction, load_csv, split,
                   write_csv)
from .model import (EvalReport, Model, TrainConfig, auc, evaluate,
                    load_checkpoint, lq_loss, objective, save_checkpoint, train)
from .explain import (CombinationPattern, IndividualExplanation,
                      backtrack_patterns, emit_reports,
                      individual_explanation)
from .baselines import LrModel, lr_predict, lr_train, zscore_rate

__all__ = [
    "Param", "Tensor", "backward", "grad_check", "sgd_step", "zero_grads",
    "DatasetSplit", "FeatureField", "SchemaConfig", "SequencedSample",
    "build_schema", "gen_synthetic_interaction", "load_csv", "split",
    "write_csv",
    "EvalReport", "Model", "TrainConfig", "auc", "evaluate",
    "load_checkpoint", "lq_loss", "objective", "save_checkpoint", "train",
    "CombinationPattern", "IndividualExplanation", "backtrack_patterns",
    "emit_reports", "individual_explanation",
    "LrModel", "lr_predict", "lr_train", "zscore_rate",
]
