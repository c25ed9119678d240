"""Explainable feature-crossing network for sequential tabular rating."""

import os
import sys

# Each BLAS thread-count variable left unset is set to 1. This runs before NumPy
# loads whenever the package is imported first, as by the ``crossnet`` command.
# ``Model.score`` scores in two processes wherever it may use two CPUs, and two
# scoring processes, each with a multi-thread BLAS, would oversubscribe two CPUs.
# So it forks only while ``ONE_BLAS_THREAD``: each variable reads 1, and NumPy's
# BLAS, which reads them once as NumPy loads, loaded after they did.
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ONE_BLAS_THREAD = all(os.environ.get(v, None if "numpy" in sys.modules else "1") == "1"
                      for v in _BLAS_VARS)
for _var in _BLAS_VARS:
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
