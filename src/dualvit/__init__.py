"""dualvit: a two-pathway vision transformer backbone, built on a small
reverse-mode autodiff engine, with analytic cost accounting, gradient
checking, toy-scale training, and binary dataset/checkpoint formats.

Set DUALVIT_THREADS to cap BLAS worker threads. BLAS reads its thread count
once, when numpy first loads, so the setting takes effect only when this
package is imported before anything else imports numpy (as the ``dualvit``
command does). An explicit OMP/OPENBLAS/MKL_NUM_THREADS wins over it.
"""

import os

# Must run before the imports below load numpy.
if "DUALVIT_THREADS" in os.environ:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, os.environ["DUALVIT_THREADS"])

from .errors import (ConfigError, ContractError, DimensionError, DualVitError,
                     FormatError, InputError)
from .model import ModelConfig, StageSpec, build_model, preset_config
from .tensor import Tensor

__all__ = [
    "ConfigError", "ContractError", "DimensionError", "DualVitError",
    "FormatError", "InputError", "ModelConfig", "StageSpec", "Tensor",
    "build_model", "preset_config",
]

__version__ = "0.1.0"
