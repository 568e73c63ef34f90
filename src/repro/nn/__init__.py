"""NumPy autograd substrate replacing PyTorch for the IMCAT reproduction.

Public surface:

- :class:`Tensor` plus tensor factories (:func:`zeros`, :func:`ones`,
  :func:`concat`, :func:`stack`, :func:`where`) and the grad-mode
  contexts (:class:`no_grad`, :class:`enable_grad`,
  :class:`set_grad_enabled`);
- correctness tooling: the numeric sanitizer (:class:`detect_anomaly`,
  raising :class:`NumericAnomalyError` at the op creating a NaN/Inf)
  and finite-difference :func:`gradcheck`;
- :mod:`repro.nn.functional` (softmax, InfoNCE, BPR, segment means, …);
- module system (:class:`Module`, :class:`Parameter`) and layers
  (:class:`Linear`, :class:`Embedding`, :class:`MLP`, …);
- optimisers (:class:`Adam`, :class:`SGD`);
- sparse graph operators (:func:`sparse_matmul`,
  :func:`normalized_bipartite_adjacency`, …).

The grad mode and the anomaly mode are per-thread: a serving thread
inside ``no_grad`` never switches recording off for a training thread,
and every new thread starts with recording on and the sanitizer off.
"""

from . import functional
from .gradcheck import GradcheckError, gradcheck
from .init import normal, uniform, xavier_normal, xavier_uniform
from .layers import (
    MLP,
    Dropout,
    Embedding,
    LeakyReLU,
    Linear,
    ProjectionHead,
    ReLU,
    Sequential,
    Sigmoid,
)
from .module import Module, Parameter
from .optim import SGD, Adam, Optimizer
from .schedulers import (
    CosineAnnealing,
    Scheduler,
    StepDecay,
    WarmupLinear,
    clip_grad_norm,
)
from .sparse import (
    build_interaction_matrix,
    drop_edges,
    drop_nodes,
    normalized_bipartite_adjacency,
    random_walk_edges,
    row_normalize,
    sparse_matmul,
    symmetric_normalize,
)
from .tensor import (
    NumericAnomalyError,
    Tensor,
    as_tensor,
    concat,
    detect_anomaly,
    enable_grad,
    is_anomaly_enabled,
    is_grad_enabled,
    no_grad,
    ones,
    set_grad_enabled,
    stack,
    where,
    zeros,
)

__all__ = [
    "Adam",
    "CosineAnnealing",
    "Dropout",
    "Embedding",
    "GradcheckError",
    "LeakyReLU",
    "Linear",
    "MLP",
    "Module",
    "NumericAnomalyError",
    "Optimizer",
    "Parameter",
    "ProjectionHead",
    "ReLU",
    "SGD",
    "Scheduler",
    "Sequential",
    "Sigmoid",
    "StepDecay",
    "Tensor",
    "WarmupLinear",
    "as_tensor",
    "build_interaction_matrix",
    "clip_grad_norm",
    "concat",
    "detect_anomaly",
    "drop_edges",
    "drop_nodes",
    "enable_grad",
    "functional",
    "gradcheck",
    "is_anomaly_enabled",
    "is_grad_enabled",
    "no_grad",
    "normal",
    "normalized_bipartite_adjacency",
    "ones",
    "random_walk_edges",
    "row_normalize",
    "set_grad_enabled",
    "sparse_matmul",
    "stack",
    "symmetric_normalize",
    "uniform",
    "where",
    "xavier_normal",
    "xavier_uniform",
    "zeros",
]
