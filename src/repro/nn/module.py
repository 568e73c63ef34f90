"""Minimal module system: parameter containers with recursive traversal.

Mirrors the ``torch.nn.Module`` contract the paper's implementation would
rely on: registering parameters and sub-modules by attribute assignment,
recursive ``parameters()`` iteration, train/eval mode, and state dicts
for (de)serialisation.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, Tuple

import numpy as np

from .tensor import Tensor

# One counter for every parameter, so a replaced parameter never reuses
# a version its predecessor had.
_versions = itertools.count()


class Parameter(Tensor):
    """A tensor that is a trainable model parameter.

    ``version`` changes whenever the library writes new values into
    ``data`` (``SGD.step``, ``Adam.step``, :meth:`Module.load_state_dict`);
    caches derived from parameters are keyed on it.
    """

    def __init__(self, data) -> None:
        super().__init__(data, requires_grad=True)
        self.bump_version()

    def bump_version(self) -> None:
        """Mark ``data`` as rewritten (call after writing it in place)."""
        self.version = next(_versions)


class Module:
    """Base class for all neural network modules."""

    def __init__(self) -> None:
        self._parameters: Dict[str, Parameter] = {}
        self._modules: Dict[str, "Module"] = {}
        self.training = True

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", {})[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(qualified_name, parameter)`` pairs recursively."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> Iterator[Parameter]:
        """Yield all parameters recursively."""
        for _, param in self.named_parameters():
            yield param

    def modules(self) -> Iterator["Module"]:
        """Yield this module and all sub-modules recursively."""
        yield self
        for module in self._modules.values():
            yield from module.modules()

    def num_parameters(self) -> int:
        """Total number of scalar parameters."""
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    def zero_grad(self) -> None:
        """Clear gradients of every parameter."""
        for param in self.parameters():
            param.zero_grad()

    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively (affects dropout etc.)."""
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        """Set evaluation mode recursively."""
        return self.train(False)

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Return a copy of every parameter array keyed by qualified name."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameter arrays produced by :meth:`state_dict`."""
        params = dict(self.named_parameters())
        missing = set(params) - set(state)
        unexpected = set(state) - set(params)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, array in state.items():
            param = params[name]
            if param.data.shape != array.shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"{param.data.shape} vs {array.shape}"
                )
            param.data[...] = array
            param.bump_version()

    # ------------------------------------------------------------------
    # call protocol
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)
