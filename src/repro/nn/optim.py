"""Gradient-based optimisers.

The paper trains every method with Adam (Section V.D: learning rate and
weight decay both ``1e-3``).  SGD is provided for tests and ablations.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

import numpy as np

from .module import Parameter


def _load_buffers(
    target: List[np.ndarray], source: List[np.ndarray], name: str
) -> None:
    """Copy saved per-parameter buffers in place, validating layout."""
    if len(source) != len(target):
        raise ValueError(
            f"optimizer state mismatch: {len(source)} saved {name} buffers "
            f"for {len(target)} parameters"
        )
    for slot, array in zip(target, source):
        if slot.shape != np.shape(array):
            raise ValueError(
                f"optimizer state mismatch: {name} buffer shape "
                f"{np.shape(array)} vs parameter shape {slot.shape}"
            )
        slot[...] = array


def _mark_written(param) -> None:
    """Bump a parameter's version after a step rewrote its data (plain
    tensors can be optimised too, but carry no version)."""
    if isinstance(param, Parameter):
        param.bump_version()


class Optimizer:
    """Base class holding the parameter list and zero-grad logic."""

    def __init__(self, parameters: Iterable[Parameter]) -> None:
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received an empty parameter list")

    def zero_grad(self) -> None:
        """Clear the gradient of every tracked parameter."""
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    def state_dict(self) -> Dict[str, object]:
        """Internal optimisation state (moments, counters, current lr).

        Together with the parameters themselves this makes an optimiser
        fully resumable: ``load_state_dict`` continues the exact update
        sequence the snapshot interrupted.
        """
        return {}

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore state produced by :meth:`state_dict` (same layout)."""
        if state:
            raise ValueError(
                f"{type(self).__name__} has no state to load, got {sorted(state)}"
            )


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters)
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        for param, vel in zip(self.parameters, self._velocity):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                vel *= self.momentum
                vel += grad
                grad = vel
            param.data -= self.lr * grad
            _mark_written(param)

    def state_dict(self) -> Dict[str, object]:
        """Momentum buffers plus the (possibly scheduled) learning rate."""
        return {
            "lr": self.lr,
            "velocity": [vel.copy() for vel in self._velocity],
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore momentum buffers saved by :meth:`state_dict`."""
        self.lr = float(state["lr"])
        _load_buffers(self._velocity, list(state["velocity"]), "velocity")


class Adam(Optimizer):
    """Adam optimiser (Kingma & Ba) with decoupled-style L2 weight decay.

    Weight decay is added to the gradient (the classic formulation, as in
    ``torch.optim.Adam(weight_decay=...)``), matching the paper's setup.
    """

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters)
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if not (0.0 <= betas[0] < 1.0 and 0.0 <= betas[1] < 1.0):
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        self._step_count += 1
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count
        for param, m, v in zip(self.parameters, self._m, self._v):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad**2
            m_hat = m / bias1
            v_hat = v / bias2
            param.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            _mark_written(param)

    def state_dict(self) -> Dict[str, object]:
        """First/second moments, step count, and current learning rate.

        The step count drives bias correction, so restoring it is what
        makes a resumed Adam trajectory bit-exact.
        """
        return {
            "lr": self.lr,
            "step": self._step_count,
            "m": [m.copy() for m in self._m],
            "v": [v.copy() for v in self._v],
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore moments and step count saved by :meth:`state_dict`."""
        self.lr = float(state["lr"])
        self._step_count = int(state["step"])
        _load_buffers(self._m, list(state["m"]), "m")
        _load_buffers(self._v, list(state["v"]), "v")
