"""Reverse-mode automatic differentiation on top of NumPy arrays.

This module is the substrate replacing PyTorch's autograd for the IMCAT
reproduction.  A :class:`Tensor` wraps a ``numpy.ndarray`` and records the
operations applied to it so that :meth:`Tensor.backward` can propagate
gradients to every reachable leaf with ``requires_grad=True``.

The design mirrors the classic tape-based approach:

- each operation returns a new :class:`Tensor` holding references to its
  parent tensors and a closure computing the local vector-Jacobian product;
- :meth:`Tensor.backward` topologically sorts the graph and runs the
  closures in reverse order, accumulating into the ``.grad`` of every
  reachable leaf.

As in PyTorch's default, a graph supports one backward: each non-leaf
node is released once its closure has run (its closure, parents and
``.grad`` are dropped; its ``.data`` stays), so neither a consumed tape
nor non-leaf gradients outlive the call.  A later backward that reaches
a released node raises :class:`RuntimeError`; rebuild the forward pass
to backpropagate again.

Broadcasting follows NumPy semantics; gradients of broadcast operands are
reduced back to the operand's shape by :func:`unbroadcast`.
"""

from __future__ import annotations

import functools
import threading
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np
import scipy.sparse as sp

ArrayLike = Union[np.ndarray, float, int, Sequence]


class _Modes(threading.local):
    """Per-thread autograd switches; the class attributes are the
    defaults every new thread starts from."""

    grad = True
    anomaly = False


_modes = _Modes()


class set_grad_enabled:
    """Context manager / decorator forcing tape recording on or off.

    Re-entrant: each ``__enter__`` pushes the previous mode onto an
    instance-local stack, so a single instance can be nested or reused
    (including recursively through the decorator form) without
    clobbering the restore value.  The mode is per-thread: entering the
    context in one thread never changes what another thread records.
    """

    _mode = True

    def __init__(self, mode: Optional[bool] = None) -> None:
        if mode is not None:
            self._mode = bool(mode)
        self._stack: list[bool] = []

    def __enter__(self) -> "set_grad_enabled":
        self._stack.append(_modes.grad)
        _modes.grad = self._mode
        return self

    def __exit__(self, *exc) -> None:
        _modes.grad = self._stack.pop()

    def __call__(self, fn: Callable) -> Callable:
        mode = self._mode

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with set_grad_enabled(mode):
                return fn(*args, **kwargs)

        return wrapper


class no_grad(set_grad_enabled):
    """Context manager that disables graph construction.

    Use around evaluation code to avoid the memory overhead of recording
    the tape::

        with no_grad():
            scores = model.score_all()

    Also usable as a decorator, and safe to nest or reuse.
    """

    _mode = False

    def __init__(self) -> None:
        super().__init__()


class enable_grad(set_grad_enabled):
    """Context manager that re-enables recording inside a ``no_grad``."""

    _mode = True

    def __init__(self) -> None:
        super().__init__()


def is_grad_enabled() -> bool:
    """Return whether new operations are currently recorded on the tape
    in the calling thread."""
    return _modes.grad


# ----------------------------------------------------------------------
# numeric anomaly detection
# ----------------------------------------------------------------------
class NumericAnomalyError(FloatingPointError):
    """A NaN/Inf was produced by an autograd op under ``detect_anomaly``."""


class detect_anomaly:
    """Context manager enabling NaN/Inf sanitisation of the tape.

    While active, every op created through :meth:`Tensor._make` checks
    its forward output, and :meth:`Tensor.backward` checks every
    gradient contribution right after the producing op's backward
    closure runs.  A non-finite value raises
    :class:`NumericAnomalyError` naming the creating op and the shapes
    (and finiteness) of its parents, so a silent NaN collapse — e.g. an
    InfoNCE temperature underflow — is pinned to its origin instead of
    surfacing epochs later as a NaN loss.

    Opt-in because the finiteness scans cost one pass over every op
    output; enable via ``detect_anomaly()`` or the trainers'
    ``detect_anomaly`` config flag.  Re-entrant like :class:`no_grad`.

    Args:
        enabled: when False the context is a no-op, so callers can wrap
            code unconditionally (``with detect_anomaly(cfg.flag): …``).
    """

    def __init__(self, enabled: bool = True) -> None:
        self._mode = bool(enabled)
        self._stack: list[bool] = []

    def __enter__(self) -> "detect_anomaly":
        self._stack.append(_modes.anomaly)
        if self._mode:
            _modes.anomaly = True
        return self

    def __exit__(self, *exc) -> None:
        _modes.anomaly = self._stack.pop()

    def __call__(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with detect_anomaly(self._mode):
                return fn(*args, **kwargs)

        return wrapper


def is_anomaly_enabled() -> bool:
    """Return whether NaN/Inf tape sanitisation is currently active in
    the calling thread."""
    return _modes.anomaly


def _op_name(backward: Optional[Callable]) -> str:
    """Provenance of an op from its backward closure's qualname.

    Every op's vector-Jacobian closure is defined inside the op itself,
    so ``__qualname__`` is e.g. ``Tensor.log.<locals>.backward`` or
    ``softmax.<locals>.backward`` — the prefix identifies the op with
    no per-op bookkeeping on the hot path.
    """
    if backward is None:
        return "<leaf>"
    return _op_from_qualname(getattr(backward, "__qualname__", ""))


def _op_from_qualname(qualname: str) -> str:
    return qualname.split(".<locals>", 1)[0] or "<op>"


def _released_error(node: "Tensor") -> RuntimeError:
    return RuntimeError(
        f"backward() reached a node built by "
        f"'{_op_from_qualname(node._released)}' (shape {node.shape}) whose "
        "graph an earlier backward() already consumed and released; a "
        "graph supports one backward, so rebuild the forward pass to "
        "backpropagate again"
    )


def _describe_nonfinite(array: np.ndarray) -> str:
    nans = int(np.isnan(array).sum())
    infs = int(np.isinf(array).sum())
    parts = []
    if nans:
        parts.append(f"{nans} NaN")
    if infs:
        parts.append(f"{infs} Inf")
    return " + ".join(parts) if parts else "finite"


def _check_forward(data: np.ndarray, parents: tuple, backward: Callable) -> None:
    if np.isfinite(data).all():
        return
    lines = [
        f"forward output of '{_op_name(backward)}' contains "
        f"{_describe_nonfinite(data)} (output shape {data.shape})"
    ]
    for i, parent in enumerate(parents):
        lines.append(
            f"  parent {i}: shape {parent.shape}, "
            f"{_describe_nonfinite(parent.data)}"
        )
    raise NumericAnomalyError("\n".join(lines))


def _check_backward(node: "Tensor") -> None:
    for i, parent in enumerate(node._parents):
        if not parent.requires_grad or parent.grad is None:
            continue
        if np.isfinite(parent.grad).all():
            continue
        raise NumericAnomalyError(
            f"backward of '{_op_name(node._backward)}' produced "
            f"{_describe_nonfinite(parent.grad)} in the gradient of "
            f"parent {i} (shape {parent.shape}); op output shape "
            f"{node.shape}"
        )


def unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce ``grad`` so it matches ``shape`` after NumPy broadcasting.

    Summation is performed over the axes that were introduced or expanded
    by broadcasting.  This is the adjoint of ``np.broadcast_to``.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes that were prepended by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes where the original dimension was 1.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def scatter_rows(index: np.ndarray, values: np.ndarray, num_rows: int) -> np.ndarray:
    """Sum the rows of ``values`` into ``num_rows`` rows grouped by ``index``.

    Returns the ``(num_rows, *values.shape[index.ndim:])`` array that
    NumPy's ``add.at`` builds into zeros, bit for bit: each output row
    starts from 0 and adds its contributions in index order.  The sum is
    one sparse product with a ``(num_rows, index.size)`` CSC matrix
    holding a single ``1.0`` per column; scipy walks the columns in
    order, so row ``index[i]`` receives ``values[i]`` in that order, and
    ``1.0 * v`` is exact.  This is the adjoint of a row gather
    (``table[index]``) at memory speed, where ``add.at`` is NumPy's
    slowest reduction.

    Negative indices wrap as in NumPy; out-of-range or non-integer
    indices raise :class:`IndexError`.
    """
    flat = np.asarray(index).reshape(-1)
    trailing = values.shape[np.ndim(index):]
    if flat.dtype.kind not in "iu":
        raise IndexError(
            f"scatter_rows needs integer indices, got dtype {flat.dtype}"
        )
    if flat.size == 0:
        return np.zeros((num_rows,) + trailing, dtype=values.dtype)
    low, high = flat.min(), flat.max()
    if low < -num_rows or high >= num_rows:
        bad = low if low < -num_rows else high
        raise IndexError(
            f"index {bad} is out of bounds for axis 0 with size {num_rows}"
        )
    if low < 0:
        flat = np.where(flat < 0, flat + num_rows, flat)
    gather_t = sp.csc_matrix(
        (np.ones(flat.size, dtype=values.dtype), flat, np.arange(flat.size + 1)),
        shape=(num_rows, flat.size),
    )
    summed = gather_t @ values.reshape(flat.size, -1)
    return summed.reshape((num_rows,) + trailing)


#: Index kinds that select each element at most once (NumPy "basic"
#: indexing).  ``bool`` subclasses ``int`` but indexes as a mask.
_BASIC_INDEX = (int, np.integer, slice, type(None), type(Ellipsis))


def _is_basic_index(index) -> bool:
    parts = index if isinstance(index, tuple) else (index,)
    return all(
        isinstance(part, _BASIC_INDEX) and not isinstance(part, bool)
        for part in parts
    )


def _as_array(value: ArrayLike) -> np.ndarray:
    if isinstance(value, np.ndarray):
        if value.dtype == np.float64 or value.dtype == np.float32:
            return value
        return value.astype(np.float64)
    return np.asarray(value, dtype=np.float64)


class Tensor:
    """A NumPy-backed tensor participating in reverse-mode autodiff."""

    __slots__ = (
        "data", "grad", "requires_grad", "_backward", "_parents", "_released"
    )

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: tuple = (),
        _backward: Optional[Callable[[np.ndarray], None]] = None,
    ) -> None:
        self.data = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward = _backward
        # Qualname of the released closure once a backward consumed this
        # node; None while the node is live (and always for leaves).
        self._released: Optional[str] = None

    # ------------------------------------------------------------------
    # introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, precision=4, threshold=8)}{flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy); detached from the graph."""
        return self.data

    def item(self) -> float:
        """Return the value of a size-1 tensor as a Python float."""
        if self.data.size != 1:
            raise ValueError(
                f"item() requires a size-1 tensor, got shape {self.shape}"
            )
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        """Clear the accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------
    # graph construction
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: tuple,
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Create a result tensor, recording the tape only when needed."""
        if _modes.anomaly:
            _check_forward(data, parents, backward)
        if _modes.grad and any(p.requires_grad for p in parents):
            return Tensor(data, requires_grad=True, _parents=parents, _backward=backward)
        return Tensor(data)

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            # Copy so that in-place += below never aliases an upstream buffer.
            self.grad = np.array(grad, dtype=self.data.dtype)
        else:
            self.grad += grad

    def _accumulate_owned(self, grad: np.ndarray) -> None:
        """:meth:`_accumulate` for a buffer the calling backward closure
        allocated itself and keeps no reference to: the first one is
        adopted as ``.grad`` without the defensive copy.  Never pass
        ``g`` or any array another tensor may hold."""
        if (
            self.grad is None
            and type(grad) is np.ndarray
            and grad.dtype == self.data.dtype
            and grad.flags.c_contiguous
        ):
            self.grad = grad
        else:
            self._accumulate(grad)

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Gradients accumulate into the ``.grad`` of every reachable leaf
        (a tensor without parents, e.g. a parameter).  As in PyTorch's
        default, the graph is consumed: each non-leaf node drops its
        closure, parents and ``.grad`` as soon as its closure has run,
        and keeps only ``.data`` (so ``loss.item()`` still works).  One
        backward per graph: if the graph reaches a node an earlier
        backward released, :class:`RuntimeError` is raised before any
        gradient is written; rebuild the forward pass instead.

        Args:
            grad: Seed gradient.  Defaults to ``1.0`` which requires the
                tensor to be scalar-valued.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient requires a scalar "
                    f"tensor, got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise ValueError(
                    f"seed gradient shape {grad.shape} does not match tensor "
                    f"shape {self.shape}"
                )

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            if node._released is not None:
                raise _released_error(node)
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        # Popping drops the list's reference too, so a node's buffers
        # are freed as soon as nothing downstream needs them.
        while topo:
            node = topo.pop()
            backward = node._backward
            if backward is None:
                continue
            if node.grad is not None:
                backward(node.grad)
                if _modes.anomaly:
                    _check_backward(node)
            node._released = getattr(backward, "__qualname__", "")
            node._backward = None
            node._parents = ()
            node.grad = None

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data + other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(unbroadcast(g, self.shape))
            if other.requires_grad:
                other._accumulate(unbroadcast(g, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-g)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-as_tensor(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data * other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_owned(unbroadcast(g * other.data, self.shape))
            if other.requires_grad:
                other._accumulate_owned(unbroadcast(g * self.data, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data / other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(unbroadcast(g / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    unbroadcast(-g * self.data / (other.data**2), other.shape)
                )

        return Tensor._make(out_data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data @ other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                if other.data.ndim == 1:
                    grad_self = np.outer(g, other.data) if g.ndim else g * other.data
                    if self.data.ndim == 1:
                        grad_self = g * other.data
                else:
                    grad_self = g @ np.swapaxes(other.data, -1, -2)
                self._accumulate(unbroadcast(np.asarray(grad_self), self.shape))
            if other.requires_grad:
                if self.data.ndim == 1:
                    grad_other = np.outer(self.data, g) if g.ndim else self.data * g
                    if other.data.ndim == 1:
                        grad_other = self.data * g
                else:
                    grad_other = np.swapaxes(self.data, -1, -2) @ g
                other._accumulate(unbroadcast(np.asarray(grad_other), other.shape))

        return Tensor._make(out_data, (self, other), backward)

    # ------------------------------------------------------------------
    # shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        orig = self.shape

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g.reshape(orig))

        return Tensor._make(out_data, (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        out_data = self.data.transpose(axes)
        inverse = tuple(np.argsort(axes))

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g.transpose(inverse))

        return Tensor._make(out_data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]
        rows = isinstance(index, np.ndarray) and index.dtype.kind in "iu"
        basic = not rows and _is_basic_index(index)

        def backward(g: np.ndarray) -> None:
            if not self.requires_grad:
                return
            if rows:
                self._accumulate_owned(scatter_rows(index, g, self.shape[0]))
                return
            full = np.zeros_like(self.data)
            if basic:
                # A basic index selects every element at most once.
                full[index] += g
            else:
                # Bool masks and mixed advanced tuples.
                np.add.at(full, index, g)
            self._accumulate_owned(full)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g: np.ndarray) -> None:
            if not self.requires_grad:
                return
            grad = g
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis=axis)
            self._accumulate_owned(np.broadcast_to(grad, self.shape).copy())

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.shape[a] for a in axis]))
        else:
            count = self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(g: np.ndarray) -> None:
            if not self.requires_grad:
                return
            expanded = out_data
            grad = g
            if axis is not None and not keepdims:
                expanded = np.expand_dims(out_data, axis=axis)
                grad = np.expand_dims(g, axis=axis)
            mask = (self.data == expanded).astype(self.data.dtype)
            # Split gradient equally between ties, matching the subgradient.
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            self._accumulate(mask * grad / counts)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # elementwise non-linearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * out_data)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g / self.data)

        return Tensor._make(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * 0.5 / np.maximum(out_data, 1e-12))

        return Tensor._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        # Numerically stable logistic.
        out_data = np.where(
            self.data >= 0,
            1.0 / (1.0 + np.exp(-np.clip(self.data, -500, 500))),
            np.exp(np.clip(self.data, -500, 500))
            / (1.0 + np.exp(np.clip(self.data, -500, 500))),
        )

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * (1.0 - out_data**2))

        return Tensor._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        out_data = np.maximum(self.data, 0.0)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * (self.data > 0))

        return Tensor._make(out_data, (self,), backward)

    def leaky_relu(self, negative_slope: float = 0.01) -> "Tensor":
        out_data = np.where(self.data > 0, self.data, negative_slope * self.data)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                slope = np.where(self.data > 0, 1.0, negative_slope)
                self._accumulate(g * slope)

        return Tensor._make(out_data, (self,), backward)

    def abs(self) -> "Tensor":
        out_data = np.abs(self.data)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * np.sign(self.data))

        return Tensor._make(out_data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        out_data = np.clip(self.data, low, high)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                inside = (self.data >= low) & (self.data <= high)
                self._accumulate(g * inside)

        return Tensor._make(out_data, (self,), backward)


def as_tensor(value: ArrayLike) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` (no copy if already one)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def zeros(*shape, requires_grad: bool = False) -> Tensor:
    """Create a tensor of zeros."""
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


def ones(*shape, requires_grad: bool = False) -> Tensor:
    """Create a tensor of ones."""
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    return Tensor(np.ones(shape), requires_grad=requires_grad)


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g: np.ndarray) -> None:
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * g.ndim
                index[axis] = slice(start, stop)
                t._accumulate(g[tuple(index)])

    return Tensor._make(out_data, tuple(tensors), backward)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis with gradient routing."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(g: np.ndarray) -> None:
        slices = np.moveaxis(g, axis, 0)
        for t, piece in zip(tensors, slices):
            if t.requires_grad:
                t._accumulate(piece)

    return Tensor._make(out_data, tuple(tensors), backward)


def where(condition: np.ndarray, x: Tensor, y: Tensor) -> Tensor:
    """Elementwise select ``x`` where ``condition`` else ``y``.

    ``condition`` is a plain boolean array (not differentiated).
    """
    x, y = as_tensor(x), as_tensor(y)
    cond = np.asarray(condition, dtype=bool)
    out_data = np.where(cond, x.data, y.data)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(unbroadcast(g * cond, x.shape))
        if y.requires_grad:
            y._accumulate(unbroadcast(g * (~cond), y.shape))

    return Tensor._make(out_data, (x, y), backward)
