"""Reverse-mode automatic differentiation over numpy arrays.

PyTorch is unavailable offline, so the ValueNet model runs on this
from-scratch autograd engine.  A :class:`Tensor` wraps an ``ndarray``,
records the operation that produced it, and :meth:`Tensor.backward`
propagates gradients through the recorded graph in reverse topological
order.

Design notes:

* float64 everywhere — the models are small, and double precision makes
  gradient checking in the test suite tight.
* Broadcasting is supported for elementwise ops; gradients are summed back
  over broadcast axes (:func:`_unbroadcast`).
* The graph is built dynamically per forward pass (define-by-run), which
  the sequential LSTM decoder requires.
* Graph construction is skipped entirely when no input requires a
  gradient, and :func:`inference_mode` turns it off wholesale (per
  thread) for the serving fast path — a forward pass under it allocates
  no backward closures and keeps no parent references.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Sequence

import numpy as np

_GRAD_STATE = threading.local()


def is_grad_enabled() -> bool:
    """Whether ops record the autograd graph on the current thread."""
    return getattr(_GRAD_STATE, "enabled", True)


class inference_mode:
    """Context manager that disables autograd graph construction.

    Inside the context, op outputs never require gradients, record no
    parents, and build no backward closures — the forward pass is pure
    numpy work.  The flag is *per-thread*, so serving workers can run
    inference while another thread trains.  Nesting is supported; the
    previous state is restored on exit.
    """

    __slots__ = ("_previous",)

    def __enter__(self) -> "inference_mode":
        self._previous = is_grad_enabled()
        _GRAD_STATE.enabled = False
        return self

    def __exit__(self, *exc_info: object) -> None:
        _GRAD_STATE.enabled = self._previous


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` back down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were 1 in the original shape.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A node in the autograd graph."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data: np.ndarray | float | int | Sequence,
        *,
        requires_grad: bool = False,
        parents: tuple["Tensor", ...] = (),
        backward: Callable[[np.ndarray], None] | None = None,
        name: str = "",
    ):
        # Ops produce float64 ndarrays; np.asarray would only return them.
        if type(data) is not np.ndarray or data.dtype != np.float64:
            data = np.asarray(data, dtype=np.float64)
        self.data = data
        self.grad: np.ndarray | None = None
        if parents:
            # Op output under inference_mode drops the graph entirely,
            # without looking at its parents.
            requires_grad = is_grad_enabled() and (
                requires_grad or any(p.requires_grad for p in parents)
            )
        self.requires_grad = requires_grad
        self._parents = parents if self.requires_grad else ()
        self._backward = backward if self.requires_grad else None
        self.name = name

    # ----------------------------------------------------------- plumbing

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def numpy(self) -> np.ndarray:
        return self.data

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor.

        Args:
            grad: upstream gradient; defaults to 1 for scalar tensors.
        """
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor without grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without grad requires a scalar")
            grad = np.ones_like(self.data)

        # Topological order via iterative DFS (deep LSTM graphs overflow
        # Python's recursion limit).
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(np.asarray(grad, dtype=np.float64))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -------------------------------------------------------- construction

    @staticmethod
    def zeros(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape), requires_grad=requires_grad)

    @staticmethod
    def ones(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape), requires_grad=requires_grad)

    # ---------------------------------------------------------- operators

    def __add__(self, other: "Tensor | float") -> "Tensor":
        other = _as_tensor(other)
        out = Tensor(self.data + other.data, parents=(self, other))
        if not out.requires_grad:
            return out

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.shape))

        out._backward = backward
        return out

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        out = Tensor(-self.data, parents=(self,))
        if not out.requires_grad:
            return out

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        out._backward = backward
        return out

    def __sub__(self, other: "Tensor | float") -> "Tensor":
        return self + (-_as_tensor(other))

    def __rsub__(self, other: float) -> "Tensor":
        return _as_tensor(other) + (-self)

    def __mul__(self, other: "Tensor | float") -> "Tensor":
        other = _as_tensor(other)
        out = Tensor(self.data * other.data, parents=(self, other))
        if not out.requires_grad:
            return out

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.shape))

        out._backward = backward
        return out

    __rmul__ = __mul__

    def __truediv__(self, other: "Tensor | float") -> "Tensor":
        other = _as_tensor(other)
        out = Tensor(self.data / other.data, parents=(self, other))
        if not out.requires_grad:
            return out

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-grad * self.data / (other.data ** 2), other.shape)
                )

        out._backward = backward
        return out

    def __matmul__(self, other: "Tensor") -> "Tensor":
        out = Tensor(self.data @ other.data, parents=(self, other))
        if not out.requires_grad:
            return out

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if other.data.ndim == 1:
                    self._accumulate(np.outer(grad, other.data) if self.data.ndim == 2
                                     else grad * other.data)
                else:
                    g = grad if grad.ndim > 0 else grad.reshape(1)
                    if self.data.ndim == 1:
                        self._accumulate(g @ other.data.T)
                    else:
                        self._accumulate(
                            _unbroadcast(g @ other.data.swapaxes(-1, -2), self.shape)
                        )
            if other.requires_grad:
                if self.data.ndim == 1:
                    if other.data.ndim == 2:
                        other._accumulate(np.outer(self.data, grad))
                    else:
                        other._accumulate(grad * self.data)
                else:
                    # Batched (..., n, k) @ (k, m): sum the gradient over
                    # the broadcast batch axes back to ``other``'s shape.
                    other._accumulate(
                        _unbroadcast(
                            self.data.swapaxes(-1, -2) @ grad, other.shape
                        )
                    )

        out._backward = backward
        return out

    def __getitem__(self, key) -> "Tensor":
        out = Tensor(self.data[key], parents=(self,))
        if not out.requires_grad:
            return out

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if self.grad is None:
                    self.grad = np.zeros_like(self.data)
                np.add.at(self.grad, key, grad)

        out._backward = backward
        return out

    # -------------------------------------------------------- elementwise

    def exp(self) -> "Tensor":
        value = np.exp(self.data)
        out = Tensor(value, parents=(self,))
        if not out.requires_grad:
            return out

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * value)

        out._backward = backward
        return out

    def log(self) -> "Tensor":
        out = Tensor(np.log(self.data), parents=(self,))
        if not out.requires_grad:
            return out

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data)

        out._backward = backward
        return out

    def tanh(self) -> "Tensor":
        value = np.tanh(self.data)
        out = Tensor(value, parents=(self,))
        if not out.requires_grad:
            return out

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - value ** 2))

        out._backward = backward
        return out

    def sigmoid(self) -> "Tensor":
        value = 1.0 / (1.0 + np.exp(-self.data))
        out = Tensor(value, parents=(self,))
        if not out.requires_grad:
            return out

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * value * (1.0 - value))

        out._backward = backward
        return out

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out = Tensor(self.data * mask, parents=(self,))
        if not out.requires_grad:
            return out

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        out._backward = backward
        return out

    def pow(self, exponent: float) -> "Tensor":
        value = self.data ** exponent
        out = Tensor(value, parents=(self,))
        if not out.requires_grad:
            return out

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        out._backward = backward
        return out

    # --------------------------------------------------------- reductions

    def sum(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        out = Tensor(self.data.sum(axis=axis, keepdims=keepdims), parents=(self,))
        if not out.requires_grad:
            return out

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        out._backward = backward
        return out

    def mean(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # -------------------------------------------------------------- shape

    def reshape(self, *shape: int) -> "Tensor":
        out = Tensor(self.data.reshape(shape), parents=(self,))
        if not out.requires_grad:
            return out

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(self.shape))

        out._backward = backward
        return out

    def transpose(self) -> "Tensor":
        out = Tensor(self.data.T, parents=(self,))
        if not out.requires_grad:
            return out

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.T)

        out._backward = backward
        return out

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        """Swap two axes (needed for batched attention: ``k.swapaxes(-1, -2)``)."""
        out = Tensor(self.data.swapaxes(axis1, axis2), parents=(self,))
        if not out.requires_grad:
            return out

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.swapaxes(axis1, axis2))

        out._backward = backward
        return out

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, grad={self.requires_grad}{label})"


def _as_tensor(value: "Tensor | float | int | np.ndarray") -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` (differentiable)."""
    data = np.concatenate([t.data for t in tensors], axis=axis)
    out = Tensor(data, parents=tuple(tensors))
    if not out.requires_grad:
        return out
    sizes = [t.data.shape[axis] for t in tensors]

    def backward(grad: np.ndarray) -> None:
        offset = 0
        for tensor, size in zip(tensors, sizes):
            if tensor.requires_grad:
                slicer = [slice(None)] * grad.ndim
                slicer[axis] = slice(offset, offset + size)
                tensor._accumulate(grad[tuple(slicer)])
            offset += size

    out._backward = backward
    return out


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` (differentiable)."""
    data = np.stack([t.data for t in tensors], axis=axis)
    out = Tensor(data, parents=tuple(tensors))
    if not out.requires_grad:
        return out

    def backward(grad: np.ndarray) -> None:
        pieces = np.split(grad, len(tensors), axis=axis)
        for tensor, piece in zip(tensors, pieces):
            if tensor.requires_grad:
                tensor._accumulate(np.squeeze(piece, axis=axis))

    out._backward = backward
    return out
