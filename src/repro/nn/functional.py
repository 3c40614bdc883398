"""Differentiable functions built on the autograd :class:`Tensor`.

Numerically-stable softmax / log-softmax, masked variants for
grammar-constrained decoding and pointer networks, and dropout.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor

NEG_INF = -1e30


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Stable softmax along ``axis``, computed in one buffer."""
    value = x.data - x.data.max(axis=axis, keepdims=True)
    np.exp(value, out=value)
    value /= value.sum(axis=axis, keepdims=True)
    out = Tensor(value, parents=(x,))
    if not out.requires_grad:
        return out

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            # dL/dx = s * (g - sum(g * s))
            dot = (grad * value).sum(axis=axis, keepdims=True)
            x._accumulate(value * (grad - dot))

    out._backward = backward
    return out


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Stable log-softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    value = shifted - log_z
    out = Tensor(value, parents=(x,))
    if not out.requires_grad:
        return out
    soft = np.exp(value)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad - soft * grad.sum(axis=axis, keepdims=True))

    out._backward = backward
    return out


def masked_log_softmax(x: Tensor, mask: np.ndarray, axis: int = -1) -> Tensor:
    """Log-softmax with illegal positions (``mask == False``) forced to
    ``-inf`` before normalization.

    Used for grammar-constrained decoding: only the productions legal in
    the current :class:`~repro.semql.tree.GrammarState` compete.
    """
    penalty = np.where(mask, 0.0, NEG_INF)
    return log_softmax(x + Tensor(penalty), axis=axis)


def dropout(x: Tensor, rate: float, *, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: identity at inference time."""
    if not training or rate <= 0.0:
        return x
    keep = 1.0 - rate
    mask = (rng.random(x.shape) < keep) / keep
    out = Tensor(x.data * mask, parents=(x,))
    if not out.requires_grad:
        return out

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * mask)

    out._backward = backward
    return out


def attention_pool(scores: Tensor, memory: Tensor) -> Tensor:
    """Softmax-weighted pooling: ``softmax(scores) @ memory``.

    Args:
        scores: shape (n,) attention scores.
        memory: shape (n, d) memory bank.

    Returns:
        shape (d,) context vector.
    """
    weights = softmax(scores)
    return weights @ memory
