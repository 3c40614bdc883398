"""Neural network modules (Linear, Embedding, LayerNorm, Dropout, MLP).

A tiny module system in the PyTorch style: modules register parameters
and sub-modules simply by attribute assignment; ``named_parameters``
walks the tree.  Training/eval mode is a flag propagated by ``train()``
and ``eval()``; dropout, the only mode-dependent layer, additionally
needs autograd on, so a forward pass under the thread-local
:func:`~repro.nn.tensor.inference_mode` is deterministic whatever
another thread does to the shared flag.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.nn.functional import dropout
from repro.nn.init import xavier_uniform, zeros
from repro.nn.tensor import Tensor, concat, is_grad_enabled


class Module:
    """Base class: parameter/submodule discovery and train/eval mode."""

    def __init__(self) -> None:
        self.training = True

    # ------------------------------------------------------- registration

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        """Yield ``(dotted_name, parameter)`` for the whole subtree."""
        for name, value in vars(self).items():
            if name.startswith("_module_cache"):
                continue
            full = f"{prefix}{name}"
            if isinstance(value, Tensor) and value.requires_grad:
                yield full, value
            elif isinstance(value, Module):
                yield from value.named_parameters(f"{full}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(f"{full}.{i}.")
                    elif isinstance(item, Tensor) and item.requires_grad:
                        yield f"{full}.{i}", item

    def parameters(self) -> list[Tensor]:
        return [p for _name, p in self.named_parameters()]

    def zero_grad(self) -> None:
        for parameter in self.parameters():
            parameter.zero_grad()

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    # --------------------------------------------------------------- mode

    def _submodules(self) -> Iterator["Module"]:
        for value in vars(self).values():
            if isinstance(value, Module):
                yield value
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield item

    def train(self) -> "Module":
        self.training = True
        for module in self._submodules():
            module.train()
        return self

    def eval(self) -> "Module":
        self.training = False
        for module in self._submodules():
            module.eval()
        return self


class Linear(Module):
    """Affine map ``x @ W + b`` (W is (in, out))."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        *,
        bias: bool = True,
    ):
        super().__init__()
        self.weight = xavier_uniform(rng, in_features, out_features)
        self.bias = zeros(out_features) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class Embedding(Module):
    """Lookup table: integer ids -> dense rows."""

    def __init__(self, vocab_size: int, dim: int, rng: np.random.Generator):
        super().__init__()
        from repro.nn.init import normal_embedding

        self.weight = normal_embedding(rng, vocab_size, dim)

    def __call__(self, ids: list[int] | np.ndarray) -> Tensor:
        index = np.asarray(ids, dtype=np.int64)
        return self.weight[index]


class LayerNorm(Module):
    """Layer normalization over the last axis."""

    def __init__(self, dim: int, *, eps: float = 1e-5):
        super().__init__()
        self.gain = Tensor(np.ones(dim), requires_grad=True)
        self.shift = zeros(dim)
        self._eps = eps

    def __call__(self, x: Tensor) -> Tensor:
        # np.var would centre x a second time; its own sum-of-squares
        # over the centred values gives the same bits.
        centered = x.data - x.data.mean(axis=-1, keepdims=True)
        var = (centered * centered).mean(axis=-1, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + self._eps)
        normalized = centered * inv_std
        out = Tensor(normalized, parents=(x,))
        if out.requires_grad:

            def backward(grad: np.ndarray) -> None:
                if x.requires_grad:
                    dx = (
                        grad
                        - grad.mean(axis=-1, keepdims=True)
                        - normalized * (grad * normalized).mean(axis=-1, keepdims=True)
                    ) * inv_std
                    x._accumulate(dx)

            out._backward = backward
        return out * self.gain + self.shift


class Dropout(Module):
    """Inverted dropout module (identity in eval or inference mode)."""

    def __init__(self, rate: float, rng: np.random.Generator):
        super().__init__()
        self.rate = rate
        self._rng = rng

    def __call__(self, x: Tensor) -> Tensor:
        training = self.training and is_grad_enabled()
        return dropout(x, self.rate, training=training, rng=self._rng)


class MLP(Module):
    """Two-layer perceptron with tanh, used as attention scorer head."""

    def __init__(
        self,
        in_features: int,
        hidden: int,
        out_features: int,
        rng: np.random.Generator,
    ):
        super().__init__()
        self.layer1 = Linear(in_features, hidden, rng)
        self.layer2 = Linear(hidden, out_features, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return self.layer2(self.layer1(x).tanh())


def concat_features(parts: list[Tensor]) -> Tensor:
    """Concatenate feature vectors/matrices along the last axis."""
    return concat(parts, axis=-1)
