"""From-scratch numpy neural network library (autograd, layers, optim).

Importing it caps the process's BLAS at one thread (:mod:`repro.nn.blas`).
"""

from repro.nn.attention import BilinearAttention, MultiHeadSelfAttention, PointerNetwork
from repro.nn.blas import cap_blas_threads
from repro.nn.functional import (
    NEG_INF,
    attention_pool,
    dropout,
    log_softmax,
    masked_log_softmax,
    softmax,
)
from repro.nn.init import normal_embedding, xavier_uniform, zeros
from repro.nn.layers import (
    Dropout,
    Embedding,
    LayerNorm,
    Linear,
    MLP,
    Module,
    concat_features,
)
from repro.nn.optim import Adam, ParamGroup
from repro.nn.rnn import BiLSTMSummarizer, LSTMCell
from repro.nn.serialization import load_module, save_module
from repro.nn.tensor import Tensor, concat, inference_mode, is_grad_enabled, stack
from repro.nn.transformer import TransformerEncoder, TransformerLayer, sinusoidal_positions

cap_blas_threads()

__all__ = [
    "Adam",
    "BiLSTMSummarizer",
    "BilinearAttention",
    "Dropout",
    "Embedding",
    "LSTMCell",
    "LayerNorm",
    "Linear",
    "MLP",
    "Module",
    "MultiHeadSelfAttention",
    "NEG_INF",
    "ParamGroup",
    "PointerNetwork",
    "Tensor",
    "TransformerEncoder",
    "TransformerLayer",
    "attention_pool",
    "concat",
    "concat_features",
    "dropout",
    "inference_mode",
    "is_grad_enabled",
    "load_module",
    "log_softmax",
    "masked_log_softmax",
    "normal_embedding",
    "save_module",
    "sinusoidal_positions",
    "softmax",
    "stack",
    "xavier_uniform",
    "zeros",
]
