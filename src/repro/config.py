"""Configuration dataclasses for the ValueNet model and training loop."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyper-parameters.

    The paper uses BERT-Base (dim 768) with 300-dimensional LSTM
    summarizers/decoder.  Our from-scratch substrate is scaled down so a
    CPU trains it in minutes; the architecture (transformer encoder,
    BiLSTM span summarization, LSTM decoder with pointer networks,
    grammar-constrained decoding) is the paper's.

    Attributes:
        dim: model width (embeddings, transformer, item encodings).
        num_layers: transformer encoder layers.
        num_heads: attention heads.
        ff_dim: transformer feed-forward width.
        summary_hidden: BiLSTM summarizer hidden size.
        decoder_hidden: decoder LSTM hidden size.
        pointer_hidden: pointer-network scorer hidden size.
        dropout: dropout rate (paper: 0.3).
        vocab_size: WordPiece vocabulary budget.
        max_decode_steps: hard cap on decoder steps at inference.
        seed: parameter-initialization seed.
    """

    dim: int = 64
    num_layers: int = 2
    num_heads: int = 4
    ff_dim: int = 128
    summary_hidden: int = 48
    decoder_hidden: int = 96
    pointer_hidden: int = 64
    dropout: float = 0.1
    word_dropout: float = 0.1
    vocab_size: int = 2500
    max_decode_steps: int = 80
    seed: int = 1234


@dataclass(frozen=True)
class TrainingConfig:
    """Optimization hyper-parameters.

    The paper fine-tunes BERT with 2e-5 / trains the decoder with 1e-3 and
    the connection parameters with 1e-4.  We keep the three parameter
    groups but raise the encoder rate, because our encoder is trained from
    scratch rather than fine-tuned (DESIGN.md records the substitution).

    Attributes:
        epochs: passes over the training split.
        batch_size: samples per minibatch (paper: 20).
        encoder_lr / decoder_lr / connection_lr: per-group Adam rates.
        max_grad_norm: global-norm clip.
        seed: shuffling/dropout seed.
        log_every: progress logging interval (batches); 0 disables.
    """

    epochs: int = 8
    batch_size: int = 16
    encoder_lr: float = 8e-4
    decoder_lr: float = 1e-3
    connection_lr: float = 8e-4
    max_grad_norm: float = 5.0
    seed: int = 99
    log_every: int = 0
