"""ValueNet neural model: featurization, encoder, decoder, training."""

from repro.model.beam import beam_decode
from repro.model.decoder import DecoderStep, ValueNetDecoder
from repro.model.encoder import EncodedExample, ValueNetEncoder
from repro.model.featurize import (
    EncoderInput,
    ItemSpan,
    SchemaFeatureCache,
    SchemaFeatures,
    build_vocabulary,
    featurize,
)
from repro.model.supervision import match_candidate, steps_to_tree, tree_to_steps
from repro.model.valuenet import ValueNetModel

# Serving imports this package for the model alone: the training names
# resolve from repro.model.training on first use, so a serving process
# never loads the training loop.
_TRAINING = frozenset({
    "EpochStats", "Trainer", "TrainingHistory", "TrainSample",
    "build_preprocessors", "prepare_samples", "train_valuenet",
})


def __getattr__(name: str):
    if name in _TRAINING:
        from repro.model import training

        return getattr(training, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "DecoderStep",
    "beam_decode",
    "EncodedExample",
    "EncoderInput",
    "EpochStats",
    "ItemSpan",
    "SchemaFeatureCache",
    "SchemaFeatures",
    "TrainSample",
    "Trainer",
    "TrainingHistory",
    "ValueNetDecoder",
    "ValueNetEncoder",
    "ValueNetModel",
    "build_preprocessors",
    "build_vocabulary",
    "featurize",
    "match_candidate",
    "prepare_samples",
    "steps_to_tree",
    "train_valuenet",
    "tree_to_steps",
]
