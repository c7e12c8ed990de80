"""Training configuration with the reference defaults baked in, and the
field-type check it shares with the network architecture."""

from __future__ import annotations

import math
import typing
from dataclasses import asdict, dataclass, fields


@dataclass
class TrainConfig:
    """Hyperparameters of one training run.

    Defaults: 10 selected features, embedding size 10, reconstruction weight
    1, learning rate 1e-3, 4000 epochs, temperature annealed from 10 to 0.01,
    dropout 0.2, leaky slope 0.2, RMSprop(0.9, 1e-8), no biases.
    """

    n_select: int = 10
    embed_size: int = 10
    recon_weight: float = 1.0
    learning_rate: float = 1e-3
    epochs: int = 4000
    tau_start: float = 10.0
    tau_end: float = 0.01
    dropout: float = 0.2
    seed: int = 0
    mode: str = "predictor"
    encoder: tuple[int, ...] = (64, 32, 16)
    decoder: tuple[int, ...] = (32, 64)
    leaky_slope: float = 0.2
    use_bias: bool = False
    rms_decay: float = 0.9
    rms_eps: float = 1e-8

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        check_field_types(self)
        if self.n_select < 1:
            raise ValueError(f"n_select must be >= 1, got {self.n_select}")
        if self.embed_size < 1:
            raise ValueError(f"embed_size must be >= 1, got {self.embed_size}")
        if not (math.isfinite(self.recon_weight) and self.recon_weight >= 0.0):
            raise ValueError(f"recon_weight must be finite and >= 0, got {self.recon_weight}")
        # zero is allowed so a run can be frozen at initialization
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0.0):
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not (math.isfinite(self.tau_start) and self.tau_start > self.tau_end > 0.0):
            raise ValueError(
                f"need finite tau_start > tau_end > 0, got {self.tau_start}, {self.tau_end}"
            )
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must lie in [0, 1), got {self.dropout}")
        for name in ("encoder", "decoder"):
            widths = getattr(self, name)
            if not widths or min(widths) < 1:
                raise ValueError(f"{name} needs one or more widths, each >= 1, got {list(widths)}")
        if self.mode not in ("predictor", "dense"):
            raise ValueError(f"mode must be 'predictor' or 'dense', got {self.mode!r}")
        if not 0.0 < self.leaky_slope < 1.0:
            raise ValueError(f"leaky_slope must lie in (0, 1), got {self.leaky_slope}")
        if not 0.0 <= self.rms_decay < 1.0:
            raise ValueError(f"rms_decay must lie in [0, 1), got {self.rms_decay}")
        # a weight between two units that dropout never keeps in the same row
        # gets a zero gradient, and RMSprop's g / (sqrt(v) + eps) is 0/0 at eps 0
        if not (math.isfinite(self.rms_eps) and self.rms_eps > 0.0):
            raise ValueError(f"rms_eps must be finite and > 0, got {self.rms_eps}")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["encoder"] = list(self.encoder)
        d["decoder"] = list(self.decoder)
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        if not isinstance(data, dict):
            raise ValueError(f"expected an object of config keys, got {type(data).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)


_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string", bool: "true or false",
               tuple[int, ...]: "a list of integers"}


def _has_type(value, declared) -> bool:
    if declared is bool or isinstance(value, bool):
        return declared is bool and isinstance(value, bool)
    if declared is float:
        return isinstance(value, (int, float))
    if declared == tuple[int, ...]:
        return isinstance(value, tuple) and all(_has_type(w, int) for w in value)
    return isinstance(value, declared)


def check_field_types(record) -> None:
    """Raise ValueError naming the first field of a dataclass record whose
    value is not of its declared type. A bool is neither an int nor a float,
    an int is also a float, and a list given for a tuple field (as JSON
    gives it) becomes that tuple."""
    for name, declared in typing.get_type_hints(type(record)).items():
        value = getattr(record, name)
        if declared == tuple[int, ...] and isinstance(value, list):
            value = tuple(value)
            object.__setattr__(record, name, value)  # frozen records too
        if not _has_type(value, declared):
            raise ValueError(f"{name} must be {_TYPE_NAMES[declared]}, got {value!r}")
