"""Training configuration defaults, validation, and round-tripping."""

import pytest

from fsnet.config import TrainConfig


def test_reference_defaults():
    cfg = TrainConfig()
    assert cfg.n_select == 10
    assert cfg.embed_size == 10
    assert cfg.recon_weight == 1.0
    assert cfg.learning_rate == 1e-3
    assert cfg.epochs == 4000
    assert cfg.tau_start == 10.0
    assert cfg.tau_end == 0.01
    assert cfg.dropout == 0.2
    assert cfg.mode == "predictor"
    assert cfg.encoder == (64, 32, 16)
    assert cfg.decoder == (32, 64)
    assert cfg.leaky_slope == 0.2
    assert cfg.use_bias is False
    assert cfg.rms_decay == 0.9
    assert cfg.rms_eps == 1e-8


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_select": 0},
        {"embed_size": 0},
        {"recon_weight": -0.5},
        {"learning_rate": -1e-3},
        {"epochs": 0},
        {"tau_start": 0.01, "tau_end": 10.0},
        {"tau_end": 0.0},
        {"dropout": 1.0},
        {"dropout": -0.1},
        {"mode": "sparse"},
        {"leaky_slope": 0.0},
        {"leaky_slope": 1.5},
        {"rms_decay": 1.0},
        {"rms_eps": 0.0},
        {"rms_eps": -1e-8},
        {"rms_eps": float("nan")},
        {"rms_eps": float("inf")},
        {"learning_rate": float("nan")},
        {"learning_rate": float("inf")},
        {"recon_weight": float("nan")},
        {"recon_weight": float("inf")},
        {"tau_start": float("inf")},
    ],
)
def test_invalid_values_rejected(kwargs):
    with pytest.raises(ValueError):
        TrainConfig(**kwargs)


@pytest.mark.parametrize(
    "field, widths", [("encoder", [0]), ("encoder", []), ("decoder", (4, 0)), ("decoder", (-2, 8))]
)
def test_bad_layer_widths_rejected_naming_the_field(field, widths):
    with pytest.raises(ValueError, match=f"^{field} "):
        TrainConfig(**{field: widths})


def test_zero_learning_rate_allowed():
    # freezes the run at initialization; used by the no-op training contract
    assert TrainConfig(learning_rate=0.0).learning_rate == 0.0


def test_round_trip_through_dict():
    cfg = TrainConfig(n_select=7, epochs=50, mode="dense", encoder=(8, 4), decoder=(4, 8))
    again = TrainConfig.from_dict(cfg.to_dict())
    assert again == cfg


def test_to_dict_uses_plain_lists():
    d = TrainConfig().to_dict()
    assert d["encoder"] == [64, 32, 16]
    assert d["decoder"] == [32, 64]


def test_unknown_keys_rejected():
    with pytest.raises(ValueError, match="momentum"):
        TrainConfig.from_dict({"momentum": 0.9})


def test_width_lists_become_tuples():
    cfg = TrainConfig(encoder=[16, 8], decoder=[8, 16])
    assert cfg.encoder == (16, 8) and cfg.decoder == (8, 16)


@pytest.mark.parametrize(
    "field,value",
    [
        ("epochs", "10"),
        ("epochs", 10.0),
        ("epochs", True),
        ("n_select", 3.0),
        ("seed", "1"),
        ("recon_weight", True),
        ("learning_rate", "0.1"),
        ("use_bias", "no"),
        ("use_bias", 1),
        ("mode", 3),
        ("encoder", [16.0, 8.0]),
        ("encoder", [True]),
        ("encoder", "64"),
        ("decoder", 64),
    ],
)
def test_mistyped_values_rejected_naming_the_field(field, value):
    with pytest.raises(ValueError, match=field):
        TrainConfig(**{field: value})


def test_number_fields_take_integers():
    cfg = TrainConfig(recon_weight=0, learning_rate=1, tau_start=20)
    assert (cfg.recon_weight, cfg.learning_rate, cfg.tau_start) == (0, 1, 20)


def test_from_dict_needs_an_object():
    with pytest.raises(ValueError, match="object"):
        TrainConfig.from_dict([1, 2])
