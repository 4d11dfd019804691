"""Every config class checks itself when it is built and cannot change after."""

import dataclasses

import pytest

from satalign.contrastive import LossConfig
from satalign.encoders import ImageEncoderConfig, LocationEncoderConfig, ModelConfig
from satalign.evaluate import ProbeConfig
from satalign.synthworld import SyntheticWorldConfig
from satalign.training import TrainConfig

# (class, an invalid field value, the message it raises)
CASES = [
    (TrainConfig, {"epochs": 0}, "epochs must be >= 1, got 0"),
    (SyntheticWorldConfig, {"n_species": 0}, "n_species must be >= 1, got 0"),
    (ProbeConfig, {"epochs": 0}, "probe epochs must be >= 1, got 0"),
    (ModelConfig, {"embed_dim": 0}, "embed_dim must be >= 1, got 0"),
    (ImageEncoderConfig, {"d_img": 4}, "d_img must be >= 8"),
    (LocationEncoderConfig, {"d_loc": 4}, "d_loc must be >= 8"),
    (LossConfig, {"temperature": 0.0}, "temperature must be positive"),
]


@pytest.mark.parametrize("cls, invalid, message", CASES, ids=[c[0].__name__ for c in CASES])
def test_config_is_frozen_and_checked_when_built(cls, invalid, message):
    config = cls()
    (name, value), = invalid.items()
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(config, name, value)
    with pytest.raises(ValueError, match=f"^{message}$"):
        cls(**invalid)
    with pytest.raises(ValueError, match=f"^{message}$"):
        dataclasses.replace(config, **invalid)
