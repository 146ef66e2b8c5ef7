"""Shared fixtures for the test suite.

Heavy objects (circuits, library sets, datasets, trained models) are built
once per session and reused; tests that need mutation make their own copies.
Sizes are deliberately small — correctness of behaviour, not paper-scale
numbers, is what the unit tests check.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.aging.cell_library import AgingAwareLibrarySet, fresh_library
from repro.circuits.mac import build_mac, build_multiplier
from repro.nn.datasets import SyntheticImageDataset
from repro.nn.layers import Conv2D, Dense, Flatten, GlobalAvgPool2D, MaxPool2D, ReLU
from repro.nn.model import Model
from repro.nn.quantized import CalibrationRecording, record_calibration
from repro.nn.training import SGDTrainer


@pytest.fixture(scope="session", autouse=True)
def _isolated_cache_dir(tmp_path_factory):
    """Point REPRO_CACHE_DIR at a per-session temp directory.

    The pipeline artifact cache (and the zoo weight cache) default to
    ~/.cache; tests must neither read stale artifacts from nor leak
    artifacts into the developer's real cache.
    """
    import os

    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("repro-cache"))
    yield
    if previous is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:  # pragma: no cover - depends on the developer's environment
        os.environ["REPRO_CACHE_DIR"] = previous


@pytest.fixture(scope="session")
def library_set() -> AgingAwareLibrarySet:
    return AgingAwareLibrarySet.generate((0.0, 10.0, 20.0, 30.0, 40.0, 50.0))


@pytest.fixture(scope="session")
def fresh_cells():
    return fresh_library()


@pytest.fixture(scope="session")
def small_multiplier():
    """4x4 array multiplier: small enough for exhaustive functional checks."""
    return build_multiplier(4, "array")


@pytest.fixture(scope="session")
def small_wallace_multiplier():
    return build_multiplier(4, "wallace")


@pytest.fixture(scope="session")
def small_mac():
    """A reduced MAC (4-bit multiplier, 10-bit accumulator) for fast tests."""
    return build_mac(multiplier_width=4, accumulator_width=10)


@pytest.fixture(scope="session")
def paper_mac():
    """The paper's 8-bit/22-bit MAC (used by the slower integration tests)."""
    return build_mac()


@pytest.fixture(scope="session")
def tiny_dataset() -> SyntheticImageDataset:
    # max_shift is kept small: on 8x8 images the default +/-2 circular shift
    # makes the task too hard for the deliberately tiny test models.
    return SyntheticImageDataset.generate(
        num_classes=4,
        image_size=8,
        train_per_class=30,
        test_per_class=12,
        max_shift=1,
        noise_std=0.25,
        seed=7,
    )


def build_tiny_model(num_classes: int = 4, image_size: int = 8, rng: int = 3) -> Model:
    """A small conv net exercising every primitive layer type."""
    return Model(
        [
            Conv2D(3, 8, kernel_size=3, rng=rng),
            ReLU(),
            MaxPool2D(2),
            Conv2D(8, 12, kernel_size=3, rng=rng + 1),
            ReLU(),
            GlobalAvgPool2D(),
            Dense(12, num_classes, rng=rng + 2),
        ],
        name="tiny",
        num_classes=num_classes,
    )


def build_tiny_flat_model(num_classes: int = 4, image_size: int = 8, rng: int = 5) -> Model:
    """A small VGG-style net with a Flatten/Dense head."""
    spatial = image_size // 2
    return Model(
        [
            Conv2D(3, 4, kernel_size=3, rng=rng),
            ReLU(),
            MaxPool2D(2),
            Flatten(),
            Dense(4 * spatial * spatial, num_classes, rng=rng + 1),
        ],
        name="tiny_flat",
        num_classes=num_classes,
    )


@pytest.fixture(scope="session")
def tiny_model(tiny_dataset) -> Model:
    """A tiny model trained for a few epochs on the tiny dataset."""
    model = build_tiny_model(num_classes=tiny_dataset.num_classes, image_size=tiny_dataset.image_size)
    trainer = SGDTrainer(epochs=6, batch_size=32, learning_rate=0.1)
    trainer.fit(model, tiny_dataset.x_train, tiny_dataset.y_train, rng=0)
    return model


@pytest.fixture(scope="session")
def tiny_calibration(tiny_dataset) -> np.ndarray:
    return tiny_dataset.calibration_split(24, seed=1)


@pytest.fixture(scope="session")
def tiny_recording(tiny_model, tiny_calibration) -> CalibrationRecording:
    """The tiny model's calibration recording (building only fills its clipping memo)."""
    return record_calibration(tiny_model, tiny_calibration)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
