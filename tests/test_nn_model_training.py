"""Tests of the model container, training loop, dataset and model zoo."""

import pickle

import numpy as np
import pytest

from repro.nn.datasets import SyntheticImageDataset
from repro.nn.model import Model
from repro.nn.layers import Dense, ReLU
from repro.nn.training import SGDTrainer
from repro.nn.zoo import (
    FIG1B_NETWORKS,
    TABLE1_NETWORKS,
    available_architectures,
    build_model,
    display_name,
    get_pretrained,
)
from tests.conftest import build_tiny_flat_model, build_tiny_model


class TestModel:
    def test_forward_shape(self, tiny_dataset):
        model = build_tiny_model(tiny_dataset.num_classes, tiny_dataset.image_size)
        logits = model.forward(tiny_dataset.x_test[:5])
        assert logits.shape == (5, tiny_dataset.num_classes)

    def test_layer_names_are_unique(self, tiny_dataset):
        model = build_tiny_model(tiny_dataset.num_classes, tiny_dataset.image_size)
        names = [name for name, _ in model.named_layers()]
        assert len(names) == len(set(names))

    def test_parameter_count_positive(self):
        model = build_tiny_model()
        assert model.parameter_count() > 0
        assert len(model.parameters()) >= 6

    def test_predict_and_accuracy(self, tiny_model, tiny_dataset):
        predictions = tiny_model.predict(tiny_dataset.x_test)
        assert predictions.shape == (tiny_dataset.x_test.shape[0],)
        accuracy = tiny_model.accuracy(tiny_dataset.x_test, tiny_dataset.y_test)
        assert 0.0 <= accuracy <= 1.0

    def test_predict_proba_rows_sum_to_one(self, tiny_model, tiny_dataset):
        probabilities = tiny_model.predict_proba(tiny_dataset.x_test[:8])
        assert np.allclose(probabilities.sum(axis=1), 1.0)

    def test_state_dict_round_trip(self, tiny_dataset):
        source = build_tiny_model(tiny_dataset.num_classes, tiny_dataset.image_size, rng=11)
        target = build_tiny_model(tiny_dataset.num_classes, tiny_dataset.image_size, rng=99)
        target.load_state_dict(source.state_dict())
        x = tiny_dataset.x_test[:4]
        assert np.allclose(source.forward(x), target.forward(x))

    def test_state_dict_mismatch_detected(self, tiny_dataset):
        source = build_tiny_model(tiny_dataset.num_classes, tiny_dataset.image_size)
        other = build_tiny_flat_model(tiny_dataset.num_classes, tiny_dataset.image_size)
        with pytest.raises(ValueError):
            other.load_state_dict(source.state_dict())

    def test_save_and_load(self, tmp_path, tiny_dataset):
        source = build_tiny_model(tiny_dataset.num_classes, tiny_dataset.image_size, rng=17)
        path = tmp_path / "model.npz"
        source.save(path)
        clone = build_tiny_model(tiny_dataset.num_classes, tiny_dataset.image_size, rng=23)
        clone.load(path)
        x = tiny_dataset.x_test[:4]
        assert np.allclose(source.forward(x), clone.forward(x))

    def test_empty_model_rejected(self):
        with pytest.raises(ValueError):
            Model([], name="empty")


class TestTraining:
    def test_training_reduces_loss_and_learns(self, tiny_dataset):
        model = build_tiny_model(tiny_dataset.num_classes, tiny_dataset.image_size)
        trainer = SGDTrainer(epochs=8, batch_size=32, learning_rate=0.1)
        history = trainer.fit(
            model,
            tiny_dataset.x_train,
            tiny_dataset.y_train,
            x_val=tiny_dataset.x_test,
            y_val=tiny_dataset.y_test,
            rng=0,
        )
        assert history.train_loss[-1] < history.train_loss[0]
        chance = 1.0 / tiny_dataset.num_classes
        assert history.final_train_accuracy > chance + 0.15
        assert history.final_validation_accuracy > chance

    def test_dense_only_model_trains(self, tiny_dataset):
        flat_train = tiny_dataset.x_train.reshape(tiny_dataset.x_train.shape[0], -1)
        model = Model(
            [Dense(flat_train.shape[1], 16, rng=0), ReLU(), Dense(16, tiny_dataset.num_classes, rng=1)],
            name="mlp",
        )
        history = SGDTrainer(epochs=6, batch_size=32).fit(model, flat_train, tiny_dataset.y_train, rng=0)
        assert history.final_train_accuracy > 0.5

    def test_reproducible_training(self, tiny_dataset):
        results = []
        for _ in range(2):
            model = build_tiny_model(tiny_dataset.num_classes, tiny_dataset.image_size, rng=5)
            SGDTrainer(epochs=2, batch_size=32).fit(model, tiny_dataset.x_train, tiny_dataset.y_train, rng=0)
            results.append(model.forward(tiny_dataset.x_test[:4]))
        assert np.allclose(results[0], results[1])

    def test_fit_drops_backward_caches(self, tiny_dataset, monkeypatch):
        def train():
            model = build_tiny_model(tiny_dataset.num_classes, tiny_dataset.image_size, rng=5)
            SGDTrainer(epochs=2, batch_size=32).fit(model, tiny_dataset.x_train, tiny_dataset.y_train, rng=0)
            return model

        model = train()
        for name, layer in model.named_layers():
            for attribute in layer._training_state:
                assert getattr(layer, attribute) is None, (name, attribute)
        tensor_bytes = sum(param.value.nbytes + param.grad.nbytes for param in model.parameters())
        assert len(pickle.dumps(model)) < 2 * tensor_bytes

        # Clearing changes nothing the model computes; the caches it drops
        # outweigh the parameters many times over.
        monkeypatch.setattr(Model, "clear_training_state", lambda self: None)
        cached = train()
        assert len(pickle.dumps(cached)) > 10 * tensor_bytes
        for key, value in model.state_dict().items():
            assert value.tobytes() == cached.state_dict()[key].tobytes(), key
        x_test, y_test = tiny_dataset.x_test, tiny_dataset.y_test
        assert model.accuracy(x_test, y_test) == cached.accuracy(x_test, y_test)

    def test_invalid_trainer_settings(self):
        with pytest.raises(ValueError):
            SGDTrainer(learning_rate=0.0)
        with pytest.raises(ValueError):
            SGDTrainer(momentum=1.0)
        with pytest.raises(ValueError):
            SGDTrainer(epochs=0)

    def test_mismatched_training_data_rejected(self, tiny_dataset):
        model = build_tiny_model(tiny_dataset.num_classes, tiny_dataset.image_size)
        with pytest.raises(ValueError):
            SGDTrainer(epochs=1).fit(model, tiny_dataset.x_train, tiny_dataset.y_train[:5])


class TestDataset:
    def test_shapes_and_labels(self, tiny_dataset):
        assert tiny_dataset.x_train.shape[1:] == tiny_dataset.input_shape
        assert tiny_dataset.y_train.max() < tiny_dataset.num_classes
        assert tiny_dataset.x_train.shape[0] == 4 * 30
        assert tiny_dataset.x_test.shape[0] == 4 * 12

    def test_generation_is_deterministic(self):
        first = SyntheticImageDataset.generate(num_classes=3, image_size=8, train_per_class=5, test_per_class=2, seed=9)
        second = SyntheticImageDataset.generate(num_classes=3, image_size=8, train_per_class=5, test_per_class=2, seed=9)
        assert np.array_equal(first.x_train, second.x_train)
        assert np.array_equal(first.y_test, second.y_test)

    def test_different_seeds_differ(self):
        first = SyntheticImageDataset.generate(num_classes=3, image_size=8, train_per_class=5, test_per_class=2, seed=1)
        second = SyntheticImageDataset.generate(num_classes=3, image_size=8, train_per_class=5, test_per_class=2, seed=2)
        assert not np.array_equal(first.x_train, second.x_train)

    def test_calibration_split(self, tiny_dataset):
        calibration = tiny_dataset.calibration_split(10, seed=0)
        assert calibration.shape == (10,) + tiny_dataset.input_shape

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SyntheticImageDataset.generate(num_classes=1)
        with pytest.raises(ValueError):
            SyntheticImageDataset.generate(image_size=4)


class TestZoo:
    def test_table1_and_fig1b_architectures_buildable(self):
        for name in set(TABLE1_NETWORKS) | set(FIG1B_NETWORKS):
            model = build_model(name, num_classes=4, image_size=16, rng=0)
            logits = model.forward(np.zeros((2, 3, 16, 16)))
            assert logits.shape == (2, 4)

    def test_family_depth_ordering(self):
        sizes = {
            name: build_model(name, num_classes=4, image_size=16).parameter_count()
            for name in ("resnet50", "resnet101", "resnet152")
        }
        assert sizes["resnet50"] < sizes["resnet101"] < sizes["resnet152"]

    def test_wide_resnet_is_wider(self):
        assert (
            build_model("wide_resnet50", num_classes=4).parameter_count()
            > build_model("resnet50", num_classes=4).parameter_count()
        )

    def test_squeezenet_is_smallest_table1_network(self):
        sizes = {
            name: build_model(name, num_classes=4, image_size=16).parameter_count()
            for name in TABLE1_NETWORKS
        }
        assert min(sizes, key=sizes.get) == "squeezenet"

    def test_unknown_architecture(self):
        with pytest.raises(KeyError):
            build_model("mobilenet")

    def test_display_names(self):
        assert display_name("squeezenet") == "SqueezeNet 1.1"
        assert display_name("unknown_net") == "unknown_net"
        assert len(available_architectures()) == 13

    def test_pretrained_caching(self, tmp_path):
        dataset = SyntheticImageDataset.generate(
            num_classes=3, image_size=8, train_per_class=8, test_per_class=4, seed=3
        )
        trainer = SGDTrainer(epochs=1, batch_size=16)
        first = get_pretrained("squeezenet", dataset, trainer=trainer, cache_dir=tmp_path, seed=0)
        assert first.from_cache is False
        second = get_pretrained("squeezenet", dataset, trainer=trainer, cache_dir=tmp_path, seed=0)
        assert second.from_cache is True
        x = dataset.x_test[:4]
        assert np.allclose(first.model.forward(x), second.model.forward(x))
