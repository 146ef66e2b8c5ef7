"""Tests of the composite blocks (residual, fire) and their quantized execution."""

import numpy as np
import pytest

from repro.nn.blocks import FireModule, ResidualBlock
from repro.nn.layers import Conv2D
from repro.nn.model import Model
from repro.nn.quantized import QuantizedModel, record_calibration
from repro.quantization.registry import get_method


class TestResidualBlock:
    def test_identity_shortcut_when_shapes_match(self):
        block = ResidualBlock(8, 8, stride=1, rng=0)
        assert block.shortcut is None
        assert len(block.children()) == 4

    def test_projection_shortcut_when_shapes_change(self):
        block = ResidualBlock(8, 16, stride=2, rng=0)
        assert isinstance(block.shortcut, Conv2D)
        assert block.shortcut.kernel_size == 1

    def test_forward_shapes(self):
        x = np.random.default_rng(0).normal(size=(2, 8, 8, 8))
        same = ResidualBlock(8, 8, rng=0).forward(x)
        assert same.shape == (2, 8, 8, 8)
        downsampled = ResidualBlock(8, 16, stride=2, rng=0).forward(x)
        assert downsampled.shape == (2, 16, 4, 4)

    def test_outputs_are_non_negative(self):
        x = np.random.default_rng(1).normal(size=(2, 4, 8, 8))
        output = ResidualBlock(4, 4, rng=0).forward(x)
        assert output.min() >= 0.0

    def test_backward_shape_matches_input(self):
        block = ResidualBlock(4, 8, stride=2, rng=0)
        x = np.random.default_rng(2).normal(size=(3, 4, 8, 8))
        output = block.forward(x, training=True)
        grad = block.backward(np.ones_like(output))
        assert grad.shape == x.shape

    def test_parameters_counted_once(self):
        block = ResidualBlock(4, 8, stride=2, rng=0)
        names = [id(parameter) for parameter in block.all_parameters()]
        assert len(names) == len(set(names))
        assert len(block.all_parameters()) == 6  # 3 convs x (weight, bias)


class TestFireModule:
    def test_forward_concatenates_expand_paths(self):
        module = FireModule(8, 4, 6, rng=0)
        x = np.random.default_rng(0).normal(size=(2, 8, 8, 8))
        output = module.forward(x)
        assert output.shape == (2, 12, 8, 8)
        assert module.out_channels == 12

    def test_backward_shape(self):
        module = FireModule(4, 2, 3, rng=0)
        x = np.random.default_rng(1).normal(size=(2, 4, 6, 6))
        output = module.forward(x, training=True)
        grad = module.backward(np.ones_like(output))
        assert grad.shape == x.shape

    def test_children_enumeration(self):
        module = FireModule(4, 2, 3, rng=0)
        assert len(module.children()) == 5
        assert len(module.all_parameters()) == 6


class TestQuantizedBlocks:
    @pytest.mark.parametrize(
        "block_factory,in_channels",
        [
            (lambda: ResidualBlock(3, 6, stride=2, rng=0), 3),
            (lambda: FireModule(3, 2, 3, rng=0), 3),
        ],
    )
    def test_high_precision_quantized_forward_matches_fp32(self, block_factory, in_channels):
        block = block_factory()
        head_channels = block.out_channels if isinstance(block, FireModule) else 6
        from repro.nn.layers import Dense, GlobalAvgPool2D

        model = Model([block, GlobalAvgPool2D(), Dense(head_channels, 3, rng=1)], name="block_model")
        rng = np.random.default_rng(3)
        x = np.abs(rng.normal(size=(8, in_channels, 8, 8)))
        calibration = x[:4]
        quantized = QuantizedModel.build(
            model, get_method("M2"), 8, 8, record_calibration(model, calibration)
        )
        fp32_logits = model.forward(x)
        quant_logits = quantized.predict_logits(x)
        scale = np.abs(fp32_logits).max() + 1e-9
        assert np.abs(fp32_logits - quant_logits).max() / scale < 0.2
        # The argmax decisions should almost always agree at 8 bits.
        agreement = (fp32_logits.argmax(1) == quant_logits.argmax(1)).mean()
        assert agreement >= 0.75
