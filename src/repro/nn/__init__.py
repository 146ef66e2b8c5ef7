"""NumPy neural-network substrate (offline stand-in for PyTorch/torchvision).

Provides everything the paper's system-level evaluation needs: layers and
models with training support, a synthetic dataset, a model zoo mirroring the
paper's ten ImageNet networks, integer (quantized) execution on the MAC
datapath, and MSB bit-flip fault injection for the unprotected-NPU baseline.
"""

from repro.nn.blocks import FireModule, ResidualBlock
from repro.nn.datasets import SyntheticImageDataset
from repro.nn.evaluate import (
    QuantizedEvaluation,
    evaluate_with_fault_injection,
    quantize_and_evaluate,
)
from repro.nn.faults import MsbBitFlipInjector
from repro.nn.layers import (
    Conv2D,
    Dense,
    Flatten,
    GlobalAvgPool2D,
    Layer,
    MaxPool2D,
    Parameter,
    ReLU,
)
from repro.nn.losses import softmax_cross_entropy
from repro.nn.model import Model
from repro.nn.quantized import LayerQuantization, QuantizationContext, QuantizedModel
from repro.nn.training import SGDTrainer, TrainingHistory
from repro.nn.zoo import (
    FIG1B_NETWORKS,
    TABLE1_NETWORKS,
    PretrainedModel,
    available_architectures,
    build_model,
    default_cache_dir,
    display_name,
    get_pretrained,
)

__all__ = [
    "FireModule",
    "ResidualBlock",
    "SyntheticImageDataset",
    "QuantizedEvaluation",
    "evaluate_with_fault_injection",
    "quantize_and_evaluate",
    "MsbBitFlipInjector",
    "Conv2D",
    "Dense",
    "Flatten",
    "GlobalAvgPool2D",
    "Layer",
    "MaxPool2D",
    "Parameter",
    "ReLU",
    "softmax_cross_entropy",
    "Model",
    "LayerQuantization",
    "QuantizationContext",
    "QuantizedModel",
    "SGDTrainer",
    "TrainingHistory",
    "FIG1B_NETWORKS",
    "TABLE1_NETWORKS",
    "PretrainedModel",
    "available_architectures",
    "build_model",
    "default_cache_dir",
    "display_name",
    "get_pretrained",
]
