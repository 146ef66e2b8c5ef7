"""Sequential model container with save/load and quantized execution."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.nn.functional import softmax
from repro.nn.layers import Layer, Parameter


class Model:
    """A feed-forward model: an ordered list of (possibly composite) layers."""

    def __init__(self, layers: list[Layer], name: str = "model", num_classes: int | None = None) -> None:
        if not layers:
            raise ValueError("a model needs at least one layer")
        self.layers = list(layers)
        self.name = name
        self.num_classes = num_classes
        self._assign_names()

    # -------------------------------------------------------------- structure
    def _assign_names(self) -> None:
        """Give every (nested) layer a stable hierarchical name."""

        def assign(layer: Layer, prefix: str) -> None:
            layer.name = prefix
            for index, child in enumerate(layer.children()):
                assign(child, f"{prefix}.{index}_{type(child).__name__.lower()}")

        for index, layer in enumerate(self.layers):
            assign(layer, f"{index}_{type(layer).__name__.lower()}")

    def named_layers(self) -> list[tuple[str, Layer]]:
        """All layers (including nested children), depth-first."""

        result: list[tuple[str, Layer]] = []

        def visit(layer: Layer) -> None:
            result.append((layer.name, layer))
            for child in layer.children():
                visit(child)

        for layer in self.layers:
            visit(layer)
        return result

    def parameters(self) -> list[Parameter]:
        params: list[Parameter] = []
        for layer in self.layers:
            params.extend(layer.all_parameters())
        return params

    def parameter_count(self) -> int:
        return int(sum(param.value.size for param in self.parameters()))

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def clear_training_state(self) -> None:
        """Drop the activations every layer kept for a backward pass."""
        for layer in self.layers:
            layer.clear_training_state()

    # ---------------------------------------------------------------- forward
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x, training)
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def forward_quantized(self, x: np.ndarray, context) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward_quantized(x, context)
        return x

    # -------------------------------------------------------------- inference
    def predict_logits(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Batched forward pass returning raw logits."""
        outputs = []
        for start in range(0, x.shape[0], batch_size):
            outputs.append(self.forward(x[start : start + batch_size], training=False))
        return np.concatenate(outputs, axis=0)

    def predict_proba(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        return softmax(self.predict_logits(x, batch_size))

    def predict(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        return self.predict_logits(x, batch_size).argmax(axis=1)

    def accuracy(self, x: np.ndarray, labels: np.ndarray, batch_size: int = 256) -> float:
        """Top-1 accuracy on ``(x, labels)``."""
        predictions = self.predict(x, batch_size)
        return float((predictions == np.asarray(labels)).mean())

    # ------------------------------------------------------------ persistence
    def state_dict(self) -> dict[str, np.ndarray]:
        """Flat mapping of hierarchical parameter names to values."""
        state: dict[str, np.ndarray] = {}
        for layer_name, layer in self.named_layers():
            for param in layer.parameters():
                state[f"{layer_name}/{param.name}"] = param.value.copy()
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameter values produced by :meth:`state_dict`."""
        expected = {}
        for layer_name, layer in self.named_layers():
            for param in layer.parameters():
                expected[f"{layer_name}/{param.name}"] = param
        missing = sorted(set(expected) - set(state))
        unexpected = sorted(set(state) - set(expected))
        if missing or unexpected:
            raise ValueError(
                f"state dict mismatch for model {self.name!r}: "
                f"missing={missing[:5]}, unexpected={unexpected[:5]}"
            )
        for key, param in expected.items():
            value = np.asarray(state[key], dtype=np.float64)
            if value.shape != param.value.shape:
                raise ValueError(
                    f"shape mismatch for {key}: expected {param.value.shape}, got {value.shape}"
                )
            param.value = value.copy()
            param.grad = np.zeros_like(param.value)

    def save(self, path: "str | Path") -> None:
        """Persist parameters (and metadata) to an ``.npz`` file."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {f"param:{key}": value for key, value in self.state_dict().items()}
        payload["meta:name"] = np.array(self.name)
        payload["meta:num_classes"] = np.array(self.num_classes if self.num_classes else -1)
        np.savez_compressed(path, **payload)

    def load(self, path: "str | Path") -> None:
        """Restore parameters previously written by :meth:`save`."""
        with np.load(Path(path), allow_pickle=False) as data:
            state = {
                key[len("param:") :]: data[key] for key in data.files if key.startswith("param:")
            }
        self.load_state_dict(state)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Model(name={self.name!r}, layers={len(self.layers)}, "
            f"parameters={self.parameter_count()})"
        )
