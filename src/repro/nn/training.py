"""Mini-batch SGD training for the synthetic model zoo.

The paper uses pre-trained torchvision models; offline we train the zoo
ourselves on the synthetic dataset.  Training is deliberately simple (SGD
with momentum, cosine learning-rate decay, optional weight decay) — the goal
is reproducible FP32 reference accuracies for the quantization study, not
state-of-the-art optimisation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nn.losses import softmax_cross_entropy
from repro.nn.model import Model
from repro.utils.rng import make_rng


@dataclass
class TrainingHistory:
    """Per-epoch metrics collected during training."""

    epochs: list[int] = field(default_factory=list)
    train_loss: list[float] = field(default_factory=list)
    train_accuracy: list[float] = field(default_factory=list)
    validation_accuracy: list[float] = field(default_factory=list)

    @property
    def final_train_accuracy(self) -> float:
        return self.train_accuracy[-1] if self.train_accuracy else 0.0

    @property
    def final_validation_accuracy(self) -> float:
        return self.validation_accuracy[-1] if self.validation_accuracy else 0.0


@dataclass
class SGDTrainer:
    """Stochastic gradient descent with momentum and cosine decay.

    Attributes:
        learning_rate: initial learning rate.
        momentum: classical momentum coefficient.
        weight_decay: L2 regularisation strength.
        batch_size: mini-batch size.
        epochs: number of passes over the training set.
        label_smoothing: label smoothing used by the loss.
        cosine_decay: whether to anneal the learning rate with a cosine
            schedule down to 5 % of the initial value.
        clip_grad_norm: global gradient-norm clipping threshold, or ``None``
            to disable.  The zoo's residual networks have no normalisation
            layers, so an occasional exploding mini-batch gradient can throw
            a partially-trained model back to chance accuracy; clipping keeps
            every architecture on its stable trajectory.
    """

    learning_rate: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 1e-4
    batch_size: int = 64
    epochs: int = 10
    label_smoothing: float = 0.0
    cosine_decay: bool = True
    clip_grad_norm: float | None = 5.0

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must be in [0, 1)")
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be >= 1")
        if self.clip_grad_norm is not None and self.clip_grad_norm <= 0:
            raise ValueError("clip_grad_norm must be positive (or None)")

    def _epoch_learning_rate(self, epoch: int) -> float:
        if not self.cosine_decay or self.epochs == 1:
            return self.learning_rate
        progress = epoch / (self.epochs - 1)
        floor = 0.05 * self.learning_rate
        return floor + 0.5 * (self.learning_rate - floor) * (1 + np.cos(np.pi * progress))

    def fit(
        self,
        model: Model,
        x_train: np.ndarray,
        y_train: np.ndarray,
        x_val: np.ndarray | None = None,
        y_val: np.ndarray | None = None,
        rng: "int | np.random.Generator | None" = None,
        verbose: bool = False,
    ) -> TrainingHistory:
        """Train ``model`` in place and return the training history.

        On return, also on error, no layer keeps the activations of the
        last training forward pass.
        """
        if x_train.shape[0] != y_train.shape[0]:
            raise ValueError("x_train and y_train must have the same number of samples")
        generator = make_rng(rng)
        velocities = {id(param): np.zeros_like(param.value) for param in model.parameters()}
        history = TrainingHistory()
        num_samples = x_train.shape[0]

        try:
            for epoch in range(self.epochs):
                learning_rate = self._epoch_learning_rate(epoch)
                permutation = generator.permutation(num_samples)
                epoch_loss = 0.0
                correct = 0
                for start in range(0, num_samples, self.batch_size):
                    batch_idx = permutation[start : start + self.batch_size]
                    batch_x = x_train[batch_idx]
                    batch_y = y_train[batch_idx]
                    model.zero_grad()
                    logits = model.forward(batch_x, training=True)
                    loss, grad = softmax_cross_entropy(logits, batch_y, self.label_smoothing)
                    model.backward(grad)
                    epoch_loss += loss * batch_x.shape[0]
                    correct += int((logits.argmax(axis=1) == batch_y).sum())
                    if self.clip_grad_norm is not None:
                        total = 0.0
                        for param in model.parameters():
                            total += float(np.sum(param.grad * param.grad))
                        norm = np.sqrt(total)
                        if norm > self.clip_grad_norm:
                            scale = self.clip_grad_norm / norm
                            for param in model.parameters():
                                param.grad *= scale
                    for param in model.parameters():
                        if self.weight_decay > 0:
                            param.grad += self.weight_decay * param.value
                        velocity = velocities[id(param)]
                        velocity *= self.momentum
                        velocity -= learning_rate * param.grad
                        param.value += velocity

                history.epochs.append(epoch)
                history.train_loss.append(epoch_loss / num_samples)
                history.train_accuracy.append(correct / num_samples)
                if x_val is not None and y_val is not None:
                    history.validation_accuracy.append(model.accuracy(x_val, y_val))
                if verbose:  # pragma: no cover - logging only
                    val = (
                        f", val acc {history.validation_accuracy[-1]:.3f}"
                        if history.validation_accuracy
                        else ""
                    )
                    print(
                        f"[{model.name}] epoch {epoch + 1}/{self.epochs}: "
                        f"loss {history.train_loss[-1]:.4f}, "
                        f"train acc {history.train_accuracy[-1]:.3f}{val}"
                    )
        finally:
            # The layers' backward-pass activations are pickled with the
            # model otherwise (tens of MB for a ResNet).
            model.clear_training_state()
        return history
