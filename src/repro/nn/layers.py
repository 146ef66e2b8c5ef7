"""Neural-network layers with forward, backward and quantized execution.

The layer set covers what the paper's model zoo needs (plain conv stacks,
residual networks, SqueezeNet-style fire modules): 2-D convolution, dense,
ReLU, max pooling, global average pooling and flatten.  Every layer
implements

* ``forward`` / ``backward`` — FP32 training and inference,
* ``forward_quantized`` — execution under a
  :class:`~repro.nn.quantized.QuantizationContext`, where convolution and
  dense layers run on the integer MAC path (and optionally inject
  multiplication faults) over their input's activation codes, while
  shape/activation layers simply pass through.  The context's
  ``channels_last`` decides the column order a convolution unfolds into.
"""

from __future__ import annotations

import numpy as np

from repro.nn.functional import col2im, conv_output_size, im2col
from repro.utils.rng import make_rng


class Parameter:
    """A trainable tensor with its gradient accumulator."""

    def __init__(self, name: str, value: np.ndarray) -> None:
        self.name = name
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Parameter({self.name!r}, shape={self.value.shape})"


class Layer:
    """Base class for all layers."""

    #: Attributes a training forward pass fills for ``backward``.
    _training_state: tuple[str, ...] = ()

    def __init__(self) -> None:
        self.name = type(self).__name__.lower()

    # --------------------------------------------------------------- training
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # ------------------------------------------------------------- structure
    def parameters(self) -> list[Parameter]:
        return []

    def children(self) -> "list[Layer]":
        return []

    def all_parameters(self) -> list[Parameter]:
        """Parameters of this layer and all nested children."""
        params = list(self.parameters())
        for child in self.children():
            params.extend(child.all_parameters())
        return params

    def clear_training_state(self) -> None:
        """Drop what training forward passes kept here and in every child."""
        for attribute in self._training_state:
            setattr(self, attribute, None)
        for child in self.children():
            child.clear_training_state()

    # ------------------------------------------------------------- quantized
    def forward_quantized(self, x: np.ndarray, context) -> np.ndarray:
        """Execute under quantization; default layers are unaffected."""
        return self.forward(x, training=False)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(name={self.name!r})"


class Conv2D(Layer):
    """2-D convolution (NCHW, square kernels) executed through im2col."""

    _training_state = ("_cache",)

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int = 3,
        stride: int = 1,
        padding: int | None = None,
        rng: "int | np.random.Generator | None" = None,
    ) -> None:
        super().__init__()
        if in_channels < 1 or out_channels < 1 or kernel_size < 1 or stride < 1:
            raise ValueError("convolution dimensions must be positive")
        generator = make_rng(rng)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = kernel_size // 2 if padding is None else padding
        fan_in = in_channels * kernel_size * kernel_size
        init_std = np.sqrt(2.0 / fan_in)
        self.weight = Parameter(
            "weight",
            generator.normal(0.0, init_std, (out_channels, in_channels, kernel_size, kernel_size)),
        )
        self.bias = Parameter("bias", np.zeros(out_channels))
        self._cache: tuple | None = None

    def parameters(self) -> list[Parameter]:
        return [self.weight, self.bias]

    # ----------------------------------------------------------------- shapes
    def output_shape(self, input_shape: tuple[int, int, int]) -> tuple[int, int, int]:
        """(C, H, W) output shape for a (C, H, W) input shape."""
        _, height, width = input_shape
        out_h = conv_output_size(height, self.kernel_size, self.stride, self.padding)
        out_w = conv_output_size(width, self.kernel_size, self.stride, self.padding)
        return (self.out_channels, out_h, out_w)

    def macs_per_sample(self, input_shape: tuple[int, int, int]) -> int:
        """Number of multiply-accumulate operations for one input sample."""
        _, out_h, out_w = self.output_shape(input_shape)
        return (
            out_h
            * out_w
            * self.out_channels
            * self.in_channels
            * self.kernel_size
            * self.kernel_size
        )

    # --------------------------------------------------------------- training
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        columns, out_h, out_w = im2col(
            x, self.kernel_size, self.kernel_size, self.stride, self.padding
        )
        weight_matrix = self.weight.value.reshape(self.out_channels, -1)
        output = columns @ weight_matrix.T + self.bias.value
        batch = x.shape[0]
        output = output.reshape(batch, out_h, out_w, self.out_channels).transpose(0, 3, 1, 2)
        if training:
            self._cache = (x.shape, columns)
        return output

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before a training forward pass")
        x_shape, columns = self._cache
        batch, _, out_h, out_w = grad.shape
        grad_matrix = grad.transpose(0, 2, 3, 1).reshape(batch * out_h * out_w, self.out_channels)
        weight_matrix = self.weight.value.reshape(self.out_channels, -1)
        self.weight.grad += (grad_matrix.T @ columns).reshape(self.weight.value.shape)
        self.bias.grad += grad_matrix.sum(axis=0)
        grad_columns = grad_matrix @ weight_matrix
        return col2im(
            grad_columns, x_shape, self.kernel_size, self.kernel_size, self.stride, self.padding
        )

    # ------------------------------------------------------------- quantized
    def forward_quantized(self, x: np.ndarray, context) -> np.ndarray:
        operand, pad_value = context.layer_input(self, x)
        columns, out_h, out_w = im2col(
            operand,
            self.kernel_size,
            self.kernel_size,
            self.stride,
            self.padding,
            pad_value,
            channels_last=context.channels_last,
        )
        output = context.linear(self, columns, self.weight.value, self.bias.value)
        batch = x.shape[0]
        return output.reshape(batch, out_h, out_w, self.out_channels).transpose(0, 3, 1, 2)


class Dense(Layer):
    """Fully connected layer over flattened features."""

    _training_state = ("_cache",)

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: "int | np.random.Generator | None" = None,
    ) -> None:
        super().__init__()
        if in_features < 1 or out_features < 1:
            raise ValueError("dense dimensions must be positive")
        generator = make_rng(rng)
        self.in_features = in_features
        self.out_features = out_features
        init_std = np.sqrt(2.0 / in_features)
        self.weight = Parameter("weight", generator.normal(0.0, init_std, (out_features, in_features)))
        self.bias = Parameter("bias", np.zeros(out_features))
        self._cache: np.ndarray | None = None

    def parameters(self) -> list[Parameter]:
        return [self.weight, self.bias]

    def macs_per_sample(self) -> int:
        """Number of multiply-accumulate operations for one input sample."""
        return self.in_features * self.out_features

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if training:
            self._cache = x
        return x @ self.weight.value.T + self.bias.value

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before a training forward pass")
        x = self._cache
        self.weight.grad += grad.T @ x
        self.bias.grad += grad.sum(axis=0)
        return grad @ self.weight.value

    def forward_quantized(self, x: np.ndarray, context) -> np.ndarray:
        operand, _ = context.layer_input(self, x)
        return context.linear(self, operand, self.weight.value, self.bias.value)


class ReLU(Layer):
    """Rectified linear activation."""

    _training_state = ("_mask",)

    def __init__(self) -> None:
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if training:
            self._mask = x > 0
        return np.maximum(x, 0.0)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before a training forward pass")
        return grad * self._mask


class MaxPool2D(Layer):
    """Non-overlapping max pooling (pool size equals stride).

    Each window's maximum is taken over the ``pool * pool`` strided views
    ``x[:, :, di::pool, dj::pool]``: the output starts as a copy of the
    first, in the input's memory order, and ``np.maximum`` folds in the
    others in row-major offset order.  That gives the maxima of a reshape
    and ``max`` over the window axes bit for bit (NaN propagates, and ties
    between ``+0.0`` and ``-0.0`` resolve alike) without reducing over two
    strided inner axes.  The backward pass walks the same offsets.
    """

    _training_state = ("_cache",)

    def __init__(self, pool_size: int = 2) -> None:
        super().__init__()
        if pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        self.pool_size = pool_size
        self._cache: tuple | None = None

    def _offsets(self) -> list[tuple[int, int]]:
        pool = self.pool_size
        return [(di, dj) for di in range(pool) for dj in range(pool)]

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        _, _, height, width = x.shape
        pool = self.pool_size
        if height % pool or width % pool:
            raise ValueError(
                f"input spatial size ({height}x{width}) not divisible by pool size {pool}"
            )
        output = x[:, :, ::pool, ::pool].copy(order="K")
        for di, dj in self._offsets()[1:]:
            np.maximum(output, x[:, :, di::pool, dj::pool], out=output)
        if training:
            self._cache = (x, output)
        return output

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before a training forward pass")
        x, output = self._cache
        pool = self.pool_size
        offsets = self._offsets()
        masks = [x[:, :, di::pool, dj::pool] == output for di, dj in offsets]
        # Split gradient evenly between positions that tie for the maximum.
        share = grad / np.maximum(sum(masks), 1)
        grad_input = np.zeros(x.shape, dtype=share.dtype)
        for (di, dj), mask in zip(offsets, masks):
            np.copyto(grad_input[:, :, di::pool, dj::pool], share, where=mask)
        return grad_input


class GlobalAvgPool2D(Layer):
    """Average over the spatial dimensions, producing (N, C)."""

    _training_state = ("_shape",)

    def __init__(self) -> None:
        super().__init__()
        self._shape: tuple | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if training:
            self._shape = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called before a training forward pass")
        batch, channels, height, width = self._shape
        expanded = grad[:, :, None, None] / (height * width)
        return np.broadcast_to(expanded, self._shape).copy()


class Flatten(Layer):
    """Flatten all dimensions after the batch dimension."""

    _training_state = ("_shape",)

    def __init__(self) -> None:
        super().__init__()
        self._shape: tuple | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if training:
            self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called before a training forward pass")
        return grad.reshape(self._shape)
