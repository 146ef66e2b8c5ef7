"""Core quantization primitives shared by all methods.

The hardware model is the paper's: quantized operands are *unsigned*
integers in ``[0, 2^bits)`` (8-bit for the uncompressed MAC, ``8-α`` /
``8-β`` under compression), related to real values through an affine
mapping ``real = scale * (q - zero_point)``.  Each quantization method only
differs in how it chooses the clipping range the affine mapping covers.
"""

from __future__ import annotations

import abc
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TensorStatistics:
    """Summary statistics of a tensor used by range-setting heuristics."""

    minimum: float
    maximum: float
    mean: float
    std: float
    mean_abs_deviation: float

    @classmethod
    def from_array(cls, values: np.ndarray) -> "TensorStatistics":
        flat = np.asarray(values, dtype=np.float64).ravel()
        if flat.size == 0:
            raise ValueError("cannot compute statistics of an empty tensor")
        mean = float(flat.mean())
        return cls(
            minimum=float(flat.min()),
            maximum=float(flat.max()),
            mean=mean,
            std=float(flat.std()),
            mean_abs_deviation=float(np.abs(flat - mean).mean()),
        )


@dataclass(frozen=True)
class QuantParams:
    """Affine quantization parameters for one tensor (or one channel).

    Attributes:
        scale: positive real step size; scalar or per-channel array.
        zero_point: integer offset mapping real 0.0 into the unsigned grid;
            scalar or per-channel array (same shape as ``scale``).
        num_bits: width of the unsigned integer representation.
        channel_axis: axis the per-channel parameters broadcast over, or
            ``None`` for per-tensor parameters.
    """

    scale: np.ndarray
    zero_point: np.ndarray
    num_bits: int
    channel_axis: int | None = None

    def __post_init__(self) -> None:
        if self.num_bits < 1:
            raise ValueError("num_bits must be >= 1")
        scale = np.asarray(self.scale, dtype=np.float64)
        # Written so that a NaN scale fails the test too.
        if not np.all(scale > 0):
            raise ValueError("scale must be strictly positive")
        zero_point = np.asarray(self.zero_point, dtype=np.float64)
        if not np.all(np.isfinite(zero_point)):
            raise ValueError("zero_point must be finite")
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "zero_point", zero_point)

    # ------------------------------------------------------------------ levels
    @property
    def num_levels(self) -> int:
        return 1 << self.num_bits

    @property
    def max_level(self) -> int:
        return self.num_levels - 1

    # --------------------------------------------------------------- factories
    @classmethod
    def from_range(
        cls,
        minimum: "float | np.ndarray",
        maximum: "float | np.ndarray",
        num_bits: int,
        channel_axis: int | None = None,
    ) -> "QuantParams":
        """Build parameters covering ``[minimum, maximum]`` with an asymmetric grid."""
        minimum = np.minimum(np.asarray(minimum, dtype=np.float64), 0.0)
        maximum = np.maximum(np.asarray(maximum, dtype=np.float64), 0.0)
        # A floor on the span keeps the step size representable even for
        # constant or denormal-valued tensors.
        span = np.maximum(maximum - minimum, 1e-8)
        scale = span / ((1 << num_bits) - 1)
        zero_point = np.clip(np.round(-minimum / scale), 0, (1 << num_bits) - 1)
        return cls(scale=scale, zero_point=zero_point, num_bits=num_bits, channel_axis=channel_axis)

    @classmethod
    def symmetric(
        cls,
        max_abs: "float | np.ndarray",
        num_bits: int,
        channel_axis: int | None = None,
    ) -> "QuantParams":
        """Symmetric grid centred on zero (zero_point at mid-scale)."""
        max_abs = np.asarray(max_abs, dtype=np.float64)
        max_abs = np.maximum(max_abs, 1e-8)
        half_levels = (1 << (num_bits - 1)) - 1 if num_bits > 1 else 1
        scale = max_abs / half_levels
        zero_point = np.full_like(scale, float(1 << (num_bits - 1)))
        return cls(scale=scale, zero_point=zero_point, num_bits=num_bits, channel_axis=channel_axis)

    # ------------------------------------------------------------- broadcasting
    def _broadcast(self, values: np.ndarray, array: np.ndarray) -> np.ndarray:
        if self.channel_axis is None or array.ndim == 0:
            return array
        shape = [1] * values.ndim
        shape[self.channel_axis] = -1
        return array.reshape(shape)

    # ------------------------------------------------------------------- codec
    def quantize(self, values: np.ndarray, dtype: "type | np.dtype" = np.int64) -> np.ndarray:
        """Map real values onto the unsigned integer grid (with saturation).

        The codes come back as ``dtype``: int64 by default, or a float type
        for a caller that computes on the codes in floating point.  They are
        rounded and saturated in place in one float64 buffer and cast once.
        """
        values = np.asarray(values, dtype=np.float64)
        scale = self._broadcast(values, self.scale)
        zero_point = self._broadcast(values, self.zero_point)
        q = np.asarray(values / scale)
        q += zero_point
        np.round(q, out=q)
        np.clip(q, 0, self.max_level, out=q)
        if np.issubdtype(dtype, np.floating):
            # Rounding can leave -0.0; a float code of zero is +0.0, as
            # when it passes through an integer.
            q += 0.0
        return q.astype(dtype)

    def dequantize(self, quantized: np.ndarray) -> np.ndarray:
        """Map unsigned integers back to real values."""
        quantized = np.asarray(quantized, dtype=np.float64)
        scale = self._broadcast(quantized, self.scale)
        zero_point = self._broadcast(quantized, self.zero_point)
        return (quantized - zero_point) * scale

    def quantize_dequantize(self, values: np.ndarray) -> np.ndarray:
        """Round-trip through the grid (the "fake quantization" view)."""
        return self.dequantize(self.quantize(values))

    def quantization_error(self, values: np.ndarray, order: float = 2.0) -> float:
        """Mean ``order``-norm error introduced by the grid on ``values``."""
        error = np.abs(self.quantize_dequantize(values) - np.asarray(values, dtype=np.float64))
        return float(np.mean(error**order))


class QuantizationMethod(abc.ABC):
    """Base class of all post-training quantization methods.

    A method chooses quantization parameters for weight tensors and for
    activation tensors (from calibration samples).  Bias correction, when a
    method supports it, is applied by the quantized-model builder using
    :meth:`wants_bias_correction`.
    """

    #: short registry key, e.g. ``"M4"``; set by subclasses.
    key: str = ""
    #: human-readable name, e.g. ``"ACIQ"``.
    name: str = ""

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(key={self.key!r})"

    # ----------------------------------------------------------------- weights
    @abc.abstractmethod
    def weight_params(
        self,
        weights: np.ndarray,
        num_bits: int,
        per_channel: bool = True,
        channel_axis: int = 0,
    ) -> QuantParams:
        """Quantization parameters for a weight tensor."""

    # ------------------------------------------------------------- activations
    @abc.abstractmethod
    def activation_params(self, samples: np.ndarray, num_bits: int) -> QuantParams:
        """Quantization parameters for a layer's input activations.

        ``samples`` holds calibration activations (any shape); parameters are
        always per-tensor because the activation range is data dependent.
        """

    # ------------------------------------------------------------ many tensors
    def weight_params_many(
        self,
        tensors: Sequence[np.ndarray],
        num_bits: int,
        per_channel: bool = True,
        channel_axis: int = 0,
    ) -> list[QuantParams]:
        """:meth:`weight_params` of each tensor, in order.

        A quantization context calibrates every layer of a recording for one
        bit width in one call, so a method whose search batches across
        tensors overrides this; the results must equal the one-tensor calls.
        """
        return [
            self.weight_params(weights, num_bits, per_channel, channel_axis)
            for weights in tensors
        ]

    def activation_params_many(
        self, samples: Sequence[np.ndarray], num_bits: int
    ) -> list[QuantParams]:
        """:meth:`activation_params` of each sample set, in order (see
        :meth:`weight_params_many`)."""
        return [self.activation_params(values, num_bits) for values in samples]

    # --------------------------------------------------------------- behaviour
    @property
    def wants_bias_correction(self) -> bool:
        """Whether the quantized-model builder should correct weight bias."""
        return False

    @property
    def calibration_key(self) -> tuple:
        """What the clipping this method picks depends on, besides its inputs.

        Two methods with equal keys choose the same parameters for the same
        tensor and bit width, so a calibration recording memoises clipping
        under this key.  It is the class and every instance setting; a
        subclass leaves out settings that do not change the clipping.
        """
        return (type(self), tuple(sorted(vars(self).items())))

    # ------------------------------------------------------------ shared maths
    @staticmethod
    def _per_channel_reduce(
        weights: np.ndarray, channel_axis: int, reducer
    ) -> np.ndarray:
        """Apply ``reducer`` over all axes except ``channel_axis``."""
        weights = np.asarray(weights, dtype=np.float64)
        moved = np.moveaxis(weights, channel_axis, 0)
        flat = moved.reshape(moved.shape[0], -1)
        return reducer(flat, axis=1)
