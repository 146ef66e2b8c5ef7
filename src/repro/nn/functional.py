"""Low-level tensor operations shared by the NN layers.

All activations use the NCHW layout.  Convolutions are implemented with an
im2col/col2im pair.  FP32 inference/training unfolds the real-valued input
into (C, kh, kw)-ordered columns; the integer (quantized) execution path —
what the paper's MAC-level analysis operates on — unfolds the layer's
activation *codes* instead, into (kh, kw, C)-ordered columns, padding with
the code of 0.0 (``pad_value``), which yields exactly the codes of the FP32
columns up to that column permutation.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution along one dimension."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out < 1:
        raise ValueError(
            f"convolution output collapses to {out} "
            f"(size={size}, kernel={kernel}, stride={stride}, padding={padding})"
        )
    return out


def im2col(
    x: np.ndarray,
    kernel_h: int,
    kernel_w: int,
    stride: int,
    padding: int,
    pad_value: float = 0.0,
    channels_last: bool = False,
) -> tuple[np.ndarray, int, int]:
    """Unfold ``x`` (N, C, H, W) into convolution columns.

    ``pad_value`` fills the ``padding`` border (the integer path pads
    activation codes with the code of 0.0).

    Column order: ``(C, kh, kw)`` by default, the order of a flattened
    ``(out, C, kh, kw)`` weight tensor, which training, FP32 inference and
    the calibration pass use.  ``channels_last=True`` gives ``(kh, kw, C)``
    columns instead, which the integer path uses: each window row is then
    copied in runs of C contiguous elements rather than kw.  Both orders
    come from the same padded-window view; only the axis order of the one
    copy differs.

    Returns:
        ``(columns, out_h, out_w)`` where ``columns`` is a new array of shape
        ``(N * out_h * out_w, C * kernel_h * kernel_w)``: one row per output
        position, one column per weight element.  Row-major ordering is
        ``(n, oh, ow)``.
    """
    if x.ndim != 4:
        raise ValueError(f"expected NCHW input, got shape {x.shape}")
    batch, channels, height, width = x.shape
    out_h = conv_output_size(height, kernel_h, stride, padding)
    out_w = conv_output_size(width, kernel_w, stride, padding)
    # Padded NHWC copy of the input: each window row then reads its
    # channels contiguously.
    padded = np.full(
        (batch, height + 2 * padding, width + 2 * padding, channels), pad_value, dtype=x.dtype
    )
    padded[:, padding : padding + height, padding : padding + width, :] = x.transpose(0, 2, 3, 1)
    # (N, oh, ow, C, kh, kw) strided view of every window, copied once.
    windows = sliding_window_view(padded, (kernel_h, kernel_w), axis=(1, 2))[
        :, : stride * out_h : stride, : stride * out_w : stride
    ]
    if channels_last:
        windows = windows.transpose(0, 1, 2, 4, 5, 3)
    columns = np.empty(windows.shape, dtype=x.dtype)
    columns[...] = windows
    return (
        columns.reshape(batch * out_h * out_w, channels * kernel_h * kernel_w),
        out_h,
        out_w,
    )


def col2im(
    columns: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Fold convolution columns back into an input-shaped gradient."""
    batch, channels, height, width = x_shape
    out_h = conv_output_size(height, kernel_h, stride, padding)
    out_w = conv_output_size(width, kernel_w, stride, padding)
    columns = columns.reshape(batch, out_h, out_w, channels, kernel_h, kernel_w)
    columns = columns.transpose(0, 3, 4, 5, 1, 2)
    padded = np.zeros(
        (batch, channels, height + 2 * padding, width + 2 * padding),
        dtype=columns.dtype,
    )
    for i in range(kernel_h):
        i_end = i + stride * out_h
        for j in range(kernel_w):
            j_end = j + stride * out_w
            padded[:, :, i:i_end:stride, j:j_end:stride] += columns[:, :, i, j, :, :]
    if padding > 0:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """One-hot encode integer labels."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ValueError("labels out of range for the given number of classes")
    encoded = np.zeros((labels.shape[0], num_classes), dtype=np.float64)
    encoded[np.arange(labels.shape[0]), labels] = 1.0
    return encoded
