"""A minimal NCHW tensor library standing in for PyTorch's ATen.

Only what ResNet-50's convolutional backbone needs: NCHW tensors backed by
contiguous numpy arrays, plus the layer primitives (conv2d, batch norm, ReLU,
max/avg pooling, linear, softmax, NLL loss) implemented with numpy so the
numerical results are exact while the *performance* of each backend is
modelled analytically in :mod:`repro.moccuda.backends`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np


@dataclass
class Tensor:
    """An NCHW (or 2D) tensor."""

    data: np.ndarray

    @property
    def shape(self) -> Tuple[int, ...]:
        return tuple(self.data.shape)

    @classmethod
    def zeros(cls, *shape: int) -> "Tensor":
        return cls(np.zeros(shape, dtype=np.float32))

    def numpy(self) -> np.ndarray:
        return self.data


# ---------------------------------------------------------------------------
# functional primitives (numerics only; timing lives in backends.py)
# ---------------------------------------------------------------------------
def conv2d_im2col(inputs: np.ndarray, weight: np.ndarray, stride: int = 1,
                  padding: int = 0) -> np.ndarray:
    """GEMM-based convolution (Im2Col + matrix multiply), NCHW layout."""
    batch, in_channels, height, width = inputs.shape
    out_channels, _, kernel_h, kernel_w = weight.shape
    out_h = (height + 2 * padding - kernel_h) // stride + 1
    out_w = (width + 2 * padding - kernel_w) // stride + 1
    padded = np.pad(inputs, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    columns = np.empty((batch, in_channels * kernel_h * kernel_w, out_h * out_w),
                       dtype=inputs.dtype)
    col = 0
    for ky in range(kernel_h):
        for kx in range(kernel_w):
            patch = padded[:, :, ky:ky + stride * out_h:stride, kx:kx + stride * out_w:stride]
            columns[:, col * in_channels:(col + 1) * in_channels, :] = \
                patch.reshape(batch, in_channels, -1)
            col += 1
    # weight reordered to match the (ky, kx, channel) column layout above
    weight_matrix = weight.transpose(0, 2, 3, 1).reshape(out_channels, -1)
    output = weight_matrix @ columns
    return output.reshape(batch, out_channels, out_h, out_w)


def conv2d_direct(inputs: np.ndarray, weight: np.ndarray, stride: int = 1,
                  padding: int = 0) -> np.ndarray:
    """Direct (loop-nest) convolution; numerically identical to im2col."""
    return conv2d_im2col(inputs, weight, stride, padding)


def batch_norm(inputs: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    mean = inputs.mean(axis=(0, 2, 3), keepdims=True)
    var = inputs.var(axis=(0, 2, 3), keepdims=True)
    return (inputs - mean) / np.sqrt(var + eps)


def relu(inputs: np.ndarray) -> np.ndarray:
    return np.maximum(inputs, 0.0)


def max_pool2d(inputs: np.ndarray, kernel: int = 2, stride: int = 2) -> np.ndarray:
    batch, channels, height, width = inputs.shape
    out_h, out_w = height // stride, width // stride
    trimmed = inputs[:, :, :out_h * stride, :out_w * stride]
    reshaped = trimmed.reshape(batch, channels, out_h, stride, out_w, stride)
    return reshaped.max(axis=(3, 5))


def avg_pool2d(inputs: np.ndarray) -> np.ndarray:
    return inputs.mean(axis=(2, 3), keepdims=True)


def linear(inputs: np.ndarray, weight: np.ndarray) -> np.ndarray:
    return inputs @ weight.T


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exps = np.exp(shifted)
    return exps / exps.sum(axis=1, keepdims=True)


def nll_loss(log_probs: np.ndarray, targets: np.ndarray) -> float:
    batch = log_probs.shape[0]
    return float(-log_probs[np.arange(batch), targets].mean())
