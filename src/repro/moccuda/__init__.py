"""repro.moccuda — the MocCUDA PyTorch compatibility layer (§V).

* :mod:`~repro.moccuda.tensor`   — a minimal NCHW tensor library (ATen stand-in),
* :mod:`~repro.moccuda.backends` — native / oneDNN / MocCUDA convolution
  backends with the analytic A64FX performance model,
* :mod:`~repro.moccuda.resnet`   — the ResNet-50 layer table and images/s model,
* :mod:`~repro.moccuda.shim`     — the CUDART/cuDNN interception layer and the
  Polygeist-transpiled NLL-loss kernel.
"""

from .tensor import (
    Tensor,
    avg_pool2d,
    batch_norm,
    conv2d_direct,
    conv2d_im2col,
    linear,
    max_pool2d,
    nll_loss,
    relu,
    softmax,
)
from .backends import BACKENDS, BackendProfile, ConvShape, conv2d, conv_layer_cycles
from .resnet import (
    RESNET50_LAYERS,
    LayerSpec,
    relative_throughput,
    throughput_images_per_second,
    training_step_cycles,
)
from .shim import (
    CompiledKernel,
    CudaEvent,
    DeviceProperties,
    MocCUDASession,
    NLL_LOSS_CUDA,
    Stream,
)

__all__ = [
    "Tensor", "avg_pool2d", "batch_norm", "conv2d_direct", "conv2d_im2col",
    "linear", "max_pool2d", "nll_loss", "relu", "softmax",
    "BACKENDS", "BackendProfile", "ConvShape", "conv2d", "conv_layer_cycles",
    "RESNET50_LAYERS", "LayerSpec", "relative_throughput",
    "throughput_images_per_second", "training_step_cycles",
    "CompiledKernel", "CudaEvent", "DeviceProperties", "MocCUDASession",
    "NLL_LOSS_CUDA", "Stream",
]
