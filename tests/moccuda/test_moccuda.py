"""MocCUDA tests: tensor numerics, backend model shapes, the CUDART shim and
the Polygeist-transpiled NLL-loss kernel."""

import numpy as np
import pytest

from repro import moccuda as mc
from repro.harness import fig15_resnet
from repro.runtime import A64FX_CMG


class TestTensorPrimitives:
    def test_conv2d_matches_naive_reference(self):
        rng = np.random.default_rng(0)
        inputs = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        weight = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        out = mc.conv2d_im2col(inputs, weight, stride=1, padding=1)
        # naive direct reference
        padded = np.pad(inputs, ((0, 0), (0, 0), (1, 1), (1, 1)))
        expected = np.zeros_like(out)
        for n in range(2):
            for k in range(4):
                for y in range(8):
                    for x in range(8):
                        expected[n, k, y, x] = np.sum(
                            padded[n, :, y:y + 3, x:x + 3] * weight[k])
        assert np.allclose(out, expected, atol=1e-4)
        assert out.shape == (2, 4, 8, 8)

    def test_conv2d_stride(self):
        rng = np.random.default_rng(1)
        inputs = rng.standard_normal((1, 2, 8, 8)).astype(np.float32)
        weight = rng.standard_normal((2, 2, 3, 3)).astype(np.float32)
        out = mc.conv2d_im2col(inputs, weight, stride=2, padding=1)
        assert out.shape == (1, 2, 4, 4)

    def test_batch_norm_normalizes(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 3, 8, 8)).astype(np.float32) * 5 + 2
        y = mc.batch_norm(x)
        assert abs(y.mean()) < 1e-4
        assert abs(y.std() - 1.0) < 1e-2

    def test_pooling_and_relu(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4) - 8
        assert mc.relu(x).min() == 0
        assert mc.max_pool2d(x).shape == (1, 1, 2, 2)
        assert mc.avg_pool2d(x).shape == (1, 1, 1, 1)

    def test_softmax_nll(self):
        logits = np.array([[2.0, 1.0, 0.1], [0.5, 2.5, 0.0]], dtype=np.float32)
        probs = mc.softmax(logits)
        assert np.allclose(probs.sum(axis=1), 1.0)
        loss = mc.nll_loss(np.log(probs), np.array([0, 1]))
        assert loss > 0


class TestBackendModel:
    def test_all_backends_numerically_agree(self):
        rng = np.random.default_rng(3)
        inputs = rng.standard_normal((1, 4, 8, 8)).astype(np.float32)
        weight = rng.standard_normal((8, 4, 3, 3)).astype(np.float32)
        reference = mc.conv2d(inputs, weight, backend="native", padding=1)
        for backend in mc.BACKENDS:
            assert np.allclose(mc.conv2d(inputs, weight, backend=backend, padding=1),
                               reference, atol=1e-4)

    def test_moccuda_beats_onednn_on_hbm_machine(self):
        shape = mc.ConvShape(batch=4, in_channels=64, height=56, width=56,
                             out_channels=64, kernel=3, padding=1)
        moc = mc.conv_layer_cycles(shape, "moccuda+polygeist", threads=12, machine=A64FX_CMG)
        dnn = mc.conv_layer_cycles(shape, "dnnl", threads=12, machine=A64FX_CMG)
        native = mc.conv_layer_cycles(shape, "native", threads=12, machine=A64FX_CMG)
        assert moc < dnn < native

    def test_fujitsu_tuning_improves_on_intel_onednn(self):
        shape = mc.ConvShape(batch=4, in_channels=128, height=28, width=28,
                             out_channels=128, kernel=3, padding=1)
        intel = mc.conv_layer_cycles(shape, "onednn", threads=12)
        fujitsu = mc.conv_layer_cycles(shape, "dnnl", threads=12)
        assert fujitsu < intel
        assert fujitsu > intel * 0.8  # tuned fork helps by a few percent, not 10x

    def test_resnet_throughput_shapes(self):
        """Fig. 15: MocCUDA over oneDNN geomean ~2.7x, within the 1.2x-4.5x band."""
        ratios = [mc.relative_throughput(batch, threads)
                  for batch in (1, 2, 4, 6, 8, 12)
                  for threads in (1, 4, 12)]
        geomean = float(np.exp(np.mean(np.log(ratios))))
        assert min(ratios) >= 1.0
        assert max(ratios) <= 6.0
        assert 1.5 <= geomean <= 4.5
        # the harness' full grid (threads up to 64 oversubscribe one CMG)
        heatmap = list(fig15_resnet.run_heatmap().values())
        assert min(heatmap) >= 1.0
        assert max(heatmap) <= 6.0
        # Fig. 15 right: ordering of the series at full CMG thread count
        at_12 = {series: values[12] for series, values in fig15_resnet.run_throughput().items()}
        assert at_12["moccuda+polygeist"] > at_12["dnnl"] > at_12["onednn"]

    def test_expert_and_polygeist_kernels_comparable(self):
        expert = mc.throughput_images_per_second("moccuda+expert", batch=8, threads=12)
        polygeist = mc.throughput_images_per_second("moccuda+polygeist", batch=8, threads=12)
        assert abs(expert - polygeist) / expert < 0.1

    def test_throughput_scales_with_threads(self):
        slow = mc.throughput_images_per_second("moccuda+polygeist", batch=8, threads=1)
        fast = mc.throughput_images_per_second("moccuda+polygeist", batch=8, threads=12)
        assert fast > slow


class TestShim:
    def test_device_properties(self):
        session = mc.MocCUDASession()
        properties = session.cuda_get_device_properties()
        assert properties.warp_size == 32
        assert "cudaGetDeviceProperties" in session.call_log

    def test_streams_execute_in_order(self):
        session = mc.MocCUDASession()
        stream = session.cuda_stream_create()
        order = []
        stream.enqueue(lambda: order.append(1))
        stream.enqueue(lambda: order.append(2))
        assert session.cuda_stream_synchronize(stream.stream_id) == 2
        assert order == [1, 2]

    def test_memcpy_and_malloc(self):
        session = mc.MocCUDASession()
        device_buffer = session.cuda_malloc(16 * 4)
        session.cuda_memcpy(device_buffer, np.arange(16, dtype=np.float32))
        assert np.allclose(device_buffer, np.arange(16))

    def test_cublas_interception(self):
        session = mc.MocCUDASession()
        a = np.eye(3, dtype=np.float32)
        b = np.arange(9, dtype=np.float32).reshape(3, 3)
        assert np.allclose(session.cublas_sgemm(a, b), b)

    def test_transpiled_nll_loss_matches_numpy(self):
        session = mc.MocCUDASession()
        rng = np.random.default_rng(4)
        logits = rng.standard_normal((8, 10)).astype(np.float32)
        log_probs = np.log(mc.softmax(logits))
        targets = rng.integers(0, 10, size=8)
        expected = mc.nll_loss(log_probs, targets)
        actual = session.nll_loss(log_probs, targets)
        assert actual == pytest.approx(expected, rel=1e-4)
        assert "ClassNLLCriterion_updateOutput" in session.call_log
