"""BatchNorm2d with an owned activation vs BatchNorm2d followed by it.

``BatchNorm2d(activation=slope)`` must compute exactly what the unfused
``BatchNorm2d`` → ``relu()`` / ``leaky_relu(slope)`` pair computes, bit
for bit: forward output, running statistics and the x/weight/bias
gradients, on every backend, dtype, slope and mode.  The training path
additionally never exposes the pre-activation output as a graph node.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.channel import GenerativeChannel
from repro.core import ModelConfig, Trainer, build_model
from repro.data import generate_paired_dataset
from repro.flash import BlockGeometry, FlashChannel
from repro.nn import Tensor, no_grad, use_backend
from repro.nn.cjit import cjit_available
from repro.nn.layers import BatchNorm2d
from repro.nn.lazy import lazy_default

needs_compiler = pytest.mark.skipif(
    not cjit_available(), reason="no C compiler (cc/clang/gcc) on PATH")

BACKENDS = ["numpy", pytest.param("cjit", marks=needs_compiler)]
DTYPES = [np.float32, np.float64]
SLOPES = [None, 0.0, 0.2]
#: (training mode, gradients enabled); train under no_grad is the GAN's
#: frozen phase, eval under no_grad the sampling path.
MODES = {
    "train": (True, True),
    "train_no_grad": (True, False),
    "eval": (False, True),
    "eval_no_grad": (False, False),
}


def _bits(array) -> bytes | None:
    return None if array is None else np.ascontiguousarray(array).tobytes()


def _run(fused: bool, slope, dtype, mode: str) -> dict:
    """Forward (+ backward) one BatchNorm2d, fused or followed by the
    activation as a separate op, from identical parameters and inputs."""
    training, grad_enabled = MODES[mode]
    rng = np.random.default_rng(17)
    channels = 5
    norm = BatchNorm2d(channels, activation=slope if fused else None)
    norm.to(dtype)
    norm.weight.data = rng.standard_normal(channels).astype(dtype)
    norm.bias.data = rng.standard_normal(channels).astype(dtype)
    norm._buffers["running_mean"] = rng.standard_normal(channels) \
        .astype(dtype)
    norm._buffers["running_var"] = rng.uniform(0.5, 2.0, channels) \
        .astype(dtype)
    norm.train(training)
    x = Tensor(rng.standard_normal((3, channels, 6, 6)).astype(dtype),
               requires_grad=True)
    upstream = rng.standard_normal((3, channels, 6, 6)).astype(dtype)

    def forward():
        out = norm(x)
        if not fused and slope is not None:
            out = out.relu() if slope == 0.0 else out.leaky_relu(slope)
        return out

    if grad_enabled:
        out = forward()
        parents = out._parents  # backward frees the graph
        out.backward(upstream)
    else:
        with no_grad():
            out = forward()
        parents = out._parents
    return {
        "out": out,
        "parents": parents,
        "running_mean": norm._buffers["running_mean"],
        "running_var": norm._buffers["running_var"],
        "x_grad": x.grad,
        "weight_grad": norm.weight.grad,
        "bias_grad": norm.bias.grad,
        "graph": (x, norm.weight, norm.bias),
    }


@pytest.mark.parametrize("mode", list(MODES))
@pytest.mark.parametrize("slope", SLOPES)
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("backend", BACKENDS)
def test_owned_activation_matches_unfused(backend, dtype, slope, mode,
                                          cjit_backend):
    with use_backend(cjit_backend if backend == "cjit" else backend):
        fused = _run(True, slope, dtype, mode)
        unfused = _run(False, slope, dtype, mode)
    assert fused["out"].dtype == dtype
    assert _bits(fused["out"].data) == _bits(unfused["out"].data)
    for key in ("running_mean", "running_var", "x_grad", "weight_grad",
                "bias_grad"):
        assert _bits(fused[key]) == _bits(unfused[key]), key
    if mode == "train":
        # The activated output hangs directly off (x, weight, bias): the
        # pre-activation output is never a graph node.
        assert fused["parents"] == fused["graph"]


class TestOutputDerivedActivationBackward:
    """(Leaky) ReLU backward rebuilds the input mask from the output."""

    X = [-2.0, -0.0, 0.0, 3.5, np.nan, -np.inf, np.inf, -1e-45]

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("slope", [0.0, 0.2])
    def test_matches_input_mask_with_signed_zero_and_nan(self, dtype,
                                                         slope):
        data = np.array(self.X, dtype=dtype)
        upstream = np.array([1.5, -2.0, 3.0, -0.5, 2.0, -1.0, 0.25, -4.0],
                            dtype=dtype)
        x = Tensor(data, requires_grad=True)
        # ``-inf * 0`` is NaN on both sides of the comparison.
        with np.errstate(invalid="ignore"):
            out = x.relu() if slope == 0.0 else x.leaky_relu(slope)
            out.backward(upstream)
            mask = data > 0
            if slope == 0.0:
                want_out, want_grad = data * mask, upstream * mask
            else:
                scale = np.where(mask, dtype(1.0), dtype(slope))
                want_out, want_grad = data * scale, upstream * scale
        assert _bits(out.data) == _bits(want_out)
        assert _bits(x.grad) == _bits(want_grad)

    def test_negative_slope_is_rejected(self):
        with pytest.raises(ValueError):
            Tensor(np.ones(3), requires_grad=True).leaky_relu(-0.1)
        with pytest.raises(ValueError):
            BatchNorm2d(3, activation=-0.1)


class TestLazyShim:
    """Only the benchmark-facing ``lazy`` remnants survive, inert."""

    def test_lazy_default_is_false(self):
        assert lazy_default() is False

    def test_trainer_rejects_lazy(self):
        simulator = FlashChannel(geometry=BlockGeometry(16, 16),
                                 rng=np.random.default_rng(5))
        dataset = generate_paired_dataset(simulator, pe_cycles=(4000.0,),
                                          arrays_per_pe=2, array_size=8)
        model = build_model("cvae", ModelConfig.tiny(),
                            rng=np.random.default_rng(1))
        Trainer(model, dataset, lazy=False)
        with pytest.raises(ValueError):
            Trainer(model, dataset, lazy=True)


ARCHITECTURES = ["cvae_gan", "cgan", "cvae", "bicycle_gan"]
_OWNED_FORWARD = BatchNorm2d.forward


def _unfused_forward(self, x: Tensor) -> Tensor:
    """``BatchNorm2d.forward`` with the activation run as a separate op."""
    slope = self.activation
    self.activation = None
    try:
        out = _OWNED_FORWARD(self, x)
    finally:
        self.activation = slope
    if slope is None:
        return out
    return out.relu() if slope == 0.0 else out.leaky_relu(slope)


@pytest.fixture
def unfused_models(monkeypatch):
    """Calling it makes every BatchNorm2d apply its activation unfused."""
    return lambda: monkeypatch.setattr(BatchNorm2d, "forward",
                                       _unfused_forward)


@pytest.fixture(scope="module")
def dataset():
    simulator = FlashChannel(geometry=BlockGeometry(16, 16),
                             rng=np.random.default_rng(5))
    return generate_paired_dataset(simulator, pe_cycles=(4000.0, 10000.0),
                                   arrays_per_pe=8, array_size=8)


def _train_weights(arch, dtype, dataset, backend,
                   steps: int = 2) -> dict[str, np.ndarray]:
    """Parameters and buffers after ``steps`` optimizer steps."""
    with use_backend(backend):
        config = replace(ModelConfig.tiny(), dtype=dtype)
        model = build_model(arch, config, rng=np.random.default_rng(21))
        trainer = Trainer(model, dataset, rng=np.random.default_rng(22))
        batch = dataset[0:4]
        for _ in range(steps):
            trainer.train_step(*batch)
        return {key: value.copy()
                for key, value in model.state_dict().items()}


def _assert_same_bits(got: dict, want: dict) -> None:
    assert got.keys() == want.keys()
    for key in want:
        assert _bits(got[key]) == _bits(want[key]), key


def _model_uses_owned_activation(arch) -> bool:
    model = build_model(arch, ModelConfig.tiny(),
                        rng=np.random.default_rng(21))
    return any(isinstance(module, BatchNorm2d)
               and module.activation is not None
               for module in model.modules())


class TestTrainStepBitIdentity:
    """Whole models train identically with fused and unfused activations:
    two Adam steps per architecture leave the same weights and running
    statistics, bit for bit."""

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_numpy_backend(self, arch, dtype, dataset, unfused_models):
        assert _model_uses_owned_activation(arch)
        fused = _train_weights(arch, dtype, dataset, "numpy")
        unfused_models()
        unfused = _train_weights(arch, dtype, dataset, "numpy")
        _assert_same_bits(fused, unfused)

    @needs_compiler
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_cjit_backend(self, arch, dtype, dataset, cjit_backend,
                          unfused_models):
        fused = _train_weights(arch, dtype, dataset, cjit_backend)
        unfused_models()
        unfused = _train_weights(arch, dtype, dataset, "numpy")
        _assert_same_bits(fused, unfused)


def _sample_voltages(model, backend="numpy") -> np.ndarray:
    """One deterministic batched-sampling pass through the channel."""
    with use_backend(backend):
        channel = GenerativeChannel(model, rng=np.random.default_rng(3))
        blocks = np.random.default_rng(6).integers(0, 8, (4, 16, 16))
        return channel.read_repeated(blocks, 123, num_samples=2)


class TestSamplingBitIdentity:
    """Batched sampling (eval mode, no gradients) is the same bit for bit
    with fused and unfused activations."""

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_numpy_backend(self, arch, dtype, unfused_models):
        config = replace(ModelConfig.small(16), dtype=dtype)
        model = build_model(arch, config, rng=np.random.default_rng(5))
        fused = _sample_voltages(model)
        unfused_models()
        unfused = _sample_voltages(model)
        assert _bits(fused) == _bits(unfused)

    @needs_compiler
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_cjit_backend(self, dtype, cjit_backend, unfused_models):
        config = replace(ModelConfig.small(16), dtype=dtype)
        model = build_model("cvae_gan", config,
                            rng=np.random.default_rng(5))
        fused = _sample_voltages(model, cjit_backend)
        unfused_models()
        unfused = _sample_voltages(model)
        assert _bits(fused) == _bits(unfused)
