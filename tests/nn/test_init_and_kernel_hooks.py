"""Weight initialisers and the per-kernel profiling hook of the backends."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.nn import default_dtype
from repro.nn import backend as backend_module
from repro.nn.backend import (
    NumpyBackend,
    build_backend,
    set_kernel_profiler,
    strip_kernel_hooks,
)
from repro.nn.init import dcgan_conv_init, kaiming_uniform, normal_, xavier_uniform

#: Each initialiser as ``(shape, rng) -> array``.
INITIALISERS = {
    "normal_": lambda shape, rng: normal_(shape, std=0.5, rng=rng),
    "kaiming_uniform": lambda shape, rng: kaiming_uniform(shape, 12, rng=rng),
    "xavier_uniform": lambda shape, rng: xavier_uniform(shape, 12, 5, rng=rng),
    "dcgan_conv_init": lambda shape, rng: dcgan_conv_init(shape, rng=rng),
}


class TestInitialisers:
    @pytest.mark.parametrize("name", sorted(INITIALISERS))
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_follows_the_default_dtype(self, name, dtype):
        with default_dtype(dtype):
            weights = INITIALISERS[name]((4, 3, 2), np.random.default_rng(0))
        assert weights.shape == (4, 3, 2)
        assert weights.dtype == np.dtype(dtype)

    @pytest.mark.parametrize("name", sorted(INITIALISERS))
    def test_seeded_draws_are_reproducible(self, name):
        first = INITIALISERS[name]((16, 8), np.random.default_rng(7))
        second = INITIALISERS[name]((16, 8), np.random.default_rng(7))
        np.testing.assert_array_equal(first, second)

    @pytest.mark.parametrize("std", [0.02, 1.5])
    def test_normal_matches_the_requested_spread(self, std):
        weights = normal_((200, 200), std=std, rng=np.random.default_rng(1))
        assert abs(weights.mean()) < 0.02 * std
        assert weights.std() == pytest.approx(std, rel=0.02)

    @pytest.mark.parametrize("fan_in", [0, 1, 9, 256])
    def test_kaiming_bound_is_inverse_sqrt_fan_in(self, fan_in):
        bound = math.sqrt(1.0 / max(fan_in, 1))
        weights = kaiming_uniform((100, 100), fan_in,
                                  rng=np.random.default_rng(2))
        assert np.abs(weights).max() <= bound
        assert np.abs(weights).max() > 0.95 * bound

    @pytest.mark.parametrize("fan_in, fan_out", [(3, 5), (64, 128)])
    def test_xavier_bound_uses_both_fans(self, fan_in, fan_out):
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        weights = xavier_uniform((100, 100), fan_in, fan_out,
                                 rng=np.random.default_rng(3))
        assert np.abs(weights).max() <= bound
        assert np.abs(weights).max() > 0.95 * bound

    def test_dcgan_init_is_normal_with_std_0_02(self):
        np.testing.assert_array_equal(
            dcgan_conv_init((8, 4, 3, 3), rng=np.random.default_rng(4)),
            normal_((8, 4, 3, 3), std=0.02, rng=np.random.default_rng(4)))


class TestMeanSquared:
    @pytest.mark.parametrize("name", ["numpy", "reference"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_float64_mean_of_squares(self, name, dtype):
        array = (np.random.default_rng(5).standard_normal((7, 33)) * 3
                 ).astype(dtype)
        exact = float(np.mean(array.astype(np.float64) ** 2))
        assert build_backend(name).mean_squared(array) == pytest.approx(
            exact, rel=1e-12)


class _RecordingProfiler:
    """Minimal profiler: hands out tokens and records timed kernel names."""

    def __init__(self, token=0.0):
        self.token = token
        self.entered = 0
        self.exited = []

    def enter(self):
        self.entered += 1
        return self.token

    def exit(self, name, token):
        self.exited.append(name)


@pytest.fixture()
def install_profiler():
    """Install a profiler for one test and always restore the previous one."""
    previous = backend_module.KERNEL_PROFILER
    yield set_kernel_profiler
    set_kernel_profiler(previous)


class TestKernelProfilerHook:
    def test_install_returns_the_previous_profiler(self, install_profiler):
        first, second = _RecordingProfiler(), _RecordingProfiler()
        install_profiler(first)
        assert install_profiler(second) is first
        assert backend_module.KERNEL_PROFILER is second

    def test_profiled_kernel_reports_its_name(self, install_profiler):
        profiler = _RecordingProfiler()
        install_profiler(profiler)
        a = np.ones((2, 3))
        result = NumpyBackend().matmul(a, a.T)
        np.testing.assert_array_equal(result, np.full((2, 2), 3.0))
        assert profiler.exited == ["matmul"]

    def test_declined_token_skips_the_exit_hook(self, install_profiler):
        profiler = _RecordingProfiler(token=None)
        install_profiler(profiler)
        NumpyBackend().matmul(np.ones((2, 2)), np.ones((2, 2)))
        assert profiler.entered == 1
        assert profiler.exited == []

    def test_stripped_backend_bypasses_the_hook(self, install_profiler):
        profiler = _RecordingProfiler()
        install_profiler(profiler)
        backend = strip_kernel_hooks(NumpyBackend())
        result = backend.matmul(np.eye(2), np.full((2, 2), 4.0))
        np.testing.assert_array_equal(result, np.full((2, 2), 4.0))
        assert profiler.entered == 0
        NumpyBackend().matmul(np.eye(2), np.eye(2))
        assert profiler.exited == ["matmul"]
