"""The jackknife error routine shared by every Monte Carlo error bar."""

import math

import numpy as np
import pytest

from wickkit.errors import jackknife_stderr, mean_stderr


def spelled_out_mean_stderr(samples):
    """The jackknife error of a mean as estimate-w and kinetic-check computed it,
    kept spelled out so the routine's bytes stay pinned."""
    n = samples.shape[0]
    total = samples.sum(axis=0)
    loo = (total[None, ...] - samples) / (n - 1)
    dev = loo - loo.mean(axis=0)
    return np.sqrt((n - 1) / n * np.sum(dev**2, axis=0))


SHAPES = [(2,), (7,), (1000,), (300, 4), (50, 3, 5)]


class TestJackknife:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_mean_form_keeps_the_spelled_out_bytes(self, shape):
        samples = np.random.default_rng(11).exponential(2.0, size=shape)
        assert mean_stderr(samples).tobytes() == spelled_out_mean_stderr(samples).tobytes()

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_leave_one_out_form_keeps_the_spelled_out_bytes_and_its_input(self, dtype):
        rng = np.random.default_rng(14)
        loo = rng.standard_normal((500, 6)).astype(dtype)
        if dtype is complex:
            loo += 1j * rng.standard_normal((500, 6))
        kept = loo.copy()
        dev = loo - loo.mean(axis=0)
        want = np.sqrt((500 - 1) / 500 * np.sum(np.abs(dev) ** 2, axis=0))
        assert jackknife_stderr(loo).tobytes() == want.tobytes()
        assert np.array_equal(loo, kept)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_mean_form_is_the_sample_std_error(self, shape, dtype):
        rng = np.random.default_rng(12)
        samples = rng.standard_normal(shape) + 3.0
        if dtype is complex:
            samples = samples + 1j * rng.standard_normal(shape)
        want = samples.std(axis=0, ddof=1) / math.sqrt(shape[0])
        assert np.allclose(mean_stderr(samples), want, rtol=1e-12, atol=0.0)

    def test_leave_one_out_form_of_a_nonlinear_statistic(self):
        # the variance's leave-one-out values, against the textbook jackknife
        x = np.random.default_rng(13).standard_normal(40)
        n = x.size
        loo = np.array([np.var(np.delete(x, i)) for i in range(n)])
        want = math.sqrt((n - 1) / n * sum((v - loo.mean()) ** 2 for v in loo))
        assert float(jackknife_stderr(loo)) == pytest.approx(want, rel=1e-12)
