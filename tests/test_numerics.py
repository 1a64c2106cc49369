"""Cancellation-free elementwise kernels at the bottom of the double range."""

import numpy as np

from oucv.numerics import log_one_minus_exp_neg


def test_log_one_minus_exp_neg_matches_the_series_down_to_denormals():
    # where 1 - e^{-x} = x to machine precision, log(x) + log1p(-x/2 + x^2/6)
    # is exact; the direct form must agree with it from the smallest
    # denormal up to 1e-8
    x = np.concatenate([[5e-324, 1e-320, 2.2250738585072014e-308], np.geomspace(1e-307, 1e-8, 2000)])
    series = np.log(x) + np.log1p(-0.5 * x + x * x / 6.0)
    direct = log_one_minus_exp_neg(x)
    assert np.all(np.abs(direct - series) <= 1e-14 * np.abs(series))


def test_log_one_minus_exp_neg_scalar_and_large_arguments():
    assert log_one_minus_exp_neg(800.0) == 0.0
    assert abs(log_one_minus_exp_neg(1.0) - np.log(1.0 - np.exp(-1.0))) <= 1e-15
