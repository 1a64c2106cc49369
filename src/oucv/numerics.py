"""Cancellation-free elementwise kernels.

The factorial-gap designs produce interpoint distances as small as
1/170!, so every occurrence of 1 - e^{-x} must survive x near the
smallest normal double.
"""

from __future__ import annotations

import numpy as np


def one_minus_exp_neg(x):
    """1 - exp(-x) without cancellation, elementwise."""
    return -np.expm1(-x)


def log_one_minus_exp_neg(x):
    """log(1 - exp(-x)), elementwise, stable down to denormal x."""
    return np.log(-np.expm1(-x))
