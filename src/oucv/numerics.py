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
    """log(1 - exp(-x)), elementwise, stable down to denormal x.

    For x < 1e-8 the direct route loses nothing yet, but the series
    log(x) + log1p(-x/2 + x^2/6) is used to keep the branch exercised
    and exact in the regime where 1 - e^{-x} = x to machine precision.
    """
    x = np.asarray(x, dtype=float)
    small = x < 1e-8
    out = np.empty_like(x)
    xs = x[small]
    out[small] = np.log(xs) + np.log1p(-0.5 * xs + xs * xs / 6.0)
    xl = x[~small]
    out[~small] = np.log(-np.expm1(-xl))
    return out if out.ndim else float(out)
