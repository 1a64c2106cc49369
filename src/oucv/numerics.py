"""Cancellation-free elementwise kernels, and the block size of array work.

The factorial-gap designs produce interpoint distances as small as
1/170!, so every occurrence of 1 - e^{-x} must survive x near the
smallest normal double.
"""

from __future__ import annotations

import numpy as np

# Most (row x theta x class) elements one block of an evaluation holds,
# the points of one block of a per-point evaluation, and the points of
# one block of the sampler's recursion and of the command line's CSV
# rows. Arrays of 2^13 doubles (64 KB) stay cache-sized and under the
# allocator's 128 KB trim threshold: at 2^14 the heap was returned and
# refaulted on every call, at up to 1700 page faults per estimate, and
# unblocked n = 1e5 arrays made an estimate on Dirichlet gaps up to 1.5x
# slower the same way.
_ELEMENT_BUDGET = 1 << 13


def one_minus_exp_neg(x):
    """1 - exp(-x) without cancellation, elementwise."""
    return -np.expm1(-x)


def log_one_minus_exp_neg(x):
    """log(1 - exp(-x)), elementwise, stable down to denormal x."""
    return np.log(-np.expm1(-x))
