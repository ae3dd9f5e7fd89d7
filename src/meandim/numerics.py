"""Shared numeric kernels: stable log-sum-exp and least-squares line fits.

All reductions use a fixed left-to-right order so repeated runs are
bit-identical regardless of worker count.
"""

import math

import numpy as np


def logsumexp(values) -> float:
    """log(sum(exp(values))) with max-shift; -inf for an empty input."""
    a = np.asarray(values, dtype=float)
    if a.size == 0:
        return float("-inf")
    m = float(np.maximum.reduce(a, axis=None))
    if math.isinf(m):
        return m
    # np.add.reduce keeps a deterministic accumulation order
    s = float(np.add.reduce(np.exp(a - m)))
    return m + math.log(s)


def linear_fit(x, y):
    """Least-squares line y ~ slope*x + intercept.

    Returns
    -------
    (slope, intercept, rms) : tuple of float
        rms is the root-mean-square residual of the fit, reported so
        callers can flag non-linearity.

    Raises
    ------
    ValueError
        If all x coincide (degenerate fit).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise ValueError("linear_fit needs two 1-d arrays of equal length >= 2")
    # np.mean's own sum and division, without its dispatch
    xbar = float(np.add.reduce(x)) / x.size
    ybar = float(np.add.reduce(y)) / y.size
    sxx = float(np.add.reduce((x - xbar) ** 2))
    if sxx == 0.0:
        raise ValueError("degenerate fit: all abscissae equal")
    sxy = float(np.add.reduce((x - xbar) * (y - ybar)))
    slope = sxy / sxx
    intercept = ybar - slope * xbar
    resid = y - (slope * x + intercept)
    rms = math.sqrt(float(np.add.reduce(resid**2)) / x.size)
    return slope, intercept, rms
