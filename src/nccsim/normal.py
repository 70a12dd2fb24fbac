"""Standard normal helpers shared by every analysis module.

Built on the C library's complementary error function (``math.erfc``) and
the standard library's inverse cdf (``statistics.NormalDist``, Wichura's
AS 241), so each call site uses one machine-precision implementation. The
package does not import scipy: ``scipy.special`` alone would take about
25 MB of memory and 0.3 s to import, most of a simulation run's footprint.
All functions broadcast over numpy arrays and accept plain floats.
"""

import math
from statistics import NormalDist

import numpy as np

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)

#: ``erfcx`` uses ``exp(x^2) * erfc(x)`` below this argument and a continued
#: fraction of ``ERFCX_TERMS`` terms from it on; both keep ~1e-15 relative
#: accuracy in their range.
ERFCX_SPLIT = 3.0
ERFCX_TERMS = 40


def _float_map(scalar_fn, x):
    """``scalar_fn`` over every element of ``x``; a float64 array of the same
    shape, or a float64 scalar for a scalar."""
    arr = np.asarray(x, dtype=float)
    out = np.fromiter(map(scalar_fn, arr.ravel().tolist()), float, arr.size)
    return out.reshape(arr.shape)[()]


def _erfcx(x):
    """Scaled complementary error function ``exp(x^2) * erfc(x)``."""
    x = np.asarray(x, dtype=float)
    # exact below ERFCX_SPLIT, including +inf for a very negative x
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.asarray(np.exp(x * x) * _float_map(math.erfc, x))
    big = x >= ERFCX_SPLIT
    if big.any():
        # Laplace's continued fraction 1 / (x + (1/2) / (x + 1 / (x + (3/2) / ...)))
        xb = x[big]
        t = xb
        for k in range(ERFCX_TERMS, 0, -1):
            t = xb + 0.5 * k / t
        out[big] = _INV_SQRT_PI / t
    return out


_inv_cdf = NormalDist().inv_cdf


def pdf(x):
    """Density of the standard normal at ``x``."""
    return _INV_SQRT_2PI * np.exp(-0.5 * np.square(x))


def cdf(x):
    """Lower-tail probability of the standard normal at ``x``."""
    return 0.5 * _float_map(math.erfc, np.negative(x) / _SQRT2)


def sf(x):
    """Upper-tail probability; keeps relative accuracy deep in the tail."""
    return cdf(np.negative(x))


def quantile(p):
    """Inverse of :func:`cdf`. Requires ``0 < p < 1``."""
    p_arr = np.asarray(p, dtype=float)
    if np.any(p_arr <= 0.0) or np.any(p_arr >= 1.0):
        raise ValueError("quantile requires probabilities strictly inside (0, 1)")
    return _float_map(_inv_cdf, p_arr)


def hazard(x):
    """Normal hazard (Mills ratio inverse) ``pdf(x) / sf(x)``.

    Computed via the scaled complementary error function, so it neither
    underflows nor loses accuracy for large ``x``; ``hazard(-inf) == 0``.
    """
    return _SQRT_2_OVER_PI / _erfcx(np.asarray(x, dtype=float) / _SQRT2)
