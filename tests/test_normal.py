"""Checks of the shared normal helpers against independent references:
frozen high-precision constants, the C library's erf, and round trips."""

import math

import numpy as np
import pytest

from nccsim import normal


def test_pdf_known_values():
    assert normal.pdf(0.0) == pytest.approx(0.3989422804014327, abs=1e-15)
    assert normal.pdf(1.0) == pytest.approx(0.24197072451914337, abs=1e-15)
    assert normal.pdf(np.array([0.0, 1.0]))[0] == pytest.approx(0.3989422804014327)


def test_cdf_known_values():
    assert normal.cdf(0.0) == 0.5
    assert normal.cdf(1.0) == pytest.approx(0.8413447460685429, abs=1e-14)
    assert normal.cdf(-1.0) == pytest.approx(1 - 0.8413447460685429, abs=1e-14)


def test_cdf_matches_libm_erfc():
    xs = np.linspace(-8.0, 8.0, 401)
    ours = normal.cdf(xs)
    libm = np.array([0.5 * math.erfc(-x / math.sqrt(2.0)) for x in xs])
    assert np.max(np.abs(ours - libm)) < 1e-14


def test_sf_symmetry_and_tail_accuracy():
    # the upper tail (survival function) is cdf(-x)
    xs = np.linspace(-10.0, 10.0, 201)
    assert np.allclose(normal.cdf(-xs), 1.0 - normal.cdf(xs), rtol=0, atol=1e-15)
    # relative accuracy deep in the tail, vs libm erfc
    for x in (5.0, 10.0, 20.0, 35.0):
        ref = 0.5 * math.erfc(x / math.sqrt(2.0))
        assert normal.cdf(-x) == pytest.approx(ref, rel=1e-12)


def test_quantile_known_values():
    assert normal.quantile(0.5) == 0.0
    assert normal.quantile(0.975) == pytest.approx(1.9599639845400542, abs=1e-12)
    assert normal.quantile(0.84134474606854295) == pytest.approx(1.0, abs=1e-12)


def test_quantile_round_trip():
    ps = np.linspace(1e-6, 1 - 1e-6, 997)
    err = np.abs(normal.cdf(normal.quantile(ps)) - ps)
    assert np.max(err) < 1e-14


def test_quantile_domain():
    for p in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            normal.quantile(p)


def test_hazard_matches_ratio_and_is_tail_stable():
    xs = np.linspace(-6.0, 6.0, 121)
    direct = normal.pdf(xs) / normal.cdf(-xs)
    assert np.allclose(normal.hazard(xs), direct, rtol=1e-13)
    assert normal.hazard(0.0) == pytest.approx(0.7978845608028654, abs=1e-14)
    # far right tail: hazard(x) ~ x + 1/x, with no overflow
    for x in (40.0, 100.0, 1e4):
        assert normal.hazard(x) == pytest.approx(x + 1.0 / x, rel=1e-3)
    assert normal.hazard(-np.inf) == 0.0
    assert normal.hazard(-60.0) == pytest.approx(0.0, abs=1e-300)


@pytest.mark.filterwarnings("error")
def test_extremes_give_the_limits_without_warnings():
    huge = np.array([-1e307, -1e200, 1e200, 1e307, -np.inf, np.inf])
    assert not normal.pdf(huge).any()
    assert normal.pdf(np.inf) == 0.0
    # hazard(x) ~ x far right; its limits are 0 at -inf and inf at inf
    hazard = normal.hazard(huge)
    assert hazard[[0, 1, 4]].tolist() == [0.0, 0.0, 0.0]
    np.testing.assert_allclose(hazard[2:4], huge[2:4], rtol=1e-15)
    assert hazard[5] == np.inf
    assert normal.hazard(np.inf) == np.inf
    assert normal.hazard(-np.inf) == 0.0
