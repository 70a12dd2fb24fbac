import dataclasses
import math
import pickle

import numpy as np
import pytest

from nccsim import (
    DesignConfig,
    TimeTrendSpec,
    TrendPattern,
    futility_cutoff,
    ncc_weight,
    normal,
)
from nccsim.adjusted import METHODS, point_estimates
from nccsim.design import MAX_COUNT
from conftest import default_config


#: One invalid value per checked field, with the start of its message.
INVALID_FIELDS = [
    ("n01", 0, "n01 must be an integer >= 1"),
    ("n11", -1, "n11 must be an integer >= 1"),
    ("n02", 2.0, "n02 must be an integer >= 1"),
    ("n12", 0, "n12 must be an integer >= 1"),
    ("n22", 0, "n22 must be an integer >= 1"),
    ("alpha1", 1.2, "alpha1 out of range"),
    ("alpha", 0.0, "alpha must lie strictly inside"),
    ("sigma", math.inf, "sigma must be positive and finite"),
    ("theta1", math.nan, "theta1 must be finite"),
    ("theta2", math.inf, "theta2 must be finite"),
    ("trend", TimeTrendSpec("linear", 0.1), "unknown trend pattern"),
    ("trend", TimeTrendSpec(TrendPattern.LINEAR, math.nan), "trend lambda must be finite"),
]


class TestValidate:
    """A ``DesignConfig`` checks its fields when it is built."""

    def test_defaults_are_valid(self):
        config = DesignConfig(n01=150, n11=150, n02=150, n12=150, n22=150, alpha1=0.5)
        assert config == default_config(sigma=1.0, alpha1=0.5)
        assert dataclasses.replace(config) == config

    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError, match="sigma must be positive"):
            default_config(sigma=0.0)

    def test_alpha1_out_of_range(self):
        with pytest.raises(ValueError, match="alpha1 out of range"):
            default_config(alpha1=1.2)

    def test_alpha1_bounds_are_legal(self):
        default_config(alpha1=0.0)
        default_config(alpha1=1.0)

    @pytest.mark.parametrize("name", ["alpha1", "alpha"])
    def test_a_level_whose_complement_rounds_to_1_is_rejected(self, name):
        # the cutoff is the quantile at 1 - level, which must lie below 1
        for value in (2.0**-54, 1e-17, 1e-300, 5e-324):
            with pytest.raises(ValueError, match=f"{name} is too small: 1 - {name} rounds to 1"):
                default_config(**{name: value})
        config = default_config(**{name: 2.0**-53})
        assert math.isfinite(config.c1) and math.isfinite(config.z_alpha)

    def test_analysis_cells_require_patients(self):
        for name in ("n01", "n11", "n02", "n12", "n22"):
            for size in (0, -1, True):
                with pytest.raises(ValueError, match=f"{name} must be an integer >= 1"):
                    default_config(**{name: size})

    def test_sizes_are_bounded_by_the_largest_array_length(self):
        assert default_config(n22=MAX_COUNT).n22 == MAX_COUNT
        for size in (MAX_COUNT + 1, 99999999999999999999):
            with pytest.raises(ValueError, match=f"n22 must be at most {MAX_COUNT}, got {size}"):
                default_config(n22=size)

    def test_numpy_integer_size_is_stored_as_an_int(self):
        config = default_config(n01=np.int64(150))
        assert config == default_config()
        assert type(config.n01) is int

    def test_alpha_strictly_inside_unit_interval(self):
        for alpha in (0.0, 1.0):
            with pytest.raises(ValueError, match="alpha"):
                default_config(alpha=alpha)

    def test_nonfinite_effects_rejected(self):
        with pytest.raises(ValueError, match="theta1"):
            default_config(theta1=math.nan)

    @pytest.mark.parametrize("name, value, message", INVALID_FIELDS, ids=[
        "n01", "n11", "n02", "n12", "n22", "alpha1", "alpha", "sigma", "theta1", "theta2",
        "trend_pattern", "trend_lambda",
    ])
    def test_construction_and_replace_check_every_field(self, name, value, message):
        with pytest.raises(ValueError, match=message):
            default_config(**{name: value})
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(default_config(), **{name: value})


class TestCriticalValue:
    def test_median_is_exactly_zero(self):
        assert futility_cutoff(0.5) == 0.0

    def test_high_precision_quantile(self):
        assert futility_cutoff(0.025) == pytest.approx(1.9599639845400542, abs=1e-12)

    def test_unit_cutoff(self):
        # alpha1 chosen as the rounded upper-tail mass at 1.0
        value = futility_cutoff(0.15866)
        assert value == pytest.approx(0.9999803859660789, abs=1e-12)
        assert value == pytest.approx(1.0, abs=1e-3)

    def test_degenerate_bounds_signal_the_caller(self):
        # 0 always stops and 1 never stops
        assert futility_cutoff(0.0) == math.inf
        assert futility_cutoff(1.0) == -math.inf

    def test_strictly_decreasing(self):
        grid = [i / 40 for i in range(1, 40)]
        values = [futility_cutoff(a) for a in grid]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestNccWeight:
    def test_equal_cells(self):
        assert ncc_weight(150, 150, 150, 150) == pytest.approx(0.25, abs=1e-15)

    def test_unequal_cells(self):
        assert ncc_weight(50, 150, 50, 150) == pytest.approx(0.125, abs=1e-15)

    def test_stopped_arm_gives_zero(self):
        """A futility stop gives the non-concurrent controls weight zero: every
        stopped trial's estimate is ``m22 - m02``, whatever the means on the
        non-concurrent route (m01, m11, m12)."""
        config = default_config(alpha1=0.0)
        route = np.array([[0.0, 0.0, 0.0], [1.5, -2.0, 4.0], [-3.0, 0.5, -1.0]])
        means = np.column_stack([route[:, :2], np.full(3, 0.3), route[:, 2], np.full(3, 0.8)])
        point = point_estimates(config, means)
        assert not point.continued.any()
        np.testing.assert_array_equal(point.estimates, np.full((len(METHODS), 3), 0.8 - 0.3))
        np.testing.assert_array_equal(point.corrections, np.zeros((len(METHODS), 3)))

    def test_monotonicity_over_grid(self):
        sizes = (3, 10, 40, 150, 600)
        for n01 in sizes:
            for n02 in sizes:
                for n11 in sizes:
                    for n12 in sizes:
                        base = ncc_weight(n01, n02, n11, n12)
                        assert 0.0 <= base < 1.0
                        # increasing any non-concurrent-route size raises rho,
                        # increasing the concurrent control size lowers it
                        assert ncc_weight(n01 + 1, n02, n11, n12) > base
                        assert ncc_weight(n01, n02, n11 + 1, n12) > base
                        assert ncc_weight(n01, n02, n11, n12 + 1) > base
                        assert ncc_weight(n01, n02 + 1, n11, n12) < base

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            ncc_weight(0, 150, 150, 150)
        with pytest.raises(ValueError):
            ncc_weight(150, 150, 150, -1)
        with pytest.raises(ValueError, match="n12"):
            ncc_weight(150, 150, 150, 0)


class TestDerivedQuantities:
    def test_reported_ratios(self):
        config = default_config(n01=300, n11=600, n02=150, n12=300, n22=150)
        assert config.ratio_r == pytest.approx(2.0)
        assert config.ratio_a == pytest.approx(2.0)

    def test_period1_se(self):
        config = default_config()
        assert config.period1_se == pytest.approx(0.11547005383792516, abs=1e-15)

    def test_rho_property_matches_function(self):
        assert default_config().rho == pytest.approx(0.25)

    def test_total_planned(self):
        assert default_config().total_planned == 750

    def test_cells_in_cell_order(self):
        config = default_config(n01=1, n11=2, n02=3, n12=4, n22=5)
        assert config.cells == (1, 2, 3, 4, 5)
        assert config.total_planned == 15

    def test_cached_constants_follow_replace(self):
        config = default_config()
        assert config.c1 == futility_cutoff(0.5)
        assert config.z_alpha == normal.quantile(1.0 - 0.025)
        assert dataclasses.replace(config, alpha1=0.9).c1 == futility_cutoff(0.9)
        assert dataclasses.replace(config, alpha=0.05).z_alpha == normal.quantile(0.95)

    def test_derived_constants_are_python_floats(self):
        config = default_config()
        for name in ("c1", "z_alpha", "period1_se", "rho", "i1", "i2"):
            assert type(getattr(config, name)) is float, name

    def test_cached_constants_survive_pickling(self):
        # the process pool pickles each chunk's scenario, config included
        config = default_config(alpha1=0.3, alpha=0.05)
        c1, z_alpha = config.c1, config.z_alpha
        copy = pickle.loads(pickle.dumps(config))
        assert copy == config
        assert (copy.c1, copy.z_alpha) == (c1, z_alpha)

    def test_trend_spec_default(self):
        assert default_config().trend == TimeTrendSpec(TrendPattern.NONE, 0.0)
