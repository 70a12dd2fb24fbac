import math

import numpy as np
import pytest
from scipy.stats import norm

from nccsim import (
    Theta1Method,
    cumvue_from_means,
    umvue_from_means,
)
from nccsim.theta1 import plug_ins
from conftest import analyse, cell_counts, cell_means, default_config, make_dataset
from oracle import simulate_trial


def equal_period_dataset():
    return make_dataset(
        {(0, 1): [0.0, 0.0], (1, 1): [1.0, 1.0],
         (0, 2): [2.0, 2.0], (1, 2): [3.0, 3.0], (2, 2): [4.0, 4.0]}
    )


def theta1_hats(data, config=None):
    """Every plug-in of ``data``; the design defaults to the data's cell sizes."""
    if config is None:
        sizes = dict(zip(("n01", "n11", "n02", "n12", "n22"), cell_counts(data)))
        config = default_config(**sizes)
    m01, m11, m02, m12, _ = cell_means(data)
    return plug_ins(m01, m11, m02, m12, config)


class TestPlainEstimators:
    def test_pooled_equal_periods(self):
        assert theta1_hats(equal_period_dataset())[Theta1Method.POOLED] == pytest.approx(1.0)

    def test_pooled_weights_by_patients(self):
        data = make_dataset(
            {(0, 1): [0.0] * 4, (1, 1): [1.0] * 2,
             (0, 2): [2.0] * 4, (1, 2): [3.0] * 6, (2, 2): [0.0]}
        )
        # arm 1: (2*1 + 6*3)/8 = 2.5 ; control: (4*0 + 4*2)/8 = 1
        assert theta1_hats(data)[Theta1Method.POOLED] == pytest.approx(1.5)

    def test_period1(self):
        assert theta1_hats(equal_period_dataset())[Theta1Method.PERIOD1] == pytest.approx(1.0)

    def test_period2(self):
        assert theta1_hats(equal_period_dataset())[Theta1Method.PERIOD2] == pytest.approx(1.0)

    def test_period2_degenerate_noise(self):
        config = default_config(sigma=1e-12, theta1=0.2)
        data = simulate_trial(config, 9)
        assert theta1_hats(data, config)[Theta1Method.PERIOD2] == pytest.approx(0.2, abs=1e-9)


class TestInformationLevels:
    def test_default_design_values(self):
        config = default_config()
        assert config.i1 == pytest.approx(75.0, rel=1e-12)
        assert config.i2 == pytest.approx(150.0, rel=1e-12)

    def test_interim_information_matches_variance(self):
        config = default_config(n01=40, n11=90, n02=70, n12=30)
        assert config.i1 == pytest.approx(1.0 / config.period1_se**2, rel=1e-12)
        pooled_var = config.sigma**2 * (1 / (90 + 30) + 1 / (40 + 70))
        assert config.i2 == pytest.approx(1.0 / pooled_var, rel=1e-12)
        assert config.i1 < config.i2


class TestUmvue:
    def test_matches_mean_variance_parametrization(self):
        # independent transcription with an explicit normal(mean, variance)
        # density/cdf, against the standardized implementation
        i1, i2 = 75.0, 150.0
        for c1 in (-1.2, 0.0, 0.8):
            for mle in (-0.4, -0.05, 0.0, 0.1, 0.5):
                z12 = mle * math.sqrt(i2)
                m = z12 * math.sqrt(i1 / i2)
                v = (i2 - i1) / i2
                ref = mle - (i2 - i1) / (i2 * math.sqrt(i1)) * (
                    -norm.pdf(c1, loc=m, scale=math.sqrt(v))
                ) / norm.sf(c1, loc=m, scale=math.sqrt(v))
                assert umvue_from_means(mle, i1, i2, c1) == pytest.approx(ref, rel=1e-12)

    def test_correction_is_positive(self):
        assert umvue_from_means(0.1, 75.0, 150.0, 0.0) > 0.1

    def test_never_stop_rule_recovers_pooled_mle(self):
        # c1 = -inf: the truncation lift vanishes
        assert umvue_from_means(0.37, 75.0, 150.0, -math.inf) == pytest.approx(0.37, abs=1e-15)

    def test_seeded_dataset_value_against_oracle(self):
        config = default_config()
        data = simulate_trial(config, 20240812)
        assert analyse(data, config).continued[0]  # seed chosen to continue
        pooled = theta1_hats(data, config)[Theta1Method.POOLED]
        i1, i2, c1 = config.i1, config.i2, config.c1
        z12 = pooled * math.sqrt(i2)
        m = z12 * math.sqrt(i1 / i2)
        v = (i2 - i1) / i2
        expected = pooled + (i2 - i1) / (i2 * math.sqrt(i1)) * (
            norm.pdf(c1, loc=m, scale=math.sqrt(v))
            / norm.sf(c1, loc=m, scale=math.sqrt(v))
        )
        assert umvue_from_means(pooled, i1, i2, c1) == pytest.approx(expected, rel=1e-12)

    def test_information_ordering_enforced(self):
        with pytest.raises(ValueError):
            umvue_from_means(0.0, 75.0, 75.0, 0.0)


class TestCumvue:
    def test_algebraic_identity_at_default_design(self):
        # i2 = 2 * i1, so the estimator is 2*MLE - UMVUE
        config = default_config()
        data = simulate_trial(config, 20240812)
        assert analyse(data, config).continued[0]
        hats = theta1_hats(data, config)
        mle = hats[Theta1Method.POOLED]
        umvue = umvue_from_means(mle, config.i1, config.i2, config.c1)
        assert hats[Theta1Method.CUMVUE] == pytest.approx(2.0 * mle - umvue, rel=1e-12)

    def test_equals_mle_when_umvue_does(self):
        assert cumvue_from_means(0.37, 75.0, 150.0, -math.inf) == pytest.approx(0.37, abs=1e-14)

    def test_dispatch(self):
        # each key holds its own estimator, checked on the patient rows
        config = default_config()
        data = simulate_trial(config, 20240812)
        assert analyse(data, config).continued[0]
        hats = theta1_hats(data, config)
        assert list(hats) == list(Theta1Method)
        arm1, control = data.y[data.arm == 1], data.y[data.arm == 0]
        pooled = arm1.mean() - control.mean()
        expected = {
            Theta1Method.POOLED: pooled,
            Theta1Method.PERIOD1: data.cell(1, 1).mean() - data.cell(0, 1).mean(),
            Theta1Method.PERIOD2: data.cell(1, 2).mean() - data.cell(0, 2).mean(),
            Theta1Method.CUMVUE: cumvue_from_means(pooled, config.i1, config.i2, config.c1),
        }
        for method, value in expected.items():
            assert hats[method] == pytest.approx(value, rel=1e-12), method


class TestConditionalBehavior:
    """Monte Carlo checks on cell-mean draws (the estimators are functions
    of the cell means only). Full pipeline versions run in the acceptance
    suite at higher replicate counts."""

    @staticmethod
    def _conditional_sample(theta1, reps=200_000, seed=606):
        rng = np.random.default_rng(seed)
        n = 150.0
        sd = 1.0 / math.sqrt(n)
        m01 = rng.normal(0.0, sd, reps)
        m11 = rng.normal(theta1, sd, reps)
        m02 = rng.normal(0.0, sd, reps)
        m12 = rng.normal(theta1, sd, reps)
        se1 = math.sqrt(2.0 / n)
        cont = (m11 - m01) / se1 >= 0.0
        pooled = (m11 + m12) / 2 - (m01 + m02) / 2
        return {
            "pooled": pooled[cont],
            "period1": (m11 - m01)[cont],
            "period2": (m12 - m02)[cont],
            "cumvue": cumvue_from_means(pooled, 75.0, 150.0, 0.0)[cont],
        }

    def test_conditional_bias_signs_at_null(self):
        sample = self._conditional_sample(0.0)
        for name in ("period2", "cumvue"):
            values = sample[name]
            se = values.std(ddof=1) / math.sqrt(values.size)
            assert abs(values.mean()) < 3 * se, name
        for name in ("pooled", "period1"):
            values = sample[name]
            se = values.std(ddof=1) / math.sqrt(values.size)
            assert values.mean() > 3 * se, name

    def test_cumvue_beats_period2_variance(self):
        sample = self._conditional_sample(0.0)
        assert sample["cumvue"].var() < sample["period2"].var()
