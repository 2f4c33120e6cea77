import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpl.cpe import PriorEstimationError, estimate_prior, prior_error

from conftest import separable_score_mixture


class TestEstimatePrior:
    def test_separated_supports(self):
        est = estimate_prior([0.9, 0.8], [0.1, 0.2])
        assert est.pi_hat == 0.0
        assert est.c_star == pytest.approx(0.8)

    def test_identical_multisets(self):
        s = [0.1, 0.4, 0.6, 0.9]
        est = estimate_prior(s, list(s))
        assert est.pi_hat == 1.0

    def test_known_ratio_curve(self):
        sp = [0.6, 0.7, 0.8, 0.9]
        su = [0.95, 0.75, 0.65, 0.5, 0.4, 0.3, 0.2, 0.1]
        est = estimate_prior(sp, su)
        assert est.pi_hat == pytest.approx(0.25)
        assert est.c_star == pytest.approx(0.8)
        # candidate grid: every distinct score of either set, plus 0
        assert len(est.curve) == len(set(sp) | set(su) | {0.0})

    def test_all_excluded_errors(self):
        with pytest.raises(PriorEstimationError, match="excluded"):
            estimate_prior([0.5, 0.6], [0.1], q_floor=1.5)

    @pytest.mark.parametrize("q_floor", [float("nan"), -1.0, -1e-12])
    def test_negative_or_nan_floor_rejected(self, q_floor):
        # NaN would otherwise exclude every threshold and blame max Q_p
        with pytest.raises(PriorEstimationError, match=f"q_floor must be >= 0, got {q_floor}"):
            estimate_prior([0.5, 0.6], [0.1], q_floor=q_floor)

    def test_empty_scores_rejected(self):
        with pytest.raises(PriorEstimationError):
            estimate_prior([], [0.5])

    def test_out_of_range_rejected(self):
        with pytest.raises(PriorEstimationError):
            estimate_prior([1.2], [0.5])

    def test_tie_picks_smallest_threshold(self):
        # ratio is 1.0 at every admissible c; c*=0 is the smallest candidate
        est = estimate_prior([0.5], [0.5])
        assert est.c_star == 0.0

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), k=st.floats(0.5, 3.0))
    def test_monotone_transform_invariance(self, seed, k):
        rng = np.random.default_rng(seed)
        sp = rng.uniform(0.3, 1.0, size=25)
        su = rng.uniform(0.0, 0.9, size=40)
        a = estimate_prior(sp, su)
        b = estimate_prior(sp**k, su**k)  # strictly increasing on [0,1]
        assert a.pi_hat == pytest.approx(b.pi_hat, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_positive_mass_never_decreases_estimate(self, seed):
        rng = np.random.default_rng(seed)
        sp = rng.uniform(0, 1, size=30)
        su = rng.uniform(0, 1, size=50)
        base = estimate_prior(sp, su).pi_hat
        spiked = estimate_prior(sp, np.concatenate([su, sp])).pi_hat
        assert spiked >= base - 1e-12

    def test_two_component_mixture_recovery(self):
        rng = np.random.default_rng(0)
        pos, u = separable_score_mixture(rng, 2000, 0.25)
        est = estimate_prior(pos, u)
        assert abs(est.pi_hat - 0.25) <= 0.05

    def test_overlapping_mixture_underestimates(self):
        # when the negative component bleeds into the positive support the
        # min-ratio scan picks up downward noise at thin thresholds; the
        # estimate should still land below pi plus contamination, not above
        rng = np.random.default_rng(0)
        n, pi = 2000, 0.25
        pos = rng.beta(8, 2, size=n)
        k = int(round(pi * n))
        u = np.concatenate([rng.beta(8, 2, size=k), rng.beta(2, 8, size=n - k)])
        est = estimate_prior(pos, u)
        assert est.pi_hat <= pi + 0.05


class TestPriorError:
    def test_exact(self):
        assert prior_error(0.25, 0.25) == 0.0

    def test_reported_pair(self):
        assert prior_error(0.1779, 0.1879) == pytest.approx(0.01)

    def test_extreme(self):
        assert prior_error(0.0, 1.0) == 1.0

    def test_range_enforced(self):
        with pytest.raises(PriorEstimationError):
            prior_error(1.5, 0.5)
