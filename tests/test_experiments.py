import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxseq.experiments import trend_spearman


class TestTrendSpearman:
    def test_value_with_tied_wers(self):
        # scipy 1.17.1: spearmanr([0, 1, 2, 4, 8], [0.1, 0.2, 0.2, 0.15, 0.3])
        curve = [(0, 0.1), (1, 0.2), (2, 0.2), (4, 0.15), (8, 0.3)]
        assert trend_spearman(curve) == pytest.approx(0.6668859288553501, rel=1e-12)

    def test_monotone_curves(self):
        assert trend_spearman([(0, 0.1), (2, 0.3), (5, 0.9)]) == pytest.approx(1.0)
        assert trend_spearman([(0, 0.9), (2, 0.3), (5, 0.1)]) == pytest.approx(-1.0)

    def test_constant_input_is_nan(self):
        assert math.isnan(trend_spearman([(0, 0.2), (1, 0.2), (2, 0.2)]))
        assert math.isnan(trend_spearman([(4, 0.1), (4, 0.2)]))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 4), st.sampled_from([0.0, 0.1, 0.25, 0.5])), min_size=2, max_size=9))
    def test_invariant_under_monotone_transforms(self, curve):
        # Ranks alone matter: a strictly increasing map of either side
        # leaves the statistic unchanged.
        moved = [(3 * n + 7, np.exp(w)) for n, w in curve]
        a, b = trend_spearman(curve), trend_spearman(moved)
        assert (math.isnan(a) and math.isnan(b)) or a == pytest.approx(b, abs=1e-12)
