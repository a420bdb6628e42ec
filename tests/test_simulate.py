import math

import numpy as np
import pytest

from sltr.simulate import SimSpec, generate
from sltr.solver import predict
from sltr.evaluation import unfolding_ranks


class TestSpecValidation:
    def test_bounds(self):
        with pytest.raises(ValueError):
            SimSpec(dims=(3, 3), n=0)
        with pytest.raises(ValueError):
            SimSpec(dims=(3, 3), n=1, sparsity_pct=101)
        with pytest.raises(ValueError):
            SimSpec(dims=(3, 0), n=1)
        with pytest.raises(ValueError):
            SimSpec(dims=(3, 3), n=1, low_rank=0)
        with pytest.raises(ValueError):
            SimSpec(dims=(3, 3), n=1, noise_alpha=-0.1)
        with pytest.raises(ValueError):
            SimSpec(dims=(3, 3), n=1, noise_alpha=math.nan)


class TestGenerate:
    def test_full_sparsity_zeroes_coefficient(self):
        ds, w_star = generate(SimSpec(dims=(4, 5), n=6, sparsity_pct=100.0, noise_alpha=0.5, seed=1))
        assert not w_star.data.any()
        # responses are then pure scaled noise, unchanged by the coefficient
        assert np.all(ds.y != 0.0)
        np.testing.assert_array_equal(predict(w_star, ds.samples()), np.zeros(6))

    def test_noiseless_responses_match_predict_exactly(self):
        ds, w_star = generate(SimSpec(dims=(3, 4, 2), n=8, sparsity_pct=60.0, noise_alpha=0.0, seed=2))
        np.testing.assert_array_equal(ds.y, predict(w_star, ds.samples()))

    def test_fixed_seed_bit_identical(self):
        spec = SimSpec(dims=(3, 3), n=2, sparsity_pct=50.0, noise_alpha=0.1, seed=42)
        ds1, w1 = generate(spec)
        ds2, w2 = generate(spec)
        assert np.array_equal(ds1.x, ds2.x)
        assert np.array_equal(ds1.y, ds2.y)
        assert np.array_equal(w1.data, w2.data)

    def test_different_seeds_differ(self):
        a, _ = generate(SimSpec(dims=(3, 3), n=2, seed=1))
        b, _ = generate(SimSpec(dims=(3, 3), n=2, seed=2))
        assert not np.array_equal(a.x, b.x)

    @pytest.mark.parametrize("pct,expected", [(0.0, 0), (33.0, 7), (50.0, 10), (80.0, 16), (100.0, 20)])
    def test_zero_count_exact(self, pct, expected):
        # P = 20; zero count must equal floor(pct * P / 100 + 0.5)
        _, w_star = generate(SimSpec(dims=(4, 5), n=1, sparsity_pct=pct, noise_alpha=0.0, seed=3))
        assert int(np.count_nonzero(w_star.data == 0.0)) == expected

    def test_sample_moments(self):
        ds, _ = generate(SimSpec(dims=(10, 10), n=120, sparsity_pct=0.0, noise_alpha=0.0, seed=4))
        vals = ds.x.ravel()  # 12000 standard normals
        n = vals.size
        assert abs(np.mean(vals)) <= 5.0 / math.sqrt(n)
        # var of sample variance ~ 2/n for normals
        assert abs(np.var(vals) - 1.0) <= 5.0 * math.sqrt(2.0 / n)

    def test_low_rank_variant_bounds_unfolding_ranks(self):
        _, w_star = generate(
            SimSpec(dims=(6, 5, 4), n=1, sparsity_pct=0.0, noise_alpha=0.0, seed=5, low_rank=2)
        )
        assert all(r <= 2 for r in unfolding_ranks(w_star))

    def test_low_rank_stream_is_stable(self):
        spec = SimSpec(dims=(4, 3), n=3, sparsity_pct=30.0, noise_alpha=0.1, seed=6, low_rank=1)
        _, w1 = generate(spec)
        _, w2 = generate(spec)
        assert np.array_equal(w1.data, w2.data)
        assert unfolding_ranks(w1)[0] <= 1 or np.count_nonzero(w1.data == 0) > 0
