import hashlib
import math

import numpy as np
import pytest

from sltr.io import encode_dataset, encode_tensor
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
        with pytest.raises(ValueError):
            SimSpec(dims=(2, 2), n=2.5)
        with pytest.raises(ValueError):
            SimSpec(dims=(2, 2), n=2.0)
        with pytest.raises(ValueError):
            SimSpec(dims=(2, 2), n=2, low_rank=1.5)
        with pytest.raises(ValueError):
            SimSpec(dims=(2.7, 2), n=2)
        with pytest.raises(ValueError):
            SimSpec(dims=(2.0, 2), n=2)
        with pytest.raises(ValueError):
            SimSpec(dims=(2, 2), n=2, seed=1.5)
        with pytest.raises(ValueError):
            SimSpec(dims=(2, 2), n=2, seed=1.0)

    def test_integer_types_accepted(self):
        spec = SimSpec(dims=(np.int64(2), 2), n=np.int64(2), seed=np.uint32(3),
                       low_rank=np.int32(1))
        assert generate(spec)[0].n == 2


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

    @pytest.mark.parametrize("spec,dataset_sha,tensor_sha", [
        (SimSpec((10, 10, 5), n=40, seed=0),
         "5e42962dd2a2f56f075f0735acf26448699393d61ac493630f71c7fbebe004e1",
         "f26f5b64d04ccf4f154f008184de71a52cc2d982942e97122fca8b075e5abe64"),
        (SimSpec((3, 4, 2), n=5, sparsity_pct=50, seed=7),
         "4999ea78cd8b0d5309e879b8f948ba52a328dc40f186a4eb6f0b54d4f5857503",
         "6746f8fde665cc62ee6203c350c9ef4ae20ee16cf6cb28906d3563edd34bc76d"),
        (SimSpec((4, 3), n=3, sparsity_pct=30, seed=6, low_rank=1),
         "f0d20cb5b94a31e3cfde9d52fdf601e7f341a05dabbe09987f33216228ad7b48",
         "68e552980b3287808eb0e1ec2966964646f22bff2c60c4e75310d7f7c1cdf4fa"),
    ])
    def test_golden_digests(self, spec, dataset_sha, tensor_sha):
        # The recipe is pinned across platforms and versions: these files are
        # what every conforming generator emits for these specs.
        ds, w_star = generate(spec)
        assert hashlib.sha256(encode_dataset(ds)).hexdigest() == dataset_sha
        assert hashlib.sha256(encode_tensor(w_star)).hexdigest() == tensor_sha

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
