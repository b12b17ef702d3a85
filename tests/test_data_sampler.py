"""Unit tests for negative sampling."""

import numpy as np
import pytest

from repro.data import NegativeSampler


class TestNegativeSampler:
    def test_never_contains_target(self):
        sampler = NegativeSampler(num_items=5, num_negatives=4,
                                  rng=np.random.default_rng(0))
        for target in range(5):
            for _ in range(20):
                negs = sampler.sample(target)
                assert target not in negs

    def test_sample_count(self):
        sampler = NegativeSampler(num_items=100, num_negatives=7)
        assert len(sampler.sample(3)) == 7

    def test_negatives_capped_by_catalog(self):
        sampler = NegativeSampler(num_items=3, num_negatives=10)
        assert sampler.num_negatives == 2

    def test_tiny_catalog_rejected(self):
        with pytest.raises(ValueError):
            NegativeSampler(num_items=1)

    def test_deterministic_with_seeded_rng(self):
        a = NegativeSampler(10, 5, rng=np.random.default_rng(3)).sample(0)
        b = NegativeSampler(10, 5, rng=np.random.default_rng(3)).sample(0)
        assert np.array_equal(a, b)

    def test_roughly_uniform(self):
        sampler = NegativeSampler(num_items=10, num_negatives=5,
                                  rng=np.random.default_rng(1))
        counts = np.zeros(10)
        for _ in range(2000):
            for item in sampler.sample(9):
                counts[item] += 1
        assert counts[9] == 0
        others = counts[:9]
        assert others.min() > 0.5 * others.mean()

