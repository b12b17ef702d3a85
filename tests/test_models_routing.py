"""Unit tests for B2I dynamic routing, its vote softmaxes and squash,
and the interest attention and scoring helpers."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.backend.fused import (
    _masked_softmax_capsules,
    _masked_softmax_items,
    _squash_np,
)
from repro.models import (attention_scores, b2i_routing, score_items,
                          score_items_batch)


class TestSquashNp:
    def test_matches_tensor_squash(self, rng):
        from repro.autograd.ops import squash
        x = rng.normal(size=(5, 8))
        assert np.allclose(_squash_np(x), squash(Tensor(x)).data)

    def test_norms_below_one(self, rng):
        x = rng.normal(size=(4, 6)) * 20
        assert (np.linalg.norm(_squash_np(x), axis=1) < 1.0).all()


class TestRouting:
    def test_output_shape(self, rng):
        e_hat = Tensor(rng.normal(size=(10, 8)))
        init = rng.normal(size=(3, 8))
        out = b2i_routing(e_hat, init, iterations=3)
        assert out.shape == (3, 8)

    def test_capsule_norms_below_one(self, rng):
        e_hat = Tensor(rng.normal(size=(10, 8)))
        out = b2i_routing(e_hat, rng.normal(size=(4, 8)), iterations=2)
        assert (np.linalg.norm(out.data, axis=1) < 1.0).all()

    def test_warm_start_alignment(self, rng):
        """Capsules initialized near an item cluster should absorb it."""
        # two well-separated item clusters
        c1, c2 = np.zeros(8), np.zeros(8)
        c1[0], c2[1] = 5.0, 5.0
        items = np.vstack([
            c1 + 0.1 * rng.normal(size=(6, 8)),
            c2 + 0.1 * rng.normal(size=(6, 8)),
        ])
        init = np.vstack([c1, c2]) * 0.2
        out = b2i_routing(Tensor(items), init, iterations=3).data
        # capsule 0 should stay aligned with cluster 1, capsule 1 with cluster 2
        assert out[0] @ c1 > out[0] @ c2
        assert out[1] @ c2 > out[1] @ c1

    def test_gradient_reaches_e_hat(self, rng):
        e_hat = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        out = b2i_routing(e_hat, rng.normal(size=(2, 4)), iterations=2)
        out.sum().backward()
        assert e_hat.grad is not None
        assert np.abs(e_hat.grad).sum() > 0

    def test_init_logits_change_result(self, rng):
        e_hat = Tensor(rng.normal(size=(6, 4)))
        init = rng.normal(size=(2, 4))
        a = b2i_routing(e_hat, init, iterations=2).data
        b = b2i_routing(e_hat, init, iterations=2,
                        init_logits=rng.normal(size=(6, 2)) * 3).data
        assert not np.allclose(a, b)

    def test_single_iteration_allowed(self, rng):
        out = b2i_routing(Tensor(rng.normal(size=(4, 4))),
                          rng.normal(size=(2, 4)), iterations=1)
        assert out.shape == (2, 4)

    @pytest.mark.parametrize("bad_iterations", [0, -1])
    def test_bad_iterations_rejected(self, rng, bad_iterations):
        with pytest.raises(ValueError):
            b2i_routing(Tensor(rng.normal(size=(4, 4))),
                        rng.normal(size=(2, 4)), iterations=bad_iterations)

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            b2i_routing(Tensor(rng.normal(size=(4, 4))),
                        rng.normal(size=(2, 5)))

    def test_1d_e_hat_rejected(self, rng):
        with pytest.raises(ValueError):
            b2i_routing(Tensor(rng.normal(size=(4,))), rng.normal(size=(2, 4)))

    def test_softmax_over_items_columns_sum_to_one(self, rng):
        logits = rng.normal(size=(2, 7, 3))
        for mask in (None, np.arange(7) < np.array([[7], [4]])):
            out = _masked_softmax_items(logits, mask)
            assert np.allclose(out.sum(axis=1), 1.0)
        assert (out[1, 4:] == 0.0).all()  # padded items get no vote

    def test_softmax_over_capsules_is_a_row_softmax(self, rng):
        # N != K != B, so normalising over the wrong axis cannot pass
        logits = rng.normal(size=(2, 7, 3)) * 3.0
        exp = np.exp(logits)
        expected = exp / exp.sum(axis=2)[:, :, None]
        np.testing.assert_allclose(_masked_softmax_capsules(logits, None),
                                   expected, rtol=1e-12)
        # padded capsule columns get exactly zero weight and the real
        # columns renormalise among themselves
        mask = np.arange(3) < np.array([[3], [2]])
        out = _masked_softmax_capsules(logits, mask)
        assert (out[1, :, 2] == 0.0).all()
        exp[1, :, 2] = 0.0
        np.testing.assert_allclose(out, exp / exp.sum(axis=2)[:, :, None],
                                   rtol=1e-12)

    def test_softmaxes_finite_at_large_logits(self, rng):
        # logits in the thousands overflow exp unless each softmax
        # subtracts its max first
        logits = rng.normal(size=(2, 7, 3)) * 1e3
        item_mask = np.arange(7) < np.array([[7], [4]])
        capsule_mask = np.arange(3) < np.array([[3], [2]])
        for softmax, mask, axis in (
                (_masked_softmax_items, None, 1),
                (_masked_softmax_items, item_mask, 1),
                (_masked_softmax_capsules, None, 2),
                (_masked_softmax_capsules, capsule_mask, 2)):
            out = softmax(logits, mask)
            assert np.isfinite(out).all()
            np.testing.assert_allclose(out.sum(axis=axis), 1.0)


class TestAggregator:
    def test_aggregation_is_convex_combination(self, rng):
        interests = rng.normal(size=(4, 6))
        target = rng.normal(size=6)
        v = attention_scores(interests, target) @ interests  # Eq. 5
        # v must lie in the convex hull: its projection on each axis is
        # bounded by the min/max over interests
        assert (v <= interests.max(axis=0) + 1e-12).all()
        assert (v >= interests.min(axis=0) - 1e-12).all()

    def test_dominant_interest_wins(self):
        interests = np.array([[10.0, 0.0], [0.0, 10.0]])
        target = np.array([1.0, 0.0])
        beta = attention_scores(interests, target)
        assert beta[0] > beta[1]

    def test_attention_scores_sum_to_one(self, rng):
        att = attention_scores(rng.normal(size=(5, 3)), rng.normal(size=3))
        assert att.shape == (5,)
        assert np.isclose(att.sum(), 1.0)

    def test_score_items_max_over_interests(self, rng):
        interests = rng.normal(size=(3, 4))
        items = rng.normal(size=(10, 4))
        scores = score_items(interests, items)
        assert np.allclose(scores, (items @ interests.T).max(axis=1))

    @pytest.mark.parametrize(
        "scorer", ["score_items", "score_items_batch", "attention_scores"])
    def test_scoring_leaves_its_inputs_unchanged(self, rng, scorer):
        # callers pass the live item table and the stored interest
        # snapshots; a write into either changes every later score
        interests = rng.normal(size=(3, 4))
        items = rng.normal(size=(10, 4))
        interests_before, items_before = interests.copy(), items.copy()
        if scorer == "score_items":
            score_items(interests, items)
        elif scorer == "score_items_batch":
            score_items_batch([interests, interests[:1]], items)
        else:
            attention_scores(interests, items[2])
        np.testing.assert_array_equal(interests, interests_before)
        np.testing.assert_array_equal(items, items_before)

    def test_score_items_empty_interests(self, rng):
        scores = score_items(np.zeros((0, 4)), rng.normal(size=(5, 4)))
        assert np.allclose(scores, 0.0)

    def test_more_interests_never_lower_scores(self, rng):
        """Adding an interest can only raise max-over-interests scores —
        the retrieval-side rationale for interest expansion."""
        interests = rng.normal(size=(3, 4))
        extra = np.vstack([interests, rng.normal(size=(1, 4))])
        items = rng.normal(size=(20, 4))
        assert (score_items(extra, items) >= score_items(interests, items) - 1e-12).all()
