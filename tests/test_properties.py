"""Property-based tests (hypothesis) for core invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.autograd import Tensor
from repro.autograd.ops import softmax, squash
from repro.autograd.tensor import _unbroadcast
from repro.backend.fused import _squash_np
from repro.eval.metrics import hit_at_k, ndcg_at_k, rank_of_target
from repro.incremental.imsr.nid import kl_from_uniform, puzzlement
from repro.incremental.imsr.pit import project_new_interests, projection_matrix

finite_floats = st.floats(min_value=-50, max_value=50, allow_nan=False,
                          allow_infinity=False, width=64)


def matrices(rows=st.integers(1, 6), cols=st.integers(1, 6)):
    return st.tuples(rows, cols).flatmap(
        lambda shape: arrays(np.float64, shape, elements=finite_floats)
    )


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_softmax_rows_are_distributions(x):
    out = softmax(Tensor(x), axis=-1).data
    assert np.all(out >= 0)
    assert np.allclose(out.sum(axis=-1), 1.0)


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_squash_norm_strictly_below_one(x):
    norms = np.linalg.norm(squash(Tensor(x)).data, axis=-1)
    assert np.all(norms < 1.0)


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_squash_np_matches_tensor_squash(x):
    assert np.allclose(_squash_np(x), squash(Tensor(x)).data, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_unbroadcast_inverts_broadcast(x):
    # broadcasting x (r, c) to (5, r, c) and unbroadcasting sums over axis 0
    g = np.broadcast_to(x, (5,) + x.shape).copy()
    back = _unbroadcast(g, x.shape)
    assert np.allclose(back, 5 * x)


@settings(max_examples=40, deadline=None)
@given(matrices(rows=st.integers(1, 5), cols=st.integers(2, 8)),
       matrices(rows=st.integers(1, 5), cols=st.integers(2, 8)))
def test_projection_residual_orthogonality(existing, new):
    if existing.shape[1] != new.shape[1]:
        new = np.resize(new, (new.shape[0], existing.shape[1]))
    n_existing = existing.shape[0]
    interests = Tensor(np.vstack([existing, new]))
    residual = project_new_interests(interests, n_existing).data[n_existing:]
    # exact in real arithmetic; numerically the error scales with the
    # input magnitudes (the projector involves a pseudo-inverse)
    scale = max(1.0, float(np.abs(new).max() * np.abs(existing).max()))
    assert np.allclose(residual @ existing.T, 0.0, atol=1e-6 * scale)


@settings(max_examples=40, deadline=None)
@given(matrices(rows=st.integers(1, 5), cols=st.integers(2, 8)))
def test_projector_idempotent(existing):
    proj = projection_matrix(existing)
    assert np.allclose(proj @ proj, proj, atol=1e-6)


@settings(max_examples=60, deadline=None)
@given(matrices(rows=st.integers(1, 8), cols=st.integers(2, 6)),
       st.integers(1, 5))
def test_puzzlement_bounds(items, k):
    interests = np.resize(items, (k, items.shape[1]))
    scores = puzzlement(items, interests)
    assert np.all(scores >= 0.0)  # exp(-KL) may underflow to exactly 0
    assert np.all(scores <= 1.0)
    # KL >= 0 exactly; the numerical error of logsumexp scales with the
    # logit magnitudes (items/interests are bounded by 50 here)
    logit_scale = max(1.0, float(np.abs(items @ interests.T).max()))
    assert np.all(kl_from_uniform(items, interests) >= -1e-12 * logit_scale)


@settings(max_examples=60, deadline=None)
@given(arrays(np.float64, st.integers(2, 30), elements=finite_floats),
       st.integers(0, 29))
def test_rank_consistency(scores, idx):
    target = idx % len(scores)
    rank = rank_of_target(scores, target)
    assert 0 <= rank < len(scores)
    # exactly `rank` other items score >= target (pessimistic ties)
    better = sum(
        1 for j, s in enumerate(scores) if j != target and s >= scores[target]
    )
    assert rank == better


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 100), st.integers(1, 50))
def test_metric_relationships(rank, k):
    hit = hit_at_k(rank, k)
    ndcg = ndcg_at_k(rank, k)
    assert 0.0 <= ndcg <= hit <= 1.0
    if rank == 0:
        assert ndcg == 1.0


@settings(max_examples=30, deadline=None)
@given(matrices(rows=st.integers(2, 6), cols=st.integers(2, 6)))
def test_autograd_sum_linearity(x):
    """d(sum(a*x))/dx == a everywhere, for random a."""
    t = Tensor(x, requires_grad=True)
    (t * 3.0).sum().backward()
    assert np.allclose(t.grad, 3.0)


@settings(max_examples=30, deadline=None)
@given(matrices(rows=st.integers(2, 5), cols=st.integers(2, 5)),
       matrices(rows=st.integers(2, 5), cols=st.integers(2, 5)))
def test_matmul_grad_shapes_always_match(a, b):
    """For any compatible pair, backward produces grads of input shape."""
    if a.shape[1] != b.shape[0]:
        b = np.resize(b, (a.shape[1], b.shape[1]))
    ta = Tensor(a, requires_grad=True)
    tb = Tensor(b, requires_grad=True)
    (ta @ tb).sum().backward()
    assert ta.grad.shape == a.shape
    assert tb.grad.shape == b.shape
