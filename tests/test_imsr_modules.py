"""Unit tests for the three IMSR modules: EIR, NID, PIT."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.autograd.ops import binary_cross_entropy, log_softmax, sigmoid
from repro.incremental.imsr import (
    RETAINERS,
    detect_new_interests,
    euclidean_retention_loss,
    get_retainer,
    kl_from_uniform,
    mean_puzzlement,
    orthogonal_residual,
    project_new_interests,
    projection_matrix,
    puzzled_users,
    puzzlement,
    redundancy_report,
    sigmoid_distillation_loss,
    trim_mask,
)


def constant_teacher_loss(name, interests, prev, targets, tau):
    """Retainer ``name``'s loss with the teacher computed from a copy of
    the target embeddings, so only the student depends on ``targets``."""
    if name == "KD3":  # KD1 at doubled temperature, scaled by tau^2
        return constant_teacher_loss("KD1", interests, prev, targets,
                                     2 * tau) * ((2 * tau) ** 2)
    k = prev.shape[0]
    frozen = targets.data.copy()
    if name == "KD1":  # per target, a distribution over the interests
        student = (targets @ interests[:k].T) * (1.0 / tau)
        teacher = frozen @ prev.T / tau
    else:  # EIR and KD2: per interest, over the targets
        student = (interests[:k] @ targets.T) * (1.0 / tau)
        teacher = prev @ frozen.T / tau
    if name == "EIR":
        return binary_cross_entropy(sigmoid(student),
                                    Tensor(1.0 / (1.0 + np.exp(-teacher))))
    teacher = np.exp(teacher - teacher.max(axis=1, keepdims=True))
    teacher /= teacher.sum(axis=1, keepdims=True)
    return -(Tensor(teacher) * log_softmax(student, axis=1)).sum(axis=1).mean()


class TestEIR:
    def test_zero_when_student_equals_teacher(self, rng):
        interests = rng.normal(size=(3, 4))
        targets = Tensor(rng.normal(size=(5, 4)))
        loss = sigmoid_distillation_loss(Tensor(interests), interests, targets)
        # BCE of p against itself equals its entropy, which is the minimum
        moved = sigmoid_distillation_loss(
            Tensor(interests + 2.0), interests, targets)
        assert loss.item() < moved.item()

    def test_gradient_pulls_student_to_teacher(self, rng):
        teacher = rng.normal(size=(2, 4))
        student = Tensor(teacher + 1.0, requires_grad=True)
        targets = Tensor(rng.normal(size=(6, 4)))
        loss = sigmoid_distillation_loss(student, teacher, targets)
        loss.backward()
        # one gradient step must reduce the loss
        stepped = Tensor(student.data - 0.1 * student.grad)
        assert sigmoid_distillation_loss(stepped, teacher, targets).item() < loss.item()

    def test_only_existing_rows_distilled(self, rng):
        teacher = rng.normal(size=(2, 4))
        student = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        targets = Tensor(rng.normal(size=(3, 4)))
        sigmoid_distillation_loss(student, teacher, targets).backward()
        assert np.abs(student.grad[:2]).sum() > 0
        assert np.allclose(student.grad[2:], 0.0)

    def test_empty_teacher_returns_zero(self, rng):
        loss = sigmoid_distillation_loss(
            Tensor(rng.normal(size=(2, 4))), np.zeros((0, 4)),
            Tensor(rng.normal(size=(3, 4))))
        assert loss.item() == 0.0

    def test_temperature_softens(self, rng):
        teacher = rng.normal(size=(2, 4)) * 4
        student = Tensor(teacher * -1.0)
        targets = Tensor(rng.normal(size=(4, 4)))
        sharp = sigmoid_distillation_loss(student, teacher, targets, temperature=0.5)
        soft = sigmoid_distillation_loss(student, teacher, targets, temperature=5.0)
        assert soft.item() < sharp.item()

    def test_dir_zero_iff_equal(self, rng):
        interests = rng.normal(size=(3, 4))
        assert euclidean_retention_loss(Tensor(interests), interests).item() == 0.0
        assert euclidean_retention_loss(
            Tensor(interests + 1), interests).item() == pytest.approx(1.0)

    def test_retainer_registry(self):
        assert set(RETAINERS) == {"EIR", "DIR", "KD1", "KD2", "KD3"}
        with pytest.raises(KeyError):
            get_retainer("KD9")

    @pytest.mark.parametrize("name", ["EIR", "DIR", "KD1", "KD2", "KD3"])
    def test_all_retainers_finite_and_nonnegative(self, rng, name):
        fn = get_retainer(name)
        interests = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        prev = rng.normal(size=(3, 6))
        targets = Tensor(rng.normal(size=(5, 6)))
        loss = fn(interests, prev, targets, temperature=1.0)
        assert np.isfinite(loss.item())
        assert loss.item() >= 0.0
        loss.backward()
        assert interests.grad is not None

    @pytest.mark.parametrize("name", sorted(RETAINERS))
    def test_retainer_leaves_its_inputs_unchanged(self, rng, name):
        # prev_interests is the previous span's snapshot that every later
        # step distils against; a write into it changes what EIR retains
        prev = rng.normal(size=(3, 6))
        targets = Tensor(rng.normal(size=(5, 6)))
        prev_before, targets_before = prev.copy(), targets.data.copy()
        interests = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        RETAINERS[name](interests, prev, targets, temperature=1.0).backward()
        np.testing.assert_array_equal(prev, prev_before)
        np.testing.assert_array_equal(targets.data, targets_before)

    @pytest.mark.parametrize("name", ["EIR", "KD1", "KD2", "KD3"])
    def test_gradient_reaches_the_target_embeddings(self, rng, name):
        # the teacher is detached by design, so a finite-difference check
        # through the retainer fails; the reference is the same loss with
        # the teacher computed up front as a constant
        prev = rng.normal(size=(3, 6))
        interests = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        targets = Tensor(rng.normal(size=(5, 6)), requires_grad=True)
        RETAINERS[name](interests, prev, targets, temperature=0.7).backward()
        ref_targets = Tensor(targets.data.copy(), requires_grad=True)
        constant_teacher_loss(name, interests, prev, ref_targets,
                              0.7).backward()
        np.testing.assert_allclose(targets.grad, ref_targets.grad,
                                   rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("name", ["KD1", "KD2", "KD3"])
    def test_kd_variants_zero_teacher_rows(self, rng, name):
        fn = get_retainer(name)
        loss = fn(Tensor(rng.normal(size=(2, 4))), np.zeros((0, 4)),
                  Tensor(rng.normal(size=(3, 4))))
        assert loss.item() == 0.0


class TestNID:
    def test_uniform_affinity_maximal_puzzlement(self):
        # orthogonal interests, item orthogonal to all -> all dot products 0
        interests = np.eye(4)[:3]
        item = np.zeros((1, 4))
        item[0, 3] = 1.0
        assert puzzlement(item, interests)[0] == pytest.approx(1.0)

    def test_dominated_affinity_low_puzzlement(self):
        interests = np.eye(4)[:3] * 10
        item = interests[[0]]  # identical to interest 0
        assert puzzlement(item, interests)[0] < 0.1

    def test_puzzlement_in_unit_interval(self, rng):
        scores = puzzlement(rng.normal(size=(20, 6)), rng.normal(size=(4, 6)))
        assert (scores > 0).all()
        assert (scores <= 1.0).all()

    def test_kl_nonnegative(self, rng):
        kl = kl_from_uniform(rng.normal(size=(10, 5)), rng.normal(size=(3, 5)))
        assert (kl >= -1e-12).all()

    def test_needs_at_least_one_interest(self, rng):
        with pytest.raises(ValueError):
            puzzlement(rng.normal(size=(3, 4)), np.zeros((0, 4)))

    def test_detection_threshold_direction(self):
        interests = np.eye(4)[:3]
        puzzled_item = np.array([[0.0, 0.0, 0.0, 1.0]])
        assert detect_new_interests(puzzled_item, interests, c1=0.9)
        confident_item = interests[[0]] * 10
        assert not detect_new_interests(confident_item, interests, c1=0.9)

    def test_larger_c1_stricter(self, rng):
        """The paper: 'too large c1 prevents the creation of new interests'."""
        embs = rng.normal(size=(10, 6)) * 0.3
        interests = rng.normal(size=(4, 6)) * 0.3
        fired = [detect_new_interests(embs, interests, c1)
                 for c1 in (0.1, 0.5, 0.9999)]
        assert fired[0] and not fired[-1]

    def test_mean_puzzlement_is_mean(self, rng):
        embs = rng.normal(size=(7, 5))
        interests = rng.normal(size=(3, 5))
        # the reference comes first, so a call that rescales its inputs
        # in place cannot also rescale the reference
        expected = float(puzzlement(embs, interests).mean())
        assert mean_puzzlement(embs, interests) == pytest.approx(expected)

    def test_puzzled_users_set(self, rng):
        interests = {0: np.eye(4)[:2] * 10, 1: np.eye(4)[:2] * 10}
        embs = {
            0: np.array([[0.0, 0.0, 1.0, 0.0]]),  # orthogonal -> puzzled
            1: np.eye(4)[[0]] * 10,               # aligned -> confident
        }
        assert puzzled_users(embs, interests, c1=0.9) == [0]


class TestPIT:
    def test_projector_is_idempotent(self, rng):
        existing = rng.normal(size=(3, 8))
        proj = projection_matrix(existing)
        assert np.allclose(proj @ proj, proj, atol=1e-8)

    def test_projector_fixes_span_vectors(self, rng):
        existing = rng.normal(size=(3, 8))
        proj = projection_matrix(existing)
        combo = 0.3 * existing[0] + 0.7 * existing[2]
        assert np.allclose(proj @ combo, combo, atol=1e-8)

    def test_residual_orthogonal_to_existing(self, rng):
        existing = rng.normal(size=(3, 8))
        new = rng.normal(size=(2, 8))
        residual = orthogonal_residual(new, existing)
        assert np.allclose(residual @ existing.T, 0.0, atol=1e-8)

    def test_residual_of_in_span_vector_is_zero(self, rng):
        existing = rng.normal(size=(2, 6))
        redundant = (existing[0] - existing[1])[None, :]
        residual = orthogonal_residual(redundant, existing)
        assert np.allclose(residual, 0.0, atol=1e-8)

    def test_empty_existing_passthrough(self, rng):
        new = rng.normal(size=(2, 4))
        assert np.allclose(orthogonal_residual(new, np.zeros((0, 4))), new)

    def test_project_new_interests_in_graph(self, rng):
        interests = Tensor(rng.normal(size=(5, 6)), requires_grad=True)
        out = project_new_interests(interests, n_existing=3)
        assert out.shape == (5, 6)
        # existing rows unchanged
        assert np.allclose(out.data[:3], interests.data[:3])
        # new rows orthogonal to existing
        assert np.allclose(out.data[3:] @ interests.data[:3].T, 0.0, atol=1e-8)
        out.sum().backward()
        assert interests.grad is not None

    def test_project_noop_without_new_rows(self, rng):
        interests = Tensor(rng.normal(size=(3, 6)))
        out = project_new_interests(interests, n_existing=3)
        assert out is interests

    @pytest.mark.parametrize(
        "helper", ["projection_matrix", "trim_mask", "redundancy_report"])
    def test_helpers_leave_their_inputs_unchanged(self, rng, helper):
        # each reads a user's in-graph or stored interests; a write into
        # them changes what the next step trains on or what Fig. 3 reports
        interests = rng.normal(size=(5, 6))
        items = rng.normal(size=(7, 6))
        interests_before, items_before = interests.copy(), items.copy()
        if helper == "projection_matrix":
            projection_matrix(interests[:3])
        elif helper == "trim_mask":
            trim_mask(interests, 3, 0.5, np.ones(5, dtype=bool))
        else:
            redundancy_report(interests, 3, items)
        np.testing.assert_array_equal(interests, interests_before)
        np.testing.assert_array_equal(items, items_before)

    def test_trim_mask_only_new_rows(self):
        interests = np.vstack([np.ones((2, 4)), np.zeros((2, 4))])
        created = np.array([False, False, True, True])
        keep = trim_mask(interests, n_existing=2, c2=0.5,
                         created_this_span=created)
        assert keep.tolist() == [True, True, False, False]

    def test_trim_mask_spares_older_new_rows(self):
        # a low-norm row not created this span must be kept
        interests = np.vstack([np.ones((2, 4)), np.zeros((1, 4))])
        created = np.array([False, False, False])
        keep = trim_mask(interests, n_existing=2, c2=0.5,
                         created_this_span=created)
        assert keep.all()

    def test_trim_mask_norm_threshold(self):
        interests = np.vstack([
            np.ones((1, 4)),
            np.full((1, 4), 0.4),   # norm 0.8 >= 0.5 -> keep
            np.full((1, 4), 0.1),   # norm 0.2 <  0.5 -> trim
        ])
        created = np.array([False, True, True])
        keep = trim_mask(interests, n_existing=1, c2=0.5,
                         created_this_span=created)
        assert keep.tolist() == [True, True, False]

    def test_redundancy_report_flags_duplicates(self, rng):
        base = rng.normal(size=(2, 6))
        interests = np.vstack([base, base[0:1] * 1.01 + 1e-3])  # near-copy
        items = rng.normal(size=(30, 6))
        corr, norms = redundancy_report(interests, n_existing=2, item_embs=items)
        assert corr.shape == (1, 2)
        assert corr[0, 0] > 0.95
        assert norms.shape == (1,)

    def test_redundancy_report_orthogonal_new(self, rng):
        existing = np.zeros((1, 4)); existing[0, 0] = 1.0
        new = np.zeros((1, 4)); new[0, 1] = 1.0
        items = rng.normal(size=(50, 4))
        corr, _ = redundancy_report(np.vstack([existing, new]), 1, items)
        assert abs(corr[0, 0]) < 0.4
