"""Performance: batched vs per-user training and interest extraction.

Three measurements:

* the no-grad snapshot refresh both ways: per-user
  ``compute_interests`` calls, and one :func:`batched_compute_interests`
  over all users, which is what ``TrainConfig.batched_snapshots`` runs;
* two asserted floors on a 96-user, 800-item world, best of 3 each:
  one pretraining epoch with the batched engine (groups of 8, batched
  snapshots) at least ``TRAIN_SPEEDUP_FLOOR`` times faster than
  per-user, and differentiable extraction (autograd on) after that
  epoch at least ``EXTRACT_SPEEDUP_FLOOR`` times faster than per-user.

The floors back up the end-to-end comparison, which alone does not
reliably catch a 2x slowdown of either layer: an injected 2x extraction
slowdown moved ``span-ft-eval-wide``'s wall time by 15-43% across
paired runs, on both sides of the 24% bound, and a 2x training
slowdown read ``unresolved`` while other work loaded the machine.
"""

import time

import numpy as np

from conftest import report

from repro.autograd import no_grad
from repro.data import WorldConfig, generate_world, split_time_spans
from repro.experiments import make_strategy, shape_check
from repro.incremental import TrainConfig
from repro.incremental.strategy import build_payloads
from repro.models import ComiRecDR, batched_compute_interests

#: asserted floors on batched / per-user wall time
TRAIN_SPEEDUP_FLOOR = 1.5
EXTRACT_SPEEDUP_FLOOR = 2.0

#: a 96-user, 800-item world: big enough that batching amortizes
LARGE_WORLD = WorldConfig(
    num_users=96, num_items=800, num_topics=12,
    init_topics_per_user=(2, 4), new_topic_rate=0.6, num_spans=3,
    pretrain_events_per_user=(24, 40), span_events_per_user=(10, 16),
    initial_catalog_fraction=0.8, span_activity=0.95, seed=13,
)


def best_of(fn, repeats=3):
    """Best-of-N wall time in seconds (robust to scheduler noise)."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def large_split():
    world = generate_world(LARGE_WORLD)
    return split_time_spans(world.interactions,
                            num_items=LARGE_WORLD.num_items,
                            T=LARGE_WORLD.num_spans, alpha=0.5)


def large_strategy(split, users_per_batch=1):
    """IMSR x ComiRec-DR for one pretraining epoch; ``users_per_batch``
    above 1 turns on the batched engine with batched snapshots."""
    config = TrainConfig(epochs_pretrain=1, epochs_incremental=1,
                         num_negatives=10, seed=0,
                         users_per_batch=users_per_batch,
                         batched_snapshots=users_per_batch > 1)
    return make_strategy("IMSR", "ComiRec-DR", split, config,
                         model_kwargs={"dim": 32, "num_interests": 4})


def assert_floor(title, per_user_s, batched_s, floor):
    speedup = per_user_s / max(batched_s, 1e-9)
    report(
        title,
        f"per-user: {per_user_s*1000:.1f} ms   batched: {batched_s*1000:.1f} ms"
        f"   speedup: {speedup:.1f}x (floor {floor}x)",
        [shape_check(f"batched >= {floor}x per-user", speedup >= floor)],
    )
    assert speedup >= floor, (
        f"batched x{speedup:.2f} is under the x{floor} floor")


def test_perf_batched_extraction(run_once):
    def build():
        rng = np.random.default_rng(0)
        model = ComiRecDR(num_items=2000, dim=32, num_interests=4, seed=0)
        jobs = []
        for user in range(300):
            state = model.init_user_state(user)
            if user % 3 == 0:
                model.expand_user(state, 3, span=1)
            seq = rng.integers(0, 2000, size=int(rng.integers(8, 40))).tolist()
            jobs.append((state, seq))

        with no_grad():
            start = time.perf_counter()
            slow = [model.compute_interests(s, seq).data for s, seq in jobs]
            per_user_s = time.perf_counter() - start

            start = time.perf_counter()
            interests, _, ks = batched_compute_interests(model, jobs)
            fast = [interests.data[b, :k] for b, k in enumerate(ks)]
            batched_s = time.perf_counter() - start

        max_err = max(
            float(np.abs(a - b).max()) for a, b in zip(slow, fast)
        )
        return per_user_s, batched_s, max_err

    per_user_s, batched_s, max_err = run_once(build)
    speedup = per_user_s / max(batched_s, 1e-9)
    checks = [
        shape_check("batched extraction outputs match per-user (1e-8)",
                    max_err < 1e-8),
        # the per-user path is already numpy-bound, so the win is the
        # removed python overhead; padding waste caps it on ragged
        # batches
        shape_check("batched extraction is not slower than per-user",
                    speedup >= 1.0),
    ]
    report(
        "Performance: batched vs per-user extraction (300 users)",
        f"per-user: {per_user_s*1000:.1f} ms   batched: {batched_s*1000:.1f} ms"
        f"   speedup: {speedup:.1f}x   max err: {max_err:.2e}",
        checks,
    )


def test_perf_batched_training_floor(run_once):
    def build():
        split = large_split()
        per_user_s = best_of(lambda: large_strategy(split).pretrain())
        batched_s = best_of(
            lambda: large_strategy(split, users_per_batch=8).pretrain())
        return per_user_s, batched_s

    assert_floor("Performance: one pretraining epoch, batched (B=8) floor",
                 *run_once(build), TRAIN_SPEEDUP_FLOOR)


def test_perf_batched_extraction_floor(run_once):
    def build():
        split = large_split()
        strategy = large_strategy(split)
        strategy.pretrain()
        model = strategy.model
        jobs = [(strategy.states[p.user], p.history)
                for p in build_payloads(split.pretrain, strategy.config)]
        per_user_s = best_of(
            lambda: [model.compute_interests(s, seq) for s, seq in jobs])
        batched_s = best_of(lambda: batched_compute_interests(model, jobs))
        return per_user_s, batched_s

    assert_floor("Performance: differentiable extraction floor",
                 *run_once(build), EXTRACT_SPEEDUP_FLOOR)
