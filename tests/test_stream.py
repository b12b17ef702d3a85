"""repro.stream units: validation gate, quarantine, offset journal
integrity (byte-flip property tests), and mid-stream catalog growth."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.data import WorldConfig, generate_world, split_time_spans
from repro.data.sampler import NegativeSampler
from repro.experiments import make_strategy
from repro.faults import flip_one_byte
from repro.incremental import TrainConfig
from repro.journal import Journal, JournalError
from repro.nn import Adam, Embedding, Parameter, SparseAdam
from repro.stream import (
    GateConfig,
    IntervalRecord,
    Quarantine,
    StreamEvent,
    chain_extend,
    events_from_split,
    read_quarantine,
    validate_event,
)


def gate_kwargs(**overrides):
    base = dict(watermark=float("-inf"), seen_keys=set(), num_items=100,
                known_users={1, 2, 3}, gate=GateConfig())
    base.update(overrides)
    return base


def ev(seq=0, user=1, item=5, ts=10.0):
    return StreamEvent(seq=seq, user=user, item=item, ts=ts)


class TestValidationGate:
    def test_clean_event_accepted(self):
        assert validate_event(ev(), **gate_kwargs()) is None

    @pytest.mark.parametrize("user", [-1, 1.5, "3", None, True])
    def test_malformed_user(self, user):
        verdict = validate_event(ev(user=user), **gate_kwargs())
        assert verdict is not None and verdict[0] == "malformed-user"

    @pytest.mark.parametrize("item", [-7, 2.0, "x", False])
    def test_malformed_item(self, item):
        verdict = validate_event(ev(item=item), **gate_kwargs())
        assert verdict is not None and verdict[0] == "malformed-item"

    @pytest.mark.parametrize("ts", [float("nan"), float("inf"), "noon", None])
    def test_malformed_timestamp(self, ts):
        verdict = validate_event(ev(ts=ts), **gate_kwargs())
        assert verdict is not None and verdict[0] == "malformed-timestamp"

    def test_duplicate_detected_by_content_key(self):
        seen = {ev(seq=3).key()}
        # a redelivery carries a new seq but the same (user, item, ts)
        verdict = validate_event(ev(seq=9), **gate_kwargs(seen_keys=seen))
        assert verdict is not None and verdict[0] == "duplicate"

    def test_stale_vs_merely_late(self):
        kwargs = gate_kwargs(watermark=1000.0)
        late = validate_event(ev(ts=960.0), **kwargs)     # within lateness
        stale = validate_event(ev(ts=949.0), **kwargs)    # beyond it
        assert late is None
        assert stale is not None and stale[0] == "stale"

    def test_unknown_item_only_when_growth_disabled(self):
        frozen = GateConfig(allow_new_items=False)
        assert validate_event(ev(item=100), **gate_kwargs()) is None
        verdict = validate_event(ev(item=100), **gate_kwargs(gate=frozen))
        assert verdict is not None and verdict[0] == "unknown-item"

    def test_unknown_user_only_when_growth_disabled(self):
        frozen = GateConfig(allow_new_users=False)
        assert validate_event(ev(user=99), **gate_kwargs()) is None
        verdict = validate_event(ev(user=99), **gate_kwargs(gate=frozen))
        assert verdict is not None and verdict[0] == "unknown-user"

    def test_first_failure_wins(self):
        # malformed beats duplicate beats stale: one unambiguous reason
        seen = {(1, 5, 10.0)}
        verdict = validate_event(ev(user=-1), **gate_kwargs(seen_keys=seen))
        assert verdict[0] == "malformed-user"


#: spans of ~1430 events, past events_from_split's minimum stride of 1000
WIDE_CONFIG = WorldConfig(
    num_users=120, num_items=200, num_topics=8, num_spans=3,
    pretrain_events_per_user=(4, 6), span_events_per_user=(10, 14),
    span_activity=1.0, seed=3)


@pytest.fixture(scope="module")
def wide_split():
    world = generate_world(WIDE_CONFIG)
    return split_time_spans(world.interactions,
                            num_items=WIDE_CONFIG.num_items,
                            T=WIDE_CONFIG.num_spans, alpha=0.5)


class TestEventsFromSplit:
    def test_deterministic_and_seed_sensitive(self, tiny_split):
        a = events_from_split(tiny_split, seed=0)
        b = events_from_split(tiny_split, seed=0)
        c = events_from_split(tiny_split, seed=1)
        assert a == b
        assert [e.key() for e in a] != [e.key() for e in c]

    def test_seqs_are_contiguous_and_ts_nondecreasing(self, tiny_split,
                                                      wide_split):
        assert max(sum(len(span.users[u].all_items) for u in span.user_ids())
                   for span in wide_split.spans) > 1000
        for split in (tiny_split, wide_split):
            events = events_from_split(split, seed=0)
            assert [e.seq for e in events] == list(range(len(events)))
            ts = [e.ts for e in events]
            assert ts == sorted(ts)

    def test_per_user_item_order_preserved(self, tiny_split):
        events = events_from_split(tiny_split, seed=0)
        for t, span in enumerate(tiny_split.spans, start=1):
            lo, hi = t * 1000.0, (t + 1) * 1000.0
            span_events = [e for e in events if lo <= e.ts < hi]
            for user in span.user_ids():
                expected = list(span.users[user].all_items)
                got = [e.item for e in span_events if e.user == user]
                assert got == expected


class TestQuarantine:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "q.jsonl"
        with Quarantine(path) as q:
            q.add(ev(seq=1), "duplicate", "seen before", offset=4)
            q.add(ev(seq=2, item=-1), "malformed-item", "negative", offset=5)
        records = read_quarantine(path)
        assert [r["reason"] for r in records] == ["duplicate", "malformed-item"]
        assert [r["offset"] for r in records] == [4, 5]
        assert records[0]["seq"] == 1

    def test_resume_truncates_past_offset(self, tmp_path):
        path = tmp_path / "q.jsonl"
        with Quarantine(path) as q:
            for offset in range(6):
                q.add(ev(seq=offset), "stale", "", offset=offset)
        # resume from offset 3: records at offsets >= 3 are re-evaluated
        with Quarantine(path, resume_offset=3):
            pass
        assert [r["offset"] for r in read_quarantine(path)] == [0, 1, 2]

    def test_torn_tail_tolerated(self, tmp_path):
        path = tmp_path / "q.jsonl"
        with Quarantine(path) as q:
            q.add(ev(seq=1), "stale", "", offset=0)
        with open(path, "ab") as fh:
            fh.write(b'{"seq": 2, "user": 1, "item')  # crash mid-append
        records = read_quarantine(path)
        assert len(records) == 1 and records[0]["seq"] == 1


def make_journal(tmp_path, intervals=3):
    journal = Journal(IntervalRecord, tmp_path, fingerprint="fp",
                      dataset="tiny", model="ComiRec-DR", strategy="FT")
    chain = ""
    for i in range(intervals):
        chain = chain_extend(chain, i)
        journal.intervals[i] = IntervalRecord(
            interval=i, offset=(i + 1) * 10, trained=(i + 1) * 9,
            scored=(i + 1) * 10, quarantined=i, dropped=0, chain=chain,
            checkpoint=f"interval-{i:04d}.npz", mode="healthy",
            window_recall=0.5, window_ndcg=0.25)
        journal.prev_state = journal.state
        journal.state = {"interval": i, "offset": (i + 1) * 10}
    journal.incidents.append({"interval": 1, "kind": "recovered",
                              "detail": {}, "action": "promote"})
    journal.write()
    return journal


class TestStreamJournal:
    def test_round_trip(self, tmp_path):
        written = make_journal(tmp_path)
        loaded = Journal.load(IntervalRecord, tmp_path)
        assert loaded.fingerprint == "fp"
        assert sorted(loaded.intervals) == [0, 1, 2]
        assert loaded.intervals[2].chain == written.intervals[2].chain
        assert loaded.intervals[1].window_recall == 0.5
        assert loaded.state == {"interval": 2, "offset": 30}
        assert loaded.prev_state == {"interval": 1, "offset": 20}
        assert loaded.incidents == written.incidents

    def test_chain_is_order_sensitive(self):
        ab = chain_extend(chain_extend("", 1), 2)
        ba = chain_extend(chain_extend("", 2), 1)
        assert ab != ba
        assert chain_extend(chain_extend("", 1), 2) == ab

    def test_missing_journal_raises(self, tmp_path):
        with pytest.raises(JournalError, match="no stream journal"):
            Journal.load(IntervalRecord, tmp_path)

    def test_every_byte_flip_is_detected(self, tmp_path):
        """Property test: flip ONE byte anywhere — load must refuse."""
        journal = make_journal(tmp_path)
        size = journal.path.stat().st_size
        rng = np.random.default_rng(11)
        offsets = sorted({0, size - 1,
                          *map(int, rng.integers(size, size=40))})
        for offset in offsets:
            flip_one_byte(journal.path, offset=offset)
            with pytest.raises(JournalError):
                Journal.load(IntervalRecord, tmp_path)
            flip_one_byte(journal.path, offset=offset)  # restore
        Journal.load(IntervalRecord, tmp_path)  # restored file loads again

    def test_truncation_is_detected(self, tmp_path):
        journal = make_journal(tmp_path)
        data = journal.path.read_bytes()
        for keep in (0, 1, len(data) // 2, len(data) - 1):
            journal.path.write_bytes(data[:keep])
            with pytest.raises(JournalError):
                Journal.load(IntervalRecord, tmp_path)
        journal.path.write_bytes(data)
        Journal.load(IntervalRecord, tmp_path)

    def test_state_for_retains_latest_two_only(self, tmp_path):
        journal = make_journal(tmp_path, intervals=3)
        assert journal.state_for(2) == {"interval": 2, "offset": 30}
        assert journal.state_for(1) == {"interval": 1, "offset": 20}
        assert journal.state_for(0) is None


class TestCatalogGrowth:
    def test_embedding_grow_preserves_existing_rows(self):
        emb = Embedding(8, 4, np.random.default_rng(0))
        before = emb.weight.data.copy()
        emb.grow(3, rng=np.random.default_rng(1))
        assert emb.num_embeddings == 11
        assert emb.weight.data.shape == (11, 4)
        np.testing.assert_array_equal(emb.weight.data[:8], before)

    def test_embedding_grow_is_rng_reproducible(self):
        a = Embedding(8, 4, np.random.default_rng(0))
        b = Embedding(8, 4, np.random.default_rng(0))
        a.grow(3, rng=np.random.default_rng(5))
        b.grow(3, rng=np.random.default_rng(5))
        np.testing.assert_array_equal(a.weight.data, b.weight.data)

    def test_embedding_grow_without_rng_zero_fills(self):
        emb = Embedding(8, 4, np.random.default_rng(0))
        emb.grow(2, rng=None)
        np.testing.assert_array_equal(emb.weight.data[8:], 0.0)

    def test_model_grow_items_updates_catalog(self, tiny_split):
        config = TrainConfig(epochs_pretrain=1, epochs_incremental=1,
                             num_negatives=4, seed=0)
        strategy = make_strategy("FT", "ComiRec-DR", tiny_split, config,
                                 model_kwargs={"dim": 10, "num_interests": 2})
        model = strategy.model
        old = model.num_items
        added = model.grow_items(old + 5, rng=model.rng)
        assert added == 5
        assert model.num_items == old + 5
        assert model.item_emb.weight.data.shape[0] == old + 5
        # growing to a smaller/equal catalog is a no-op
        assert model.grow_items(old, rng=model.rng) == 0
        assert model.num_items == old + 5

    def test_sampler_grow_widens_never_shrinks(self):
        sampler = NegativeSampler(num_items=10, num_negatives=4,
                                  rng=np.random.default_rng(0))
        sampler.grow(15)
        assert sampler.num_items == 15
        sampler.grow(8)
        assert sampler.num_items == 15

    def test_dense_adam_rejects_non_row_growth(self):
        p = Parameter(np.zeros((4, 3)))
        opt = Adam([p], lr=0.01)
        p.data = np.zeros((4, 5))  # reshape, not row growth
        p.grad = np.zeros((4, 5))
        with pytest.raises(ValueError, match="shape"):
            opt.step()
