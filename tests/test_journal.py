"""The on-disk bytes of both journal kinds are pinned.

A run directory written by an older build must resume under a newer one,
so ``journal.json`` and ``stream-journal.json`` keep their key names, key
order, compact encoding, version and SHA-256 trailer byte for byte.  The
expected bytes below were written from the same records by the separate
span and stream journal classes that preceded :class:`repro.journal.Journal`.
"""

from __future__ import annotations

from repro.eval import EvalResult
from repro.experiments import JOURNAL_NAME, SpanRecord
from repro.journal import Journal
from repro.stream import STREAM_JOURNAL_NAME, IntervalRecord

SPAN_JOURNAL_BYTES = (
    b'{"dataset":"tiny","fingerprint":"0123456789abcdef","incidents":'
    b'[{"action":"rolled-back-to-span-0","detail":["param/item_emb.weight"],'
    b'"kind":"non-finite-state","span":1}],"model":"ComiRec-DR","spans":'
    b'{"0":{"checkpoint":"span-000.npz","eval_time":0.0,"extract_time":0.25,'
    b'"rolled_back":false,"span":0,"train_time":1.5},'
    b'"1":{"checkpoint":"span-001.npz","counts":{"3":4,"7":5},'
    b'"eval":{"hr":0.5,"ndcg":0.25,"num_cases":4,'
    b'"per_user":{"3":[1.0,0.5],"7":[0.0,0.0]}},"eval_time":0.375,'
    b'"extract_time":0.125,"interest_mean":4.5,"rolled_back":true,"span":1,'
    b'"train_time":2.5}},"strategy":"IMSR","version":2}'
    b'\nrepro-span-journal-sha256:'
    b'9374f2487bc42ceab6fa4c84db6c41e2cf916d7b2b09ee8434c014c7eaa55a0a\n'
)

STREAM_JOURNAL_BYTES = (
    b'{"dataset":"tiny","fingerprint":"fedcba9876543210","incidents":'
    b'[{"action":"degrade+rollback","detail":["param/item_emb.weight"],'
    b'"interval":1,"kind":"non-finite-state"}],"intervals":'
    b'{"0":{"chain":"","checkpoint":"interval-0000.npz","dropped":0,'
    b'"interval":0,"mode":"healthy","offset":0,"quarantined":0,"scored":0,'
    b'"trained":0},"1":{"chain":"' + b"ab" * 32 + b'",'
    b'"checkpoint":"interval-0001.npz","dropped":0,"interval":1,'
    b'"mode":"degraded","offset":16,"quarantined":1,"scored":16,'
    b'"trained":15,"window_ndcg":0.25,"window_recall":0.5}},'
    b'"model":"ComiRec-DR","prev_state":{"chain":"","interval":0,"offset":0},'
    b'"state":{"chain":"' + b"ab" * 32 + b'","interval":1,"offset":16},'
    b'"strategy":"FT","version":1}'
    b'\nrepro-stream-journal-sha256:'
    b'd21cdb97d6109045c172b1bac4da969dfa87e32cb5677c6e5c43792b27498a50\n'
)


def span_journal(directory) -> Journal:
    """Pretraining, one evaluated and rolled-back span, one incident."""
    journal = Journal(SpanRecord, directory, fingerprint="0123456789abcdef",
                      dataset="tiny", model="ComiRec-DR", strategy="IMSR")
    journal.append(SpanRecord(span=0, train_time=1.5,
                              checkpoint=journal.checkpoint_path(0).name,
                              extract_time=0.25))
    result = EvalResult(hr=0.5, ndcg=0.25, num_cases=4,
                        per_user={3: (1.0, 0.5), 7: (0.0, 0.0)})
    journal.append(SpanRecord(
        span=1, train_time=2.5, checkpoint=journal.checkpoint_path(1).name,
        hr=result.hr, ndcg=result.ndcg, num_cases=result.num_cases,
        per_user=dict(result.per_user), interest_mean=4.5,
        counts={3: 4, 7: 5}, rolled_back=True, extract_time=0.125,
        eval_time=0.375))
    journal.record_incident(1, "non-finite-state", ["param/item_emb.weight"],
                            "rolled-back-to-span-0")
    return journal


def stream_journal(directory) -> Journal:
    """Two intervals with their state blobs, the second windowed and
    degraded, plus one incident."""
    journal = Journal(IntervalRecord, directory,
                      fingerprint="fedcba9876543210", dataset="tiny",
                      model="ComiRec-DR", strategy="FT")
    journal.append(IntervalRecord(
        interval=0, offset=0, trained=0, scored=0, quarantined=0, dropped=0,
        chain="", checkpoint=journal.checkpoint_path(0).name),
        {"interval": 0, "offset": 0, "chain": ""})
    journal.append(IntervalRecord(
        interval=1, offset=16, trained=15, scored=16, quarantined=1,
        dropped=0, chain="ab" * 32, checkpoint=journal.checkpoint_path(1).name,
        mode="degraded", window_recall=0.5, window_ndcg=0.25),
        {"interval": 1, "offset": 16, "chain": "ab" * 32})
    journal.record_incident(1, "non-finite-state", ["param/item_emb.weight"],
                            "degrade+rollback")
    return journal


class TestPinnedFormats:
    def test_span_journal_bytes(self, tmp_path):
        journal = span_journal(tmp_path)
        assert journal.path == tmp_path / JOURNAL_NAME
        assert journal.path.read_bytes() == SPAN_JOURNAL_BYTES

    def test_stream_journal_bytes(self, tmp_path):
        journal = stream_journal(tmp_path)
        assert journal.path == tmp_path / STREAM_JOURNAL_NAME
        assert journal.path.read_bytes() == STREAM_JOURNAL_BYTES

    def test_load_then_write_reproduces_the_bytes(self, tmp_path):
        for name, record_type, expected in (
                (JOURNAL_NAME, SpanRecord, SPAN_JOURNAL_BYTES),
                (STREAM_JOURNAL_NAME, IntervalRecord, STREAM_JOURNAL_BYTES)):
            (tmp_path / name).write_bytes(expected)
            Journal.load(record_type, tmp_path).write()
            assert (tmp_path / name).read_bytes() == expected, name
