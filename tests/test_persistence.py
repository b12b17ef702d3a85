"""Tests for checkpoint save/load round-trips and format-v3 integrity."""

import hashlib
import io
import json

import numpy as np
import pytest

from repro.backend import use_backend
from repro.experiments import make_strategy, run_strategy
from repro.faults import FaultPlan, InjectedIOError, SimulatedCrash, active, flip_one_byte
from repro.incremental import TrainConfig
from repro.persistence import (
    CheckpointError,
    _collect_arrays,
    checkpoint_info,
    load_checkpoint,
    normalize_checkpoint_path,
    save_checkpoint,
    verify_checkpoint,
)


def with_trailer(archive: bytes) -> bytes:
    """``archive`` plus a valid whole-file SHA-256 trailer."""
    digest = hashlib.sha256(archive).hexdigest().encode("ascii")
    return archive + b"\nrepro-checkpoint-sha256:" + digest + b"\n"


@pytest.fixture()
def fast_config():
    return TrainConfig(epochs_pretrain=2, epochs_incremental=1,
                       num_negatives=4, seed=0)


def build(tiny_split, config, name="IMSR", model="ComiRec-DR"):
    return make_strategy(name, model, tiny_split, config,
                         model_kwargs={"dim": 10, "num_interests": 2},
                         strategy_kwargs={"c1": 0.2} if name == "IMSR" else {})


class TestRoundTrip:
    def test_params_and_states_restored(self, tiny_split, fast_config, tmp_path):
        strategy = build(tiny_split, fast_config)
        strategy.pretrain()
        strategy.train_span(1)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(strategy, path)

        fresh = build(tiny_split, fast_config)
        load_checkpoint(fresh, path)

        for (name, a), (_, b) in zip(strategy.model.named_parameters(),
                                     fresh.model.named_parameters()):
            assert np.allclose(a.data, b.data), name
        for user, state in strategy.states.items():
            restored = fresh.states[user]
            assert np.allclose(state.interests, restored.interests)
            assert np.allclose(state.prev_interests, restored.prev_interests)
            assert state.n_existing == restored.n_existing
            assert np.array_equal(state.created_span, restored.created_span)

    def test_variable_interest_counts_survive(self, tiny_split, fast_config,
                                              tmp_path):
        strategy = build(tiny_split, fast_config)
        strategy.pretrain()
        # force heterogeneous interest counts across users
        users = sorted(strategy.states)
        strategy.model.expand_user(strategy.states[users[0]], 3, span=1)
        strategy.model.expand_user(strategy.states[users[1]], 1, span=1)
        counts = {u: s.num_interests for u, s in strategy.states.items()}
        assert len(set(counts.values())) > 1

        path = tmp_path / "ckpt.npz"
        save_checkpoint(strategy, path)
        fresh = build(tiny_split, fast_config)
        load_checkpoint(fresh, path)
        assert {u: s.num_interests for u, s in fresh.states.items()} == counts

    def test_scoring_identical_after_restore(self, tiny_split, fast_config,
                                             tmp_path):
        strategy = build(tiny_split, fast_config)
        strategy.pretrain()
        strategy.train_span(1)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(strategy, path)
        fresh = build(tiny_split, fast_config)
        load_checkpoint(fresh, path)
        for user in list(strategy.states)[:5]:
            assert np.allclose(strategy.score_user(user),
                               fresh.score_user(user))

    def test_sa_weights_restored(self, tiny_split, fast_config, tmp_path):
        strategy = build(tiny_split, fast_config, model="ComiRec-SA")
        strategy.pretrain()
        path = tmp_path / "sa.npz"
        save_checkpoint(strategy, path)
        fresh = build(tiny_split, fast_config, model="ComiRec-SA")
        load_checkpoint(fresh, path)
        for user, state in strategy.states.items():
            assert np.allclose(state.sa_weights.data,
                               fresh.states[user].sa_weights.data)

    def test_restored_user_arrays_are_owned_and_writable(
            self, tiny_split, fast_config, tmp_path):
        strategy = build(tiny_split, fast_config, model="ComiRec-SA")
        strategy.pretrain()
        path = tmp_path / "ckpt.npz"
        save_checkpoint(strategy, path)
        fresh = build(tiny_split, fast_config, model="ComiRec-SA")
        load_checkpoint(fresh, path)
        restored = [arr for state in fresh.states.values()
                    for arr in (state.interests, state.prev_interests,
                                state.created_span, state.sa_weights.data)]
        # each owns its memory: none is a view into the loaded blob
        assert all(arr.flags.owndata and arr.flags.writeable
                   for arr in restored)
        for i, a in enumerate(restored):
            for b in restored[i + 1:]:
                assert not np.shares_memory(a, b)

    def test_resume_training_after_restore(self, tiny_split, fast_config,
                                           tmp_path):
        strategy = build(tiny_split, fast_config)
        strategy.pretrain()
        strategy.train_span(1)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(strategy, path)
        fresh = build(tiny_split, fast_config)
        load_checkpoint(fresh, path)
        fresh.train_span(2)  # must not crash; states stay consistent
        for state in fresh.states.values():
            assert np.isfinite(state.interests).all()


class TestValidation:
    def test_family_mismatch_rejected(self, tiny_split, fast_config, tmp_path):
        dr = build(tiny_split, fast_config, model="ComiRec-DR")
        dr.pretrain()
        path = tmp_path / "dr.npz"
        save_checkpoint(dr, path)
        sa = build(tiny_split, fast_config, model="ComiRec-SA")
        with pytest.raises(ValueError, match="family"):
            load_checkpoint(sa, path)

    def test_shape_mismatch_rejected(self, tiny_split, fast_config, tmp_path):
        strategy = build(tiny_split, fast_config)
        save_checkpoint(strategy, tmp_path / "a.npz")
        other = make_strategy("IMSR", "ComiRec-DR", tiny_split, fast_config,
                              model_kwargs={"dim": 6, "num_interests": 2})
        with pytest.raises(ValueError, match="shape"):
            load_checkpoint(other, tmp_path / "a.npz")

    def test_checkpoint_info(self, tiny_split, fast_config, tmp_path):
        strategy = build(tiny_split, fast_config)
        path = tmp_path / "info.npz"
        save_checkpoint(strategy, path)
        meta = checkpoint_info(path)
        assert meta["strategy"] == "IMSR"
        assert meta["model_family"] == "dr"
        assert len(meta["users"]) == len(strategy.states)

    def test_strict_rejects_unknown_users(self, tiny_split, fast_config,
                                          tmp_path):
        strategy = build(tiny_split, fast_config)
        path = save_checkpoint(strategy, tmp_path / "full.npz")
        fresh = build(tiny_split, fast_config)
        dropped = sorted(fresh.states)[:2]
        snapshot = fresh.model.state_dict()
        for user in dropped:
            del fresh.states[user]
        with pytest.raises(CheckpointError, match="2 user"):
            load_checkpoint(fresh, path)
        # the failed strict load must not have touched anything
        for name, value in fresh.model.state_dict().items():
            assert np.array_equal(value, snapshot[name]), name

    def test_strict_false_skips_and_warns(self, tiny_split, fast_config,
                                          tmp_path, caplog):
        strategy = build(tiny_split, fast_config)
        strategy.pretrain()
        path = save_checkpoint(strategy, tmp_path / "full.npz")
        fresh = build(tiny_split, fast_config)
        dropped = sorted(fresh.states)[0]
        del fresh.states[dropped]
        with caplog.at_level("WARNING", logger="repro.persistence"):
            load_checkpoint(fresh, path, strict=False)
        assert any(str(dropped) in rec.getMessage()
                   for rec in caplog.records)
        # every user the strategy does know was still restored
        for user, state in fresh.states.items():
            assert np.allclose(state.interests,
                               strategy.states[user].interests)


class TestBackendMismatch:
    """The compute backend fixes every array's dtype but is not part of
    the run fingerprint, so a checkpoint written under one backend must
    not load into a strategy built under the other."""

    @pytest.mark.parametrize("written,loaded,message", [
        ("fast", "default", "float32 but the model computes in float64"),
        ("default", "fast", "float64 but the model computes in float32"),
    ], ids=["fast-to-default", "default-to-fast"])
    def test_other_backends_checkpoint_refused_before_mutation(
            self, tiny_split, fast_config, tmp_path, written, loaded,
            message):
        with use_backend(written):
            source = build(tiny_split, fast_config, name="FT")
            source.pretrain()
            path = save_checkpoint(source, tmp_path / "ckpt.npz")
        with use_backend(loaded):
            target = build(tiny_split, fast_config, name="FT")
        params = target.model.state_dict()
        interests = {u: s.interests.copy() for u, s in target.states.items()}
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(target, path)
        for name, value in target.model.state_dict().items():
            assert value.dtype == params[name].dtype, name
            assert np.array_equal(value, params[name]), name
        for user, state in target.states.items():
            assert state.interests.dtype == interests[user].dtype
            assert np.array_equal(state.interests, interests[user]), user


class TestPathNormalization:
    def test_save_without_suffix_lands_at_npz(self, tiny_split, fast_config,
                                              tmp_path):
        strategy = build(tiny_split, fast_config)
        landed = save_checkpoint(strategy, tmp_path / "span3")
        assert landed == tmp_path / "span3.npz"
        assert landed.exists()

    def test_load_and_verify_accept_suffixless_path(self, tiny_split,
                                                    fast_config, tmp_path):
        strategy = build(tiny_split, fast_config)
        save_checkpoint(strategy, tmp_path / "span3")
        fresh = build(tiny_split, fast_config)
        load_checkpoint(fresh, tmp_path / "span3")  # symmetric round trip
        assert verify_checkpoint(tmp_path / "span3")["version"] == 3

    def test_normalize_is_idempotent(self):
        assert normalize_checkpoint_path("a/b.npz").name == "b.npz"
        assert normalize_checkpoint_path("a/b").name == "b.npz"
        assert normalize_checkpoint_path("a/b.v2").name == "b.v2.npz"


class TestIntegrity:
    """Format v3: any flipped byte or truncation must be detected, and
    no other format version loads."""

    @pytest.fixture()
    def saved(self, tiny_split, fast_config, tmp_path):
        strategy = build(tiny_split, fast_config)
        strategy.pretrain()
        path = save_checkpoint(strategy, tmp_path / "ckpt.npz")
        return strategy, path

    def test_verify_returns_manifest(self, saved):
        _, path = saved
        meta = verify_checkpoint(path)
        assert meta["version"] == 3
        assert set(meta["rng"]) == {"model", "sampler", "strategy"}
        assert all("sha256" in entry for entry in meta["arrays"].values())

    def test_any_flipped_byte_is_rejected(self, tiny_split, fast_config,
                                          saved):
        """Property test: flip one byte at structural offsets and a seeded
        sample of arbitrary offsets; verification and loading must always
        reject, and a failed load must leave the strategy unmutated."""
        strategy, path = saved
        size = path.stat().st_size
        rng = np.random.default_rng(42)
        offsets = {0, 3, size - 1, size - 45, size // 2}  # magic, trailer, body
        offsets.update(int(o) for o in rng.integers(size, size=40))
        fresh = build(tiny_split, fast_config)
        snapshot = fresh.model.state_dict()
        for offset in sorted(offsets):
            flip_one_byte(path, offset=offset)
            with pytest.raises(CheckpointError):
                verify_checkpoint(path)
            with pytest.raises(CheckpointError):
                load_checkpoint(fresh, path)
            for name, value in fresh.model.state_dict().items():
                assert np.array_equal(value, snapshot[name]), (offset, name)
            flip_one_byte(path, offset=offset)  # XOR twice restores
        verify_checkpoint(path)  # file is intact again

    @pytest.mark.parametrize("keep", ["1-byte", "half", "minus-trailer",
                                      "minus-1"])
    def test_truncation_is_rejected(self, saved, tmp_path, keep):
        _, path = saved
        data = path.read_bytes()
        cut = {"1-byte": 1, "half": len(data) // 2,
               "minus-trailer": len(data) - 90, "minus-1": len(data) - 1}[keep]
        torn = tmp_path / "torn.npz"
        torn.write_bytes(data[:cut])
        with pytest.raises(CheckpointError):
            verify_checkpoint(torn)

    def test_missing_file_is_a_checkpoint_error(self, tmp_path):
        with pytest.raises(CheckpointError, match="does not exist"):
            verify_checkpoint(tmp_path / "nope.npz")

    def test_v2_without_trailer_is_rejected(self, saved, tmp_path):
        """Stripping the whole-file trailer must not downgrade a file to
        unchecked reads."""
        _, path = saved
        stripped = tmp_path / "stripped.npz"
        stripped.write_bytes(path.read_bytes()[:-90])
        with pytest.raises(CheckpointError, match="trailer"):
            verify_checkpoint(stripped)

    @pytest.mark.parametrize("version", [1, 2])
    def test_retired_format_refused_by_version(self, tiny_split, fast_config,
                                               tmp_path, version):
        """Format v1 (a ``meta`` member, no trailer) and format v2 (one
        deflated member per array, sealed) are refused by version before
        the strategy is touched."""
        strategy = build(tiny_split, fast_config)
        strategy.pretrain()
        members = {name: arr.copy()
                   for name, arr in _collect_arrays(strategy).items()}
        header = {"version": version, "strategy": strategy.name,
                  "model_family": strategy.model.family,
                  "users": sorted(strategy.states)}
        members["meta" if version == 1 else "manifest"] = np.frombuffer(
            json.dumps(header).encode("utf-8"), dtype=np.uint8)
        buffer = io.BytesIO()
        np.savez_compressed(buffer, **members)
        archive = buffer.getvalue()
        path = tmp_path / f"v{version}.npz"
        path.write_bytes(archive if version == 1 else with_trailer(archive))

        fresh = build(tiny_split, fast_config)
        snapshot = fresh.model.state_dict()
        interests = {u: s.interests.copy() for u, s in fresh.states.items()}
        with pytest.raises(CheckpointError, match=f"version {version}"):
            verify_checkpoint(path)
        with pytest.raises(CheckpointError, match=f"version {version}"):
            load_checkpoint(fresh, path)
        for name, value in fresh.model.state_dict().items():
            assert np.array_equal(value, snapshot[name]), name
        for user, state in fresh.states.items():
            assert np.array_equal(state.interests, interests[user]), user

    def test_direct_np_load_still_works(self, saved):
        """The trailer lives after the zip EOCD, so plain ``np.load`` on
        the path keeps working for ad-hoc inspection."""
        _, path = saved
        with np.load(path, allow_pickle=False) as archive:
            assert "manifest" in archive.files


class TestBlobArchive:
    """Format v3: one manifest plus one blob, every slice checked."""

    @pytest.fixture()
    def saved(self, tiny_split, fast_config, tmp_path):
        strategy = build(tiny_split, fast_config)
        strategy.pretrain()
        path = save_checkpoint(strategy, tmp_path / "ckpt.npz")
        with np.load(path, allow_pickle=False) as archive:
            members = sorted(archive.files)
            manifest = json.loads(archive["manifest"].tobytes().decode("utf-8"))
            blob = archive["blob"].copy()
        return strategy, path, members, manifest, blob

    @staticmethod
    def rewrite(path, manifest, blob, **extra):
        """Re-archive with a freshly computed valid trailer, so only the
        manifest and per-array checks stand between the bytes and a load."""
        buffer = io.BytesIO()
        np.savez(buffer, manifest=np.frombuffer(
            json.dumps(manifest).encode("utf-8"), dtype=np.uint8),
            blob=blob, **extra)
        path.write_bytes(with_trailer(buffer.getvalue()))

    def test_archive_is_manifest_plus_aligned_blob(self, saved):
        strategy, _, members, manifest, blob = saved
        assert members == ["blob", "manifest"]
        assert blob.dtype == np.uint8 and blob.ndim == 1
        offsets = [entry["offset"] for entry in manifest["arrays"].values()]
        assert all(offset % 64 == 0 for offset in offsets)
        assert offsets == sorted(offsets)
        assert set(manifest["arrays"]) == set(_collect_arrays(strategy))

    def test_flipped_blob_byte_under_valid_trailer_is_rejected(
            self, tiny_split, fast_config, saved):
        _, path, _, manifest, blob = saved
        entry = manifest["arrays"]["param/item_emb.weight"]
        blob[entry["offset"] + 5] ^= 0xFF
        self.rewrite(path, manifest, blob)
        with pytest.raises(CheckpointError, match="SHA-256"):
            verify_checkpoint(path)
        fresh = build(tiny_split, fast_config)
        snapshot = fresh.model.state_dict()
        with pytest.raises(CheckpointError, match="SHA-256"):
            load_checkpoint(fresh, path)
        for name, value in fresh.model.state_dict().items():
            assert np.array_equal(value, snapshot[name]), name

    @pytest.mark.parametrize("field", ["offset", "shape"])
    def test_entry_reaching_past_blob_end_is_rejected(self, saved, field):
        _, path, _, manifest, blob = saved
        entry = manifest["arrays"]["param/item_emb.weight"]
        if field == "offset":
            entry["offset"] = blob.size - 8
        else:
            entry["shape"] = [entry["shape"][0] * 1000, entry["shape"][1]]
        self.rewrite(path, manifest, blob)
        with pytest.raises(CheckpointError, match="valid slice"):
            verify_checkpoint(path)
        with pytest.raises(CheckpointError, match="valid slice"):
            checkpoint_info(path)  # unverified reads are bounds-checked too

    @pytest.mark.parametrize("fault", ["dropped", "reshaped", "unknown"])
    def test_bad_entry_is_rejected_before_any_write(
            self, tiny_split, fast_config, saved, fault):
        _, path, _, manifest, blob = saved
        entries = manifest["arrays"]
        name = f"user/{manifest['users'][-1]}/prev_interests"
        if fault == "dropped":
            del entries[name]
        elif fault == "reshaped":
            entries[name]["shape"] = [int(np.prod(entries[name]["shape"]))]
        else:
            name = "bogus"
            entries["param/bogus"] = dict(entries["param/item_emb.weight"])
        self.rewrite(path, manifest, blob)
        fresh = build(tiny_split, fast_config)
        snapshot = fresh.model.state_dict()
        with pytest.raises(CheckpointError, match=name):
            load_checkpoint(fresh, path)
        for param, value in fresh.model.state_dict().items():
            assert np.array_equal(value, snapshot[param]), param

    def test_extra_member_next_to_blob_is_rejected(self, saved):
        _, path, _, manifest, blob = saved
        self.rewrite(path, manifest, blob, extra=np.zeros(3))
        with pytest.raises(CheckpointError, match="zip members"):
            verify_checkpoint(path)


class TestExtraState:
    """Strategy state beyond the base contract (replay pools, Fisher
    estimates, private RNG streams) rides in the checkpoint."""

    def test_ader_pool_and_rng_round_trip(self, tiny_split, fast_config,
                                          tmp_path):
        strategy = build(tiny_split, fast_config, name="ADER")
        strategy.pretrain()
        strategy.train_span(1)
        path = save_checkpoint(strategy, tmp_path / "ader.npz")
        meta = verify_checkpoint(path)
        assert "pool" in meta["rng"]
        assert any(name.startswith("extra/") for name in meta["arrays"])

        fresh = build(tiny_split, fast_config, name="ADER")
        load_checkpoint(fresh, path)
        assert fresh.pool == strategy.pool
        assert (fresh._pool_rng.bit_generator.state
                == strategy._pool_rng.bit_generator.state)

    def test_load_rolls_back_pool_and_rng_of_mutated_strategy(
            self, tiny_split, fast_config, tmp_path):
        """The divergence guard restores checkpoints into a *dirty*
        strategy: pool contents and the pool RNG must roll back too."""
        strategy = build(tiny_split, fast_config, name="ADER")
        strategy.pretrain()
        path = save_checkpoint(strategy, tmp_path / "good.npz")
        saved_pool = {u: [list(s) for s in b]
                      for u, b in strategy.pool.items()}
        saved_rng = strategy._pool_rng.bit_generator.state

        strategy.train_span(1)  # grows the pool, advances the RNG
        assert strategy.pool != saved_pool

        load_checkpoint(strategy, path)
        assert {u: [list(s) for s in b]
                for u, b in strategy.pool.items()} == saved_pool
        assert strategy._pool_rng.bit_generator.state == saved_rng

    def test_ewc_fisher_and_anchors_round_trip(self, tiny_split, fast_config,
                                               tmp_path):
        strategy = build(tiny_split, fast_config, name="EWC")
        strategy.pretrain()
        assert strategy.fisher  # pretraining estimated the Fisher
        path = save_checkpoint(strategy, tmp_path / "ewc.npz")

        fresh = build(tiny_split, fast_config, name="EWC")
        assert not fresh.fisher
        load_checkpoint(fresh, path)
        assert set(fresh.fisher) == set(strategy.fisher)
        for name in strategy.fisher:
            assert np.array_equal(fresh.fisher[name], strategy.fisher[name])
        assert set(fresh.anchors) == set(strategy.anchors)
        for name in strategy.anchors:
            assert np.array_equal(fresh.anchors[name], strategy.anchors[name])

    def test_foreign_extra_state_rejected_before_mutation(
            self, tiny_split, fast_config, tmp_path):
        """A checkpoint whose extra state the target strategy cannot
        restore fails the load before any base state is touched."""
        ader = build(tiny_split, fast_config, name="ADER")
        ader.pretrain()
        path = save_checkpoint(ader, tmp_path / "ader.npz")

        ft = build(tiny_split, fast_config, name="FT")
        snapshot = ft.model.state_dict()
        with pytest.raises(CheckpointError, match="extra strategy state"):
            load_checkpoint(ft, path)
        for name, value in ft.model.state_dict().items():
            assert np.array_equal(value, snapshot[name]), name

    def test_v1_checkpoint_refused_for_pooled_strategy(
            self, tiny_split, fast_config, tmp_path):
        """A checkpoint without a replay pool (FT's; formerly a v1
        archive) must not resume ADER: that would train a different
        algorithm, so the load raises before any state is touched."""
        ft = build(tiny_split, fast_config, name="FT")
        ft.pretrain()
        path = save_checkpoint(ft, tmp_path / "ft.npz")
        fresh = build(tiny_split, fast_config, name="ADER")
        snapshot = fresh.model.state_dict()
        with pytest.raises(CheckpointError, match="replay pool"):
            load_checkpoint(fresh, path)
        for name, value in fresh.model.state_dict().items():
            assert np.array_equal(value, snapshot[name]), name


class TestIOFaults:
    """Atomic writes survive planned IO failures and torn writes."""

    def test_io_error_leaves_previous_checkpoint_intact(
            self, tiny_split, fast_config, tmp_path):
        strategy = build(tiny_split, fast_config)
        path = save_checkpoint(strategy, tmp_path / "ckpt.npz")
        before = path.read_bytes()

        strategy.pretrain()  # change the state the next save would write
        with active(FaultPlan().io_error_on_write(0)):
            with pytest.raises(InjectedIOError):
                save_checkpoint(strategy, path)

        assert path.read_bytes() == before
        assert not sorted(tmp_path.glob("*.tmp"))  # no staging leftovers
        verify_checkpoint(path)

    def test_crash_during_write_leaves_previous_checkpoint_intact(
            self, tiny_split, fast_config, tmp_path):
        strategy = build(tiny_split, fast_config)
        path = save_checkpoint(strategy, tmp_path / "ckpt.npz")
        before = path.read_bytes()

        strategy.pretrain()
        with active(FaultPlan().crash_during_write(0)):
            with pytest.raises(SimulatedCrash):
                save_checkpoint(strategy, path)  # dies before os.replace

        assert path.read_bytes() == before
        assert not sorted(tmp_path.glob("*.tmp"))  # no staging leftovers
        verify_checkpoint(path)

    def test_concurrent_writers_do_not_clobber_each_others_temp(
            self, tmp_path):
        """Staging names are unique per call, so a write never touches
        another writer's in-flight temp file for the same target."""
        from repro.persistence import atomic_write_bytes

        target = tmp_path / "ckpt.npz"
        # another process's staging file, under the old fixed sibling name
        other = tmp_path / "ckpt.npz.tmp"
        other.write_bytes(b"other writer's in-flight bytes")

        atomic_write_bytes(b"payload", target)
        assert target.read_bytes() == b"payload"
        assert other.read_bytes() == b"other writer's in-flight bytes"

    def test_round_trip_after_injected_failure(self, tiny_split, fast_config,
                                               tmp_path):
        strategy = build(tiny_split, fast_config)
        strategy.pretrain()
        path = tmp_path / "ckpt.npz"
        with active(FaultPlan().io_error_on_write(0)):
            with pytest.raises(InjectedIOError):
                save_checkpoint(strategy, path)
        assert not path.exists()

        save_checkpoint(strategy, path)  # retry without the fault succeeds
        fresh = build(tiny_split, fast_config)
        load_checkpoint(fresh, path)
        for user in list(strategy.states)[:5]:
            assert np.allclose(strategy.score_user(user),
                               fresh.score_user(user))
