"""Crash-safe checkpointing for incremental training state.

An incremental recommender is a *stateful production system*: between
time spans the operator must persist the model parameters, every user's
interest matrix (whose row count varies per user — the whole point of
IMSR), the creation tags, per-user attention weights, and whatever
*extra* state the strategy accumulates across spans (ADER's replay
pool, EWC's Fisher estimates — the strategy's ``extra_state()`` hook,
stored under ``extra/``).  This module serializes all of that to a
single ``.npz`` file and restores it into a freshly constructed
strategy.

Format v3 gives the guarantees a long-lived service needs:

* **atomic writes** — the archive is staged to a temp file, fsynced, and
  committed with ``os.replace``; a crash at any instant leaves either
  the old checkpoint or the new one, never a truncated hybrid;
* **a manifest** — per-array SHA-256 checksums, shapes, dtypes and byte
  offsets plus run metadata (span index, strategy/model/config
  fingerprint, and the bit-generator state of every RNG the strategy
  owns, so a resumed run continues the exact random stream);
* **one blob** — every array's bytes sit back to back, 64-byte aligned,
  in a single stored (not deflated) ``blob`` member, so a commit writes
  two zip members however many users the strategy holds; the manifest
  maps each logical array name (``param/…``, ``user/<u>/…``,
  ``extra/…``) to its slice of the blob;
* **verification** — a whole-file SHA-256 trailer is appended after the
  zip archive (zip readers ignore bytes past the end-of-central-directory
  record, so ``np.load`` still opens the file directly), making *any*
  single flipped byte or truncation detectable; :func:`verify_checkpoint`
  additionally re-hashes every array against the manifest, and
  :func:`load_checkpoint` always verifies *before* mutating any state,
  so a corrupt file can never half-restore a strategy;
* **one format** — only v3 loads.  A v1 archive (a ``meta`` member, no
  manifest or trailer) or a v2 archive (one zip member per array) is
  refused with an error that names its version, before any state is
  touched; nothing has written either since v3.

Example
-------
>>> save_checkpoint(strategy, "span3")              # lands at span3.npz
>>> fresh = make_strategy("IMSR", "ComiRec-DR", split, config)
>>> load_checkpoint(fresh, "span3")                 # ready for span 4
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import operator
import os
import tempfile
import zipfile
import zlib
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from . import faults
from .incremental.strategy import IncrementalStrategy
from .models.base import UserState
from .nn import Parameter
from .obs import trace as obs
from .obs.log import get_logger

PathLike = Union[str, Path]

logger = get_logger(__name__)

_FORMAT_VERSION = 3

#: byte alignment of every array's offset inside a v3 ``blob``
_BLOB_ALIGN = 64

#: the ``user/<u>/...`` arrays every checkpointed user carries
#: (``sa_weights`` is present only for self-attention models)
_USER_FIELDS = ("interests", "prev_interests", "created_span", "n_existing",
                "expanded")

#: whole-file integrity trailer: b"\n" + marker + 64 hex chars + b"\n",
#: appended after the zip end-of-central-directory record
_TRAILER_MARKER = b"repro-checkpoint-sha256:"
_TRAILER_LEN = 1 + len(_TRAILER_MARKER) + 64 + 1

__all__ = [
    "CheckpointError",
    "CheckpointIOError",
    "save_checkpoint",
    "load_checkpoint",
    "verify_checkpoint",
    "checkpoint_info",
    "run_fingerprint",
    "atomic_write_bytes",
    "normalize_checkpoint_path",
    "seal",
    "unseal",
]


class CheckpointError(ValueError):
    """A checkpoint is corrupt, truncated, or incompatible."""


class CheckpointIOError(CheckpointError, OSError):
    """A checkpoint could not be *read* due to an IO failure.

    Distinct from plain :class:`CheckpointError` (corruption — retrying
    cannot help) so retry logic such as the streaming pipeline's
    seeded backoff (:mod:`repro.stream`) can tell a transient fault
    (``except CheckpointIOError`` / ``except OSError``) from a poisoned
    file it must fall back from.
    """


def normalize_checkpoint_path(path: PathLike) -> Path:
    """Canonical on-disk location for a checkpoint path.

    ``np.savez`` silently appends ``.npz`` when the suffix is
    missing; normalizing once in both directions keeps ``save``/``load``
    symmetric for suffix-less paths like ``"span3"``.
    """
    p = Path(path)
    if p.suffix != ".npz":
        p = p.with_name(p.name + ".npz")
    return p


def atomic_write_bytes(data: bytes, path: PathLike, kind: str = "file") -> None:
    """Write ``data`` to ``path`` atomically (temp + fsync + replace).

    The staging file gets a unique name (``tempfile.mkstemp`` in the
    target directory), so concurrent writers to the same path never
    clobber each other's in-flight temp file, and cleanup only ever
    unlinks the file this call created.

    Fires the ``io-write`` fault probe before staging and ``io-replace``
    after the temp file is durable but before the commit — the two
    instants a crash-safety test needs to hit.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    faults.fire("io-write", path=str(path), kind=kind)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.name + ".", suffix=".tmp")
    tmp = Path(tmp_name)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        faults.fire("io-replace", path=str(path), kind=kind)
        os.replace(tmp, path)
        _fsync_directory(path.parent)
    finally:
        if tmp.exists():
            tmp.unlink()


def seal(blob: bytes, marker: bytes) -> bytes:
    """``blob`` with a whole-file SHA-256 trailer appended.

    The trailer is ``b"\\n" + marker + 64 hex chars + b"\\n"``;
    :func:`unseal` checks it, so any flipped byte or truncation is
    caught on load.  Checkpoints and the span and stream journals seal
    every write.
    """
    return blob + (b"\n" + marker
                   + hashlib.sha256(blob).hexdigest().encode("ascii") + b"\n")


def unseal(data: bytes, marker: bytes) -> bytes:
    """The blob :func:`seal` wrapped in ``data``.

    Raises ``ValueError`` when the trailer is missing or mangled or the
    digest disagrees.
    """
    size = 1 + len(marker) + 64 + 1
    tail = data[-size:]
    if not (len(data) > size and tail.startswith(b"\n" + marker)
            and tail.endswith(b"\n")):
        raise ValueError("integrity trailer is missing or mangled — the "
                         "file is corrupt or truncated")
    blob, digest = data[:-size], tail[1 + len(marker):-1]
    if hashlib.sha256(blob).hexdigest().encode("ascii") != digest:
        raise ValueError("fails its whole-file SHA-256 check — the file is "
                         "corrupt")
    return blob


def _fsync_directory(directory: Path) -> None:
    try:
        dir_fd = os.open(str(directory), os.O_RDONLY)
    except OSError:
        return  # platform without directory fds — replace is still atomic
    try:
        os.fsync(dir_fd)
    except OSError:
        pass  # some filesystems reject directory fsync; not fatal
    finally:
        os.close(dir_fd)


def run_fingerprint(strategy: IncrementalStrategy) -> str:
    """Stable hash of everything that must match for a resume to be
    valid: strategy, model architecture, and the training config."""
    payload = {
        "strategy": strategy.name,
        "model_class": type(strategy.model).__name__,
        "model_family": strategy.model.family,
        "num_items": strategy.model.num_items,
        "dim": strategy.model.dim,
        "K0": strategy.model.K0,
        "config": {k: v for k, v in sorted(vars(strategy.config).items())},
    }
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def _collect_arrays(strategy: IncrementalStrategy) -> Dict[str, np.ndarray]:
    arrays: Dict[str, np.ndarray] = {}
    for name, param in strategy.model.named_parameters():
        arrays[f"param/{name}"] = param.data
    # sorted: the blob layout order is part of the determinism contract
    # (same state -> byte-identical layout), not insertion luck.
    for user, state in sorted(strategy.states.items()):
        arrays[f"user/{user}/interests"] = state.interests
        arrays[f"user/{user}/prev_interests"] = state.prev_interests
        arrays[f"user/{user}/created_span"] = state.created_span
        arrays[f"user/{user}/n_existing"] = np.array([state.n_existing])
        # NID's once-per-span guard: replayed-but-inactive users carry it
        # across span boundaries, so a resume must restore it too
        arrays[f"user/{user}/expanded"] = np.array([state.expanded_this_span])
        if state.sa_weights is not None:
            arrays[f"user/{user}/sa_weights"] = state.sa_weights.data
    # strategy-specific state beyond the base contract: replay pools,
    # Fisher estimates, diagnostic logs (see IncrementalStrategy.extra_state)
    for name, arr in sorted(strategy.extra_state().items()):
        arrays[f"extra/{name}"] = np.asarray(arr)
    return arrays


def _pack_arrays(arrays: Dict[str, np.ndarray]):
    """Lay ``arrays`` back to back in one uint8 blob, each at a
    ``_BLOB_ALIGN``-aligned offset; returns the blob and the per-array
    manifest entries (SHA-256, shape, dtype, offset)."""
    layout = []
    end = 0
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        offset = -(-end // _BLOB_ALIGN) * _BLOB_ALIGN
        layout.append((name, arr, offset))
        end = offset + arr.nbytes
    blob = np.zeros(end, dtype=np.uint8)
    # str(dtype) costs microseconds and a checkpoint holds a few dtypes
    # across hundreds of arrays
    dtype_names: Dict[np.dtype, str] = {}
    entries = {}
    for name, arr, offset in layout:
        chunk = blob[offset:offset + arr.nbytes]
        chunk[...] = arr.reshape(-1).view(np.uint8)
        dtype_name = dtype_names.get(arr.dtype)
        if dtype_name is None:
            dtype_name = dtype_names[arr.dtype] = str(arr.dtype)
        entries[name] = {
            "sha256": hashlib.sha256(chunk).hexdigest(),
            "shape": list(arr.shape),
            "dtype": dtype_name,
            "offset": offset,
        }
    return blob, entries


def save_checkpoint(strategy: IncrementalStrategy, path: PathLike,
                    span: Optional[int] = None) -> Path:
    """Atomically serialize model parameters, user states, strategy
    extra state, and RNG streams; returns the normalized path the
    archive landed at."""
    path = normalize_checkpoint_path(path)
    blob, entries = _pack_arrays(_collect_arrays(strategy))

    manifest = {
        "version": _FORMAT_VERSION,
        "strategy": strategy.name,
        "model_family": strategy.model.family,
        "users": sorted(strategy.states),
        "span": span,
        "fingerprint": run_fingerprint(strategy),
        "rng": {
            name: gen.bit_generator.state
            for name, gen in strategy.random_generators().items()
        },
        "arrays": entries,
    }
    with obs.span("checkpoint.save", file=path.name, span_id=span):
        buffer = io.BytesIO()
        np.savez(buffer, manifest=np.frombuffer(
            json.dumps(manifest).encode("utf-8"), dtype=np.uint8), blob=blob)
        archive = buffer.getvalue()
        sealed = seal(archive, _TRAILER_MARKER)
        atomic_write_bytes(sealed, path, kind="checkpoint")
        obs.counter("checkpoint.saves")
        obs.gauge("checkpoint.bytes", len(sealed))
    return path


def _split_trailer(data: bytes):
    """(zip bytes, declared whole-file digest or None) for raw file bytes."""
    tail = data[-_TRAILER_LEN:]
    if (len(data) > _TRAILER_LEN and tail.startswith(b"\n" + _TRAILER_MARKER)
            and tail.endswith(b"\n")):
        digest = tail[1 + len(_TRAILER_MARKER):-1]
        try:
            digest_text = digest.decode("ascii")
            int(digest_text, 16)
        except (UnicodeDecodeError, ValueError):
            return data, None
        return data[:-_TRAILER_LEN], digest_text
    return data, None


# ---------------------------------------------------------------------- #
# reading / verification
# ---------------------------------------------------------------------- #
def _read_archive(path: Path, verify: bool = True):
    """Load (manifest, arrays) fully into memory, validating integrity.

    Returns the parsed manifest and a ``{name: ndarray}`` map of owned,
    writable arrays under their logical names.  The zip members are read
    eagerly so zip CRC checks run here, and with ``verify`` every
    SHA-256 is compared against the manifest — all *before* any caller
    mutates strategy state.  Raises :class:`CheckpointError` on any
    corruption, truncation, malformed metadata or other format version.
    """
    if not path.exists():
        raise CheckpointError(f"checkpoint {path} does not exist")
    try:
        data = path.read_bytes()
    except OSError as err:
        raise CheckpointIOError(
            f"checkpoint {path} cannot be read: {err}") from err
    archive_bytes, declared_digest = _split_trailer(data)
    if verify and declared_digest is not None:
        actual = hashlib.sha256(archive_bytes).hexdigest()
        if actual != declared_digest:
            raise CheckpointError(
                f"checkpoint {path} fails its whole-file SHA-256 check — "
                f"the file is corrupt or truncated")
    try:
        with np.load(io.BytesIO(archive_bytes), allow_pickle=False) as archive:
            names = sorted(archive.files)
            # format v1 named its manifest 'meta'; it is read only to name
            # the version it is refused by
            header = "manifest" if "manifest" in names else "meta"
            if header not in names:
                raise CheckpointError(
                    f"checkpoint {path} has no manifest entry")
            meta = json.loads(bytes(archive[header].tobytes()).decode("utf-8"))
            version = meta.get("version")
            if version != _FORMAT_VERSION:
                raise CheckpointError(
                    f"unsupported checkpoint version {version!r} in {path}: "
                    f"only format v{_FORMAT_VERSION} loads; start the run "
                    f"afresh")
            if names != ["blob", "manifest"]:
                raise CheckpointError(
                    f"checkpoint {path} holds zip members {names[:5]}; "
                    f"format v3 has exactly 'manifest' and 'blob'")
            blob = archive["blob"]
    except CheckpointError:
        raise
    except (OSError, ValueError, KeyError, EOFError, NotImplementedError,
            zipfile.BadZipFile, zlib.error) as exc:
        # the open-ended exception set zipfile/np.load raise on mangled
        # input; sealed files never get here corrupt (whole-file hash above)
        raise CheckpointError(
            f"checkpoint {path} is corrupt or truncated: {exc}") from exc
    if declared_digest is None:
        raise CheckpointError(
            f"checkpoint {path} declares format v{version} but its "
            f"whole-file integrity trailer is missing or mangled")
    return meta, _unpack_blob(path, meta.get("arrays", {}), blob, verify)


def _unpack_blob(path: Path, declared: Dict[str, dict], blob: np.ndarray,
                 verify: bool) -> Dict[str, np.ndarray]:
    """Slice a v3 ``blob`` back into ``{name: ndarray}`` owned copies.

    Every manifest entry is bounds-checked against the blob before it is
    sliced, so a malformed offset, shape or dtype raises
    :class:`CheckpointError` rather than a stray numpy error; with
    ``verify`` each slice is also re-hashed against its SHA-256.
    """
    if blob.dtype != np.uint8 or blob.ndim != 1:
        raise CheckpointError(
            f"checkpoint {path} blob is {blob.dtype}{list(blob.shape)}, "
            f"expected a flat uint8 array")
    arrays: Dict[str, np.ndarray] = {}
    for name, entry in declared.items():
        try:
            dtype = np.dtype(entry["dtype"])
            shape = tuple(operator.index(n) for n in entry["shape"])
            offset = operator.index(entry["offset"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"checkpoint {path} manifest entry {name!r} is malformed: "
                f"{exc!r}") from exc
        nbytes = math.prod(shape) * dtype.itemsize
        if (dtype.hasobject or any(n < 0 for n in shape) or offset < 0
                or offset + nbytes > blob.size):
            raise CheckpointError(
                f"checkpoint {path} array {name!r} ({dtype}{list(shape)} at "
                f"byte {offset}) is not a valid slice of its "
                f"{blob.size}-byte blob")
        chunk = blob[offset:offset + nbytes]
        if verify and hashlib.sha256(chunk).hexdigest() != entry.get("sha256"):
            raise CheckpointError(
                f"checkpoint {path} array {name!r} fails its SHA-256 "
                f"check — the file was corrupted after writing")
        arrays[name] = chunk.view(dtype).reshape(shape).copy()
    return arrays


def verify_checkpoint(path: PathLike) -> Dict[str, object]:
    """Fully validate a checkpoint's integrity; returns its manifest.

    Every array is re-hashed against the manifest; any single flipped
    byte or truncation raises :class:`CheckpointError`.
    """
    path = normalize_checkpoint_path(path)
    meta, _ = _read_archive(path, verify=True)
    return meta


def load_checkpoint(strategy: IncrementalStrategy, path: PathLike,
                    strict: bool = True,
                    create_missing: bool = False) -> Dict[str, object]:
    """Restore a checkpoint into ``strategy`` in place.

    The strategy must be built on the same model architecture and data
    split (same parameter shapes), under the compute backend the
    checkpoint was written with (same parameter dtype); user interest
    matrices may have any row count — they are restored verbatim.
    Integrity and compatibility are fully validated *before* the first
    mutation, so a failed load leaves the strategy exactly as it was.

    ``strict`` (default) raises when the checkpoint contains users the
    strategy does not know; pass ``strict=False`` to skip them with a
    logged warning instead (e.g. loading into a truncated split), or
    ``create_missing=True`` to build their :class:`UserState` directly
    from the checkpoint arrays — the streaming resume path, where users
    were created mid-stream and exist in no split.

    Row-sparse model parameters (embedding tables) may hold *more* rows
    than the checkpoint: the checkpointed rows restore as a prefix and
    the extra rows are left untouched.  That is the mid-stream cold-start
    rollback case — rows grown after the checkpoint was written keep
    their current values (they are cold items; nothing older references
    them).  Any other shape mismatch still raises.

    Returns the checkpoint manifest.
    """
    path = normalize_checkpoint_path(path)
    with obs.span("checkpoint.load", file=path.name):
        meta, arrays = _read_archive(path, verify=True)
        obs.counter("checkpoint.loads")

    if meta.get("model_family") != strategy.model.family:
        raise CheckpointError(
            f"checkpoint is for a {meta.get('model_family')!r}-family "
            f"model, strategy has {strategy.model.family!r}")

    params = dict(strategy.model.named_parameters())
    ckpt_params = {k[len("param/"):]: v for k, v in arrays.items()
                   if k.startswith("param/")}
    missing = sorted(set(params) - set(ckpt_params))
    if missing:
        raise CheckpointError(
            f"checkpoint lacks model parameter(s) {missing[:5]}")
    for name, arr in ckpt_params.items():
        if name not in params:
            raise CheckpointError(
                f"checkpoint parameter {name!r} not in model")
        target = params[name].data
        if target.dtype != arr.dtype:
            # the compute backend fixes the dtype and is not part of the
            # run fingerprint: refuse, rather than cast one run's state
            # into another's
            raise CheckpointError(
                f"checkpoint parameter {name!r} is {arr.dtype} but the "
                f"model computes in {target.dtype}; select the compute "
                f"backend the run was written under (REPRO_BACKEND=fast "
                f"for float32, default for float64)")
        if target.shape != arr.shape:
            row_grown = (getattr(params[name], "row_sparse", False)
                         and arr.ndim == target.ndim and target.ndim >= 1
                         and arr.shape[1:] == target.shape[1:]
                         and arr.shape[0] <= target.shape[0])
            if not row_grown:
                raise CheckpointError(
                    f"shape mismatch for parameter {name!r}: "
                    f"{params[name].data.shape} vs {arr.shape}")

    users = [int(u) for u in meta["users"]]
    unknown = [u for u in users if u not in strategy.states]
    if unknown and not create_missing:
        if strict:
            raise CheckpointError(
                f"checkpoint contains {len(unknown)} user(s) absent from "
                f"the strategy (first few: {unknown[:5]}); pass "
                f"strict=False to skip them")
        logger.warning(
            "load_checkpoint: skipping %d checkpoint user(s) absent from "
            "the strategy: %s%s", len(unknown), unknown[:10],
            "..." if len(unknown) > 10 else "")
    for user in users:
        lacking = [f"user/{user}/{field}" for field in _USER_FIELDS
                   if f"user/{user}/{field}" not in arrays]
        if lacking:
            raise CheckpointError(f"checkpoint lacks {lacking}")
        for field in ("interests", "prev_interests"):
            shape = arrays[f"user/{user}/{field}"].shape
            if len(shape) != 2 or shape[1] != strategy.model.dim:
                raise CheckpointError(
                    f"checkpoint user/{user}/{field} has shape {shape}; "
                    f"the model needs (K, {strategy.model.dim})")

    # -------- all validation passed: apply ---------------------------- #
    # extra strategy state first: a strategy that rejects it (unknown
    # keys, or another strategy's checkpoint without a replay pool) must
    # fail before any base state is mutated
    extra = {k[len("extra/"):]: arrays[k]
             for k in arrays if k.startswith("extra/")}
    try:
        strategy.load_extra_state(extra)
    except CheckpointError:
        raise
    except (KeyError, ValueError) as exc:
        raise CheckpointError(
            f"checkpoint {path} extra strategy state cannot be restored "
            f"into {type(strategy).__name__}: {exc}") from exc

    for name, arr in ckpt_params.items():
        target = params[name].data
        if target.shape != arr.shape:
            target[:arr.shape[0]] = arr  # repro: noqa[RA601] restore-in-place is the point; row-grown prefix validated above
        else:
            target[...] = arr  # repro: noqa[RA601] restore-in-place is the point; no tape is live during load

    for user in users:
        state = strategy.states.get(user)
        if state is None:
            if not create_missing:
                continue  # counted above; strict mode already raised
            state = UserState(
                user=user,
                interests=np.zeros((0, strategy.model.dim)),
                prev_interests=np.zeros((0, strategy.model.dim)),
                created_span=np.zeros(0, dtype=np.int64),
                n_existing=0,
            )
            strategy.states[user] = state
        state.interests = arrays[f"user/{user}/interests"].copy()
        state.prev_interests = arrays[f"user/{user}/prev_interests"].copy()
        state.created_span = arrays[f"user/{user}/created_span"].copy()
        state.n_existing = int(arrays[f"user/{user}/n_existing"][0])
        state.expanded_this_span = bool(arrays[f"user/{user}/expanded"][0])
        sa_key = f"user/{user}/sa_weights"
        if sa_key in arrays:
            state.sa_weights = Parameter(arrays[sa_key].copy())

    for name, rng_state in meta.get("rng", {}).items():
        gen = strategy.random_generators().get(name)
        if gen is not None:
            gen.bit_generator.state = rng_state

    return meta


def checkpoint_info(path: PathLike, verify: bool = False) -> Dict[str, object]:
    """Read a checkpoint's metadata; with ``verify``, re-hash every
    array against the manifest first."""
    path = normalize_checkpoint_path(path)
    meta, arrays = _read_archive(path, verify=verify)
    meta["num_arrays"] = len(arrays) + 1  # + the manifest entry itself
    return meta
