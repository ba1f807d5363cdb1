"""Durable checkpoints: the on-disk form of estimator state.

The paper's one-pass model makes estimator state the *entire* message a
streaming node must persist or ship (it is literally Alice's message in
the Theorem 3.13 protocol). This module gives that message a versioned
on-disk format shared by every
:class:`~repro.streaming.protocol.CheckpointableEstimator`:

- ``manifest.json`` -- the JSON manifest: format version, stream
  progress (``edges_seen``, ``batches``, ``batch_size``), a stream
  fingerprint, and one entry per estimator name holding every
  JSON-serializable piece of its ``state_dict`` (scalars, nested
  structures, rng states);
- ``arrays-0.npz`` / ``arrays-1.npz`` -- every numpy array reachable
  from any state dict, keyed by its path within the manifest (so a
  100k-estimator pool's arrays are stored in binary, not JSON). The
  manifest names the live member; int64 arrays whose values fit in
  int32 are stored as int32 with the original dtype in their marker,
  so the two members together take about the disk one wide member did.

:meth:`~repro.streaming.pipeline.Pipeline.checkpoint` and
:meth:`~repro.streaming.pipeline.Pipeline.resume` drive this format;
:class:`~repro.streaming.sharded.ShardedPipeline` ships the same state
dicts across process boundaries and merges them through the protocol's
``merge``.

Writes are two-phase: the arrays member lands first, the manifest last
(via a temp file and ``os.replace``), so a crash mid-write never leaves
a checkpoint that parses. Both are ``fsync``'d before the seal, and the
directory after it -- without that, a power loss after ``os.replace``
could surface a manifest whose *contents* never reached the platter
(rename is atomic in the namespace, not in the data journal). Each save
rewrites in place the member the manifest does *not* name: allocating a
fresh multi-megabyte member and freeing the old one made every save
about 5x slower on ext4 with ``discard``. A per-save token in both the
manifest and the member turns a reader that raced two saves (or a
hand-edited directory) into a named error. Version 1 checkpoints (a
uniquely named member, no token, no narrowed arrays) still load.
"""

from __future__ import annotations

import hashlib
import json
import os
import uuid
import zipfile
from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from ..errors import InvalidParameterError
from .source import EdgeSource, FileSource, MemorySource

__all__ = [
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "save_checkpoint",
    "load_checkpoint",
    "source_fingerprint",
    "fingerprints_compatible",
    "verify_resume_source",
]

CHECKPOINT_VERSION = 2

_MANIFEST = "manifest.json"
_MEMBERS = ("arrays-0.npz", "arrays-1.npz")
_ARRAY_MARK = "__array__"
_TOKEN = "__token__"  # never an array path: those all contain "/"
_INT32 = np.iinfo(np.int32)
_FINGERPRINT_HEAD = 1 << 16  # bytes of a file hashed for its fingerprint


@dataclass
class Checkpoint:
    """A loaded checkpoint: stream progress plus per-estimator states."""

    edges_seen: int
    batches: int
    batch_size: int
    states: dict[str, dict]
    fingerprint: dict | None = None
    version: int = CHECKPOINT_VERSION
    metadata: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# state <-> (JSON tree, arrays) encoding
# ---------------------------------------------------------------------------

def _encode(value: Any, path: str, arrays: dict[str, np.ndarray]) -> Any:
    """Strip arrays out of a state value, leaving JSON-safe markers.

    ``path`` uniquely identifies the value's position in the manifest
    tree; it doubles as the array's key in the npz member.
    """
    if isinstance(value, np.ndarray):
        arrays[path] = value
        if _narrowed(value):
            return {_ARRAY_MARK: path, "dtype": value.dtype.str}
        return {_ARRAY_MARK: path}
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, Mapping):
        return {str(k): _encode(v, f"{path}/{k}", arrays) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(v, f"{path}/{i}", arrays) for i, v in enumerate(value)]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise InvalidParameterError(
        f"state value at {path!r} is not checkpointable: {type(value).__name__}"
    )


def _narrowed(value: np.ndarray) -> bool:
    """Whether ``value`` is stored as int32 (an int64 array that fits)."""
    return bool(value.dtype == np.int64 and value.size) and (
        _INT32.min <= value.min() and value.max() <= _INT32.max
    )


def _decode(value: Any, arrays: Mapping[str, np.ndarray]) -> Any:
    """Reverse :func:`_encode`, splicing arrays back into the tree."""
    if isinstance(value, dict):
        if _ARRAY_MARK in value:
            array = arrays[value[_ARRAY_MARK]]
            return array.astype(value["dtype"]) if "dtype" in value else array
        return {k: _decode(v, arrays) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode(v, arrays) for v in value]
    return value


# ---------------------------------------------------------------------------
# save / load
# ---------------------------------------------------------------------------

def _fsync_dir(path: str) -> None:
    """Sync the directory entry so the sealed rename itself is durable.

    Best-effort: some filesystems (and platforms) refuse to fsync a
    directory fd, which must not fail an otherwise-complete save.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - unopenable directory
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fs without dir fsync
        pass
    finally:
        os.close(fd)


def save_checkpoint(
    path: str | os.PathLike,
    states: Mapping[str, dict],
    *,
    edges_seen: int,
    batches: int = 0,
    batch_size: int = 0,
    fingerprint: dict | None = None,
    metadata: Mapping[str, Any] | None = None,
) -> int:
    """Write a checkpoint directory at ``path`` (created if needed).

    ``states`` maps estimator names to their ``state_dict()`` output.
    The arrays are rewritten, in place, into whichever of the two
    members the current manifest does not name (opened without
    truncation, truncated to the written length, ``fsync``'d), then
    sealed by replacing the manifest, which names it and carries the
    same fresh token. The live member is never touched, so whichever
    manifest survives a crash pairs with the intact member it names.
    Stray members and temp files are swept after the seal. Returns the
    bytes written (member plus manifest).
    """
    from . import faults as _faults

    _faults.fire_checkpoint_save()
    path = os.fspath(path)
    os.makedirs(path, exist_ok=True)
    try:
        with open(os.path.join(path, _MANIFEST), "r", encoding="utf-8") as handle:
            live = json.load(handle).get("arrays")
    except (OSError, ValueError, AttributeError):
        live = None
    arrays_name = _MEMBERS[1] if live == _MEMBERS[0] else _MEMBERS[0]
    token = uuid.uuid4().hex
    arrays: dict[str, np.ndarray] = {_TOKEN: np.array(token)}
    manifest = {
        "format": "repro-checkpoint",
        "version": CHECKPOINT_VERSION,
        "arrays": arrays_name,
        "token": token,
        "edges_seen": int(edges_seen),
        "batches": int(batches),
        "batch_size": int(batch_size),
        "fingerprint": fingerprint,
        "metadata": dict(metadata or {}),
        "estimators": {
            str(name): _encode(dict(state), str(name), arrays)
            for name, state in states.items()
        },
    }
    fd = os.open(os.path.join(path, arrays_name), os.O_WRONLY | os.O_CREAT, 0o666)
    with os.fdopen(fd, "wb") as handle:
        with zipfile.ZipFile(handle, "w") as archive:  # the npz layout
            for key, value in arrays.items():
                # Narrowed one at a time, so no two int32 copies coexist.
                stored = value.astype(np.int32) if _narrowed(value) else value
                with archive.open(key + ".npy", "w", force_zip64=True) as member:
                    np.lib.format.write_array(member, stored, allow_pickle=False)
        written = handle.truncate()
        handle.flush()
        os.fsync(handle.fileno())
    manifest_tmp = os.path.join(path, _MANIFEST + ".tmp")
    with open(manifest_tmp, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle)
        handle.flush()
        os.fsync(handle.fileno())
        written += handle.tell()
    os.replace(manifest_tmp, os.path.join(path, _MANIFEST))
    _fsync_dir(path)
    for entry in os.listdir(path):
        if (
            entry.startswith("arrays-") and entry not in _MEMBERS
        ) or entry.endswith(".tmp"):
            try:
                os.remove(os.path.join(path, entry))
            except OSError:  # pragma: no cover - concurrent sweep
                pass
    return written


def load_checkpoint(path: str | os.PathLike) -> Checkpoint:
    """Load a checkpoint written by :func:`save_checkpoint`."""
    path = os.fspath(path)
    manifest_path = os.path.join(path, _MANIFEST)
    try:
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except FileNotFoundError:
        raise InvalidParameterError(
            f"no checkpoint at {path!r} (missing {_MANIFEST})"
        ) from None
    except json.JSONDecodeError as exc:
        raise InvalidParameterError(
            f"corrupt checkpoint manifest at {manifest_path!r}: {exc}"
        ) from None
    if manifest.get("format") != "repro-checkpoint":
        raise InvalidParameterError(f"{path!r} is not a repro checkpoint")
    version = int(manifest.get("version", 0))
    if version > CHECKPOINT_VERSION:
        raise InvalidParameterError(
            f"checkpoint version {version} is newer than supported "
            f"({CHECKPOINT_VERSION}); upgrade the package to load it"
        )
    arrays_name = manifest.get("arrays", "arrays.npz")
    try:
        with np.load(os.path.join(path, arrays_name)) as npz:
            arrays = {key: npz[key] for key in npz.files}
    except (OSError, ValueError, EOFError, TypeError, zipfile.BadZipFile) as exc:
        # TypeError: a bare .npy member loads as an array, not an archive
        raise InvalidParameterError(
            f"checkpoint at {path!r}: arrays member {arrays_name!r} is "
            f"missing or corrupt ({type(exc).__name__}: {exc})"
        ) from None
    if version >= 2 and str(arrays.pop(_TOKEN, None)) != manifest.get("token"):
        raise InvalidParameterError(
            f"checkpoint at {path!r}: arrays member {arrays_name!r} does not "
            "match its manifest's token (a save raced this load, or the "
            "directory was edited); load it again"
        )
    trees = manifest["estimators"]
    try:
        states = {name: _decode(tree, arrays) for name, tree in trees.items()}
    except KeyError as exc:
        raise InvalidParameterError(
            f"checkpoint at {path!r}: arrays member {arrays_name!r} has no "
            f"array {exc.args[0]!r}, which its manifest names"
        ) from None
    return Checkpoint(
        edges_seen=int(manifest["edges_seen"]),
        batches=int(manifest.get("batches", 0)),
        batch_size=int(manifest.get("batch_size", 0)),
        states=states,
        fingerprint=manifest.get("fingerprint"),
        version=version,
        metadata=manifest.get("metadata", {}),
    )


# ---------------------------------------------------------------------------
# stream identity
# ---------------------------------------------------------------------------

def source_fingerprint(
    source: EdgeSource, *, head_bytes: int | None = None
) -> dict | None:
    """A cheap identity for a replayable stream, or ``None``.

    Resuming against a different stream than the one checkpointed
    silently corrupts every estimate, so
    :meth:`~repro.streaming.pipeline.Pipeline.run` compares this
    against the fingerprint stored in the manifest. Files are
    identified by a hash of their head window (whose length is recorded
    so a later, longer file can be re-hashed over the *same* window --
    appending to a stream must not invalidate its checkpoints);
    in-memory columnar streams by a hash of the full edge array.
    One-shot iterables (and non-columnar memory inputs) have no stable
    identity and return ``None``, which disables the check.
    """
    if isinstance(source, FileSource):
        try:
            size = os.stat(source.path).st_size
            with open(source.path, "rb") as handle:
                head = handle.read(
                    _FINGERPRINT_HEAD if head_bytes is None else head_bytes
                )
        except OSError:
            return None
        return {
            "kind": "file",
            "size": int(size),
            "head_bytes": len(head),
            "head_sha256": hashlib.sha256(head).hexdigest(),
            "deduplicate": bool(source.deduplicate),
        }
    if isinstance(source, MemorySource):
        whole = source._whole()
        if whole is None:
            return None
        digest = hashlib.sha256(np.ascontiguousarray(whole.array).tobytes())
        return {
            "kind": "memory",
            "edges": int(len(whole)),
            "sha256": digest.hexdigest(),
        }
    return None


def fingerprints_compatible(saved: dict | None, current: dict | None) -> bool:
    """Whether a checkpointed fingerprint matches the stream being resumed.

    ``None`` on either side disables the check (one-shot iterables have
    no stable identity). Files compare by prefix identity -- head hash
    over the same window, dedup setting, and non-shrinking size -- so a
    file that *grew* since the snapshot still resumes: appending to the
    stream and continuing from the checkpoint is the expected
    production workflow (``current`` must be hashed over the saved
    window; :func:`verify_resume_source` arranges that). In-memory
    streams compare exactly.
    """
    if saved is None or current is None:
        return True
    if saved.get("kind") != current.get("kind"):
        return False
    if saved.get("kind") == "file":
        return (
            saved.get("head_bytes") == current.get("head_bytes")
            and saved.get("head_sha256") == current.get("head_sha256")
            and saved.get("deduplicate") == current.get("deduplicate")
            and int(current.get("size", 0)) >= int(saved.get("size", 0))
        )
    return saved == current


def verify_resume_source(saved: dict | None, source: EdgeSource) -> bool:
    """Whether ``source`` plausibly replays the checkpointed stream.

    For file streams, the current file is re-hashed over the *saved*
    head window, so a file that grew since the snapshot (more edges
    appended) still verifies; any change within the original window, a
    shrunken file, or a different dedup setting does not.
    """
    if saved is None:
        return True
    head_bytes = None
    if saved.get("kind") == "file":
        head_bytes = saved.get("head_bytes")
    current = source_fingerprint(source, head_bytes=head_bytes)
    return fingerprints_compatible(saved, current)
