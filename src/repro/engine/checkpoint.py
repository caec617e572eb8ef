"""In-run simulation checkpoints with deterministic resume.

A checkpoint is ONE pickle over a combined plain-data state dict
gathered from every stateful component.  Using a single ``pickle.dumps``
matters: the pending-walk buffer, the walkers, the event queue's
payloads and the GPU's instruction records *share* request/entry objects
by identity, and pickle's memo preserves that sharing — restoring piece
by piece would clone the shared objects and silently fork their state.

What a checkpoint contains:

* ``version`` — the checkpoint format version (mismatches are refused);
* ``config`` — the run's fully-resolved :class:`SystemConfig` (itself a
  picklable dataclass, fault plan included), so a resume can rebuild an
  identical system without any side-channel;
* ``meta`` — workload/scheduler/seed/run arguments needed to rebuild the
  harness around the system (number of wavefronts, scale, max cycles);
* ``state`` — the combined component state dict.

Components themselves are never pickled (they hold simulator/handler
references); each contributes a ``snapshot()`` dict of plain data and
accepts it back via ``restore()``.  Every pending event and completion
target is a ``(kind, *payload)`` data tuple, so the state pickles as-is;
an unpicklable payload is reported as a :class:`CheckpointError`.

The event queue's snapshot is canonical regardless of its internal
layout: the calendar queue emits its pending events as one
``(time, seq)``-sorted list under the ``"events"`` key, plus a
``"floor"`` marking the last drained cycle.

Restore reads exactly the keys the current ``snapshot()`` methods
write; a blob of any other version is refused rather than upgraded.
"""

from __future__ import annotations

import io
import os
import pickle
import uuid
from typing import Any, Dict, Optional

#: Bump when the combined state layout changes incompatibly.
CHECKPOINT_VERSION = 2

#: Identifies a repro checkpoint blob (first dict key checked on load).
CHECKPOINT_FORMAT = "repro-checkpoint"


class CheckpointError(RuntimeError):
    """A checkpoint could not be produced, read or applied."""


def dump_checkpoint(
    config: Any,
    state: Dict[str, Any],
    meta: Optional[Dict[str, Any]] = None,
) -> bytes:
    """Serialise one checkpoint into a bytes blob (single pickle)."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": config,
        "meta": dict(meta or {}),
        "state": state,
    }
    try:
        buffer = io.BytesIO()
        pickle.dump(payload, buffer, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:  # closures in event payloads, locks, ...
        raise CheckpointError(
            f"simulation state is not serialisable: {exc!r}; checkpointing "
            "requires data-only event payloads"
        ) from exc
    return buffer.getvalue()


def load_checkpoint(blob: bytes) -> Dict[str, Any]:
    """Deserialise and validate a checkpoint blob."""
    try:
        payload = pickle.loads(blob)
    except Exception as exc:
        raise CheckpointError(f"not a readable checkpoint: {exc!r}") from exc
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError("not a repro checkpoint blob")
    version = payload.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {version} unsupported "
            f"(this build reads version {CHECKPOINT_VERSION})"
        )
    return payload


def save_checkpoint_file(
    path: str,
    config: Any,
    state: Dict[str, Any],
    meta: Optional[Dict[str, Any]] = None,
) -> None:
    """Write a checkpoint blob to ``path`` atomically.

    The blob is fully serialised before any file is opened, so an
    unserialisable state never truncates an existing checkpoint; the
    write itself goes through a uniquely-named temp file (pid + uuid,
    collision-proof against a racing second writer of the same spec)
    and an ``os.replace``, so a process SIGKILLed mid-dump leaves the
    *previous* checkpoint intact rather than a torn file that would
    poison every later resume.
    """
    blob = dump_checkpoint(config, state, meta)
    tmp = f"{path}.{os.getpid()}.{uuid.uuid4().hex}.tmp"
    try:
        with open(tmp, "wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        try:
            os.unlink(tmp)
        except OSError:
            pass


def load_checkpoint_file(path: str) -> Dict[str, Any]:
    with open(path, "rb") as handle:
        return load_checkpoint(handle.read())
