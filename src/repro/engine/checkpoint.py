"""In-run simulation checkpoints with deterministic resume.

A checkpoint is ONE pickle of the running harness: the wired
:class:`~repro.experiments.runner.System` (simulator clock, pending
event queue, installed monitors and every hardware model), its
watchdog and its metrics registry.  Components are pickled as they
are — there are no per-component snapshot methods to keep in step with
the models.  That works because the graph holds only data and
references to other components: every pending event and completion
target is a ``(kind, *payload)`` data tuple, handlers are bound methods
(pickled as the component plus a method name), and monitors and tracer
clocks are picklable objects rather than closures.

Using a single ``pickle.dumps`` matters: the pending-walk buffer, the
walkers, the event queue's payloads and the GPU's instruction records
*share* request/entry objects by identity, and pickle's memo preserves
that sharing — pickling piece by piece would clone the shared objects
and silently fork their state.

What a checkpoint blob contains (a plain dict):

* ``format`` / ``version`` — the blob kind and format version; a blob
  of any other version is refused rather than upgraded;
* ``meta`` — the run arguments the resumed harness still needs
  (workload name, cycle limit, trace configuration) plus the cycle and
  event count at which the dump was taken;
* ``state`` — the harness objects themselves.

An object in the graph that cannot be pickled (a closure, a lock) is
reported as a :class:`CheckpointError`.
"""

from __future__ import annotations

import io
import os
import pickle
import uuid
from typing import Any, Dict, Optional

#: Bump when the blob layout or the pickled object graph changes
#: incompatibly.  Version 3 pickles the harness objects whole.
CHECKPOINT_VERSION = 3

#: Identifies a repro checkpoint blob (first dict key checked on load).
CHECKPOINT_FORMAT = "repro-checkpoint"


class CheckpointError(RuntimeError):
    """A checkpoint could not be produced, read or applied."""


def dump_checkpoint(
    state: Dict[str, Any], meta: Optional[Dict[str, Any]] = None
) -> bytes:
    """Serialise one checkpoint into a bytes blob (single pickle)."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "meta": dict(meta or {}),
        "state": state,
    }
    try:
        buffer = io.BytesIO()
        pickle.dump(payload, buffer, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:  # closures in the object graph, locks, ...
        raise CheckpointError(
            f"simulation state is not serialisable: {exc!r}; checkpointing "
            "requires a picklable object graph (no closures or locks)"
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
    path: str, state: Dict[str, Any], meta: Optional[Dict[str, Any]] = None
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
    blob = dump_checkpoint(state, meta)
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
