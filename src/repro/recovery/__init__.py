"""Crash recovery: snapshot-consistent checkpoints, restore/replay, and
bounded-disorder admission.

The subsystem leans on the serialization boundary GenMig already forces
on every stateful operator — the ``state_of_port``/``absorb_state`` drain
hooks — so a checkpoint is "drain every box at a consistent cut, pack
the elements into columns, write one checksummed file", and a restore
is "rebuild the plan from the registered CQL, absorb the state back,
rewind the hub, replay the tail".  See ``docs/recovery.md``.

Only :mod:`repro.recovery.errors` is imported eagerly: the engine,
service and pn layers raise ``RecoveryError`` at module level, and the
heavier checkpoint/restore modules import those layers in turn.  The
remaining names resolve lazily (:pep:`562`) to keep the import graph
acyclic.
"""

from __future__ import annotations

from .errors import DisorderError, RecoveryError, SnapshotFormatError

__all__ = [
    "CheckpointManager",
    "DisorderBuffer",
    "DisorderError",
    "RecoveryError",
    "SnapshotFormatError",
    "decode_snapshot",
    "encode_snapshot",
    "pack_elements",
    "read_snapshot",
    "replay_tail",
    "restore_service",
    "unpack_elements",
    "write_snapshot",
]

_LAZY = {
    "CheckpointManager": ("repro.recovery.checkpoint", "CheckpointManager"),
    "DisorderBuffer": ("repro.recovery.disorder", "DisorderBuffer"),
    "decode_snapshot": ("repro.recovery.snapshot", "decode_snapshot"),
    "encode_snapshot": ("repro.recovery.snapshot", "encode_snapshot"),
    "pack_elements": ("repro.recovery.snapshot", "pack_elements"),
    "read_snapshot": ("repro.recovery.snapshot", "read_snapshot"),
    "replay_tail": ("repro.recovery.restore", "replay_tail"),
    "restore_service": ("repro.recovery.restore", "restore_service"),
    "unpack_elements": ("repro.recovery.snapshot", "unpack_elements"),
    "write_snapshot": ("repro.recovery.snapshot", "write_snapshot"),
}


def __getattr__(name: str):
    try:
        module_name, attribute = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    value = getattr(importlib.import_module(module_name), attribute)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
