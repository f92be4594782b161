"""Atomic broker-state snapshots: tmp + rename publication.

A snapshot collapses the WAL prefix it covers: recovery loads the latest
snapshot and only replays journal records past it, so restart cost stays
bounded no matter how long the broker has been running.

Publication is crash-atomic the classic way: the state is serialized to a
temporary file *in the target directory*, fsynced, and ``os.replace``d
over the previous snapshot — readers see either the old complete snapshot
or the new complete snapshot, never a torn mix.  A checksum over the
canonical payload bytes guards against the remaining hazard (a snapshot
corrupted at rest); :meth:`SnapshotStore.load` verifies it and raises
:class:`~repro.exceptions.SnapshotError`, which recovery treats as "no
snapshot" and falls back to a full WAL replay.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
import zlib
from pathlib import Path
from typing import Any

from repro.exceptions import SnapshotError

__all__ = ["SnapshotStore", "snapshot_path"]

_SNAPSHOT_SUFFIX = ".snapshot.json"


def snapshot_path(wal_path: str | Path) -> Path:
    """The snapshot file that shadows a given journal path."""
    wal_path = Path(wal_path)
    return wal_path.with_name(wal_path.name + _SNAPSHOT_SUFFIX)


def _canonical(state: dict[str, Any]) -> bytes:
    return json.dumps(state, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )


class SnapshotStore:
    """Publishes and loads one atomically-replaced snapshot file."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    def publish(self, state: dict[str, Any]) -> float:
        """Atomically replace the snapshot with ``state``; returns seconds.

        The checksum is computed over the canonical serialization of
        ``state`` and stored alongside it, so a load can prove integrity
        without trusting the filesystem.
        """
        t0 = time.perf_counter()
        payload = {"checksum": zlib.crc32(_canonical(state)), "state": state}
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=self.path.parent, prefix=self.path.name + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                # json.dumps encodes in one C call; json.dump would stream
                # through the pure-Python encoder.  Same text either way.
                handle.write(json.dumps(payload))
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, self.path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return time.perf_counter() - t0

    def load(self) -> dict[str, Any] | None:
        """The last published state, ``None`` if never published.

        Raises :class:`SnapshotError` on a snapshot that does not parse or
        fails its checksum — the caller decides whether that is fatal
        (recovery falls back to the WAL).
        """
        if not self.path.exists():
            return None
        try:
            payload = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise SnapshotError(f"snapshot {self.path} unreadable: {exc}") from exc
        if not isinstance(payload, dict) or "state" not in payload:
            raise SnapshotError(f"snapshot {self.path} has no state payload")
        state = payload["state"]
        if payload.get("checksum") != zlib.crc32(_canonical(state)):
            raise SnapshotError(f"snapshot {self.path} fails its checksum")
        return state

    def __repr__(self) -> str:
        return f"SnapshotStore({str(self.path)!r})"
