"""Spill files for partitions written to disk.

Two implementations behind one interface:

* :class:`MemorySpillFile` keeps spilled records in Python lists — used by
  the driver-side experiment harnesses where only the *write trace*
  matters and re-reading must be fast.
* :class:`DiskSpillFile` pickles frame batches to a real temporary file —
  used by the operator inside Spark executors, so its spills are real
  file I/O. There the records are ``(key, size, row index)``: the rows
  themselves stay in the resident pandas frames (``core.spark_join``).

Both move the operator's ``(key, size, payload)`` records as the frames
hold them and count the frames written; the bytes are counted by
``JoinStats`` and ``Partition.bytes_spilled``.
"""
from __future__ import annotations

import os
import pickle
import tempfile
from typing import Iterator, List, Sequence

from .frame import Record


class MemorySpillFile:
    """In-memory stand-in for a partition's disk file."""

    def __init__(self) -> None:
        self._records: List[Record] = []
        self.frames_written = 0

    def write_frame(self, records: Sequence[Record], frame_bytes: int) -> None:
        """Append one frame's worth of records; accounts one frame of I/O."""
        self._records.extend(records)
        self.frames_written += 1

    def read_all(self) -> Iterator[Record]:
        """Replay every spilled record in write order."""
        return iter(self._records)

    def close(self) -> None:
        self._records = []


class DiskSpillFile:
    """Real temp-file spill target (pickle per frame batch)."""

    def __init__(self, dir: str | None = None) -> None:
        fd, self.path = tempfile.mkstemp(prefix="repro-spill-", dir=dir)
        self._f = os.fdopen(fd, "w+b")
        self.frames_written = 0

    def write_frame(self, records: Sequence[Record], frame_bytes: int) -> None:
        pickle.dump(records, self._f, protocol=pickle.HIGHEST_PROTOCOL)
        self.frames_written += 1

    def read_all(self) -> Iterator[Record]:
        self._f.flush()
        self._f.seek(0)
        while True:
            try:
                batch = pickle.load(self._f)
            except EOFError:
                break
            yield from batch
        self._f.seek(0, os.SEEK_END)

    def close(self) -> None:
        try:
            self._f.close()
        finally:
            try:
                os.unlink(self.path)
            except OSError:
                pass
