"""Fixed-size memory frame.

A frame is AsterixDB's unit of memory and I/O: a fixed-size, configurable
block of contiguous bytes (paper §2.2). Our frame tracks byte occupancy
and holds record payloads; it never splits a record across frames, which
matches the paper (records are at most one frame large).
"""
from __future__ import annotations

from typing import Any, List, Tuple

DEFAULT_FRAME_BYTES = 32 * 1024  # 32 KB, the frame size used in §5.3.1

Record = Tuple[Any, int, Any]  # (key, size, payload)


class Frame:
    """One fixed-capacity frame holding whole records.

    ``records`` holds the operator's ``(key, size, payload)`` records as
    they were inserted: a record is stored once and moves between frames
    and spill files as is, never re-wrapped. In *stats-only* mode the
    payload is ``None``; byte accounting uses only the size, so policy
    behaviour does not depend on the mode.
    """

    __slots__ = ("capacity", "used", "records")

    def __init__(self, capacity: int = DEFAULT_FRAME_BYTES) -> None:
        if capacity <= 0:
            raise ValueError(f"frame capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.used = 0
        self.records: List[Record] = []

    @property
    def free(self) -> int:
        """Bytes still available in this frame."""
        return self.capacity - self.used

    @property
    def fullness(self) -> float:
        """Fraction of the frame's capacity occupied by records (0..1)."""
        return self.used / self.capacity

    def fits(self, size: int) -> bool:
        """True if a record of ``size`` bytes fits in the remaining space."""
        return self.used + size <= self.capacity

    def insert(self, record: Record) -> None:
        """Place one ``(key, size, payload)`` record, charging its size;
        raises if it does not fit (caller must check)."""
        size = record[1]
        used = self.used + size
        if used > self.capacity:
            raise ValueError(
                f"record of {size} B does not fit in frame with {self.free} B free"
            )
        if size <= 0:
            raise ValueError(f"record size must be positive, got {size}")
        self.used = used
        self.records.append(record)

    def clear(self) -> None:
        """Empty the frame (used when a spilled partition's buffer flushes)."""
        self.used = 0
        self.records = []

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Frame(used={self.used}/{self.capacity}, n={len(self.records)})"
