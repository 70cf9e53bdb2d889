"""The Remote Process Descriptor Table (RPDTAB).

The RPDTAB is an array of MPIR_PROCDESC entries -- ``{host_name,
executable_name, pid}`` -- one per MPI task (Section 2). LaunchMON fetches
it from the RM launcher's address space, ships it to the front end inside
an LMONP message, and distributes it to back-end and middleware daemons.

Serialization here is a real binary codec (length-prefixed UTF-8 strings +
fixed-width integers) so payload sizes, and therefore simulated transfer
times, scale linearly with task count exactly as the paper models Region B.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

__all__ = ["ProcDesc", "RPDTAB"]

_U32 = struct.Struct(">I")
_ENTRY_FIXED = struct.Struct(">Iii")  # pid, host_idx, exe_idx


@dataclass(frozen=True, order=True)
class ProcDesc:
    """One MPIR_PROCDESC entry: where one MPI task lives."""

    rank: int
    host_name: str
    executable_name: str
    pid: int


class RPDTAB:
    """An ordered table of :class:`ProcDesc`, indexable by rank and host.

    The binary wire format deduplicates host and executable names through a
    string table (real MPIR consumers do the same to keep the table compact
    at scale). A table is immutable once built, so its encoded length is
    computed on first use and cached.
    """

    def __init__(self, entries: Iterable[ProcDesc] = ()):
        self._entries: list[ProcDesc] = sorted(entries, key=lambda e: e.rank)
        self._by_host: dict[str, list[ProcDesc]] = {}
        for e in self._entries:
            self._by_host.setdefault(e.host_name, []).append(e)
        self._wire_size: Optional[int] = None

    # -- container protocol -----------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[ProcDesc]:
        return iter(self._entries)

    def __getitem__(self, rank: int) -> ProcDesc:
        entry = self._entries[rank]
        if entry.rank != rank:  # non-contiguous ranks: fall back to search
            for e in self._entries:
                if e.rank == rank:
                    return e
            raise KeyError(f"no rank {rank} in RPDTAB")
        return entry

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RPDTAB) and self._entries == other._entries

    # -- queries --------------------------------------------------------------
    @property
    def hosts(self) -> list[str]:
        """Distinct hostnames in first-rank order (daemon placement order)."""
        seen: dict[str, None] = {}
        for e in self._entries:
            seen.setdefault(e.host_name)
        return list(seen)

    def entries_on(self, host_name: str) -> list[ProcDesc]:
        """All task descriptors on one host (a back-end daemon's local set)."""
        return list(self._by_host.get(host_name, ()))

    def task_counts(self) -> dict[str, int]:
        return {h: len(v) for h, v in self._by_host.items()}

    # -- binary codec ------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialize: string table + per-entry fixed records."""
        strings: list[str] = []
        index: dict[str, int] = {}

        def intern(s: str) -> int:
            if s not in index:
                index[s] = len(strings)
                strings.append(s)
            return index[s]

        body = bytearray()
        body += _U32.pack(len(self._entries))
        records = bytearray()
        for e in self._entries:
            hi = intern(e.host_name)
            xi = intern(e.executable_name)
            records += _U32.pack(e.rank)
            records += _ENTRY_FIXED.pack(e.pid, hi, xi)
        body += _U32.pack(len(strings))
        for s in strings:
            raw = s.encode()
            body += _U32.pack(len(raw)) + raw
        body += records
        return bytes(body)

    @classmethod
    def from_bytes(cls, data: bytes) -> "RPDTAB":
        off = 0
        (n_entries,) = _U32.unpack_from(data, off)
        off += 4
        (n_strings,) = _U32.unpack_from(data, off)
        off += 4
        strings: list[str] = []
        for _ in range(n_strings):
            (slen,) = _U32.unpack_from(data, off)
            off += 4
            strings.append(data[off:off + slen].decode())
            off += slen
        entries = []
        for _ in range(n_entries):
            (rank,) = _U32.unpack_from(data, off)
            off += 4
            pid, hi, xi = _ENTRY_FIXED.unpack_from(data, off)
            off += _ENTRY_FIXED.size
            entries.append(ProcDesc(rank=rank, host_name=strings[hi],
                                    executable_name=strings[xi], pid=pid))
        return cls(entries)

    def wire_size(self) -> int:
        """Size of the serialized table (used for transfer timing)."""
        if self._wire_size is None:
            self._wire_size = len(self.to_bytes())
        return self._wire_size

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RPDTAB {len(self)} tasks on {len(self.hosts)} hosts>"
