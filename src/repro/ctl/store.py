"""The durable side of the control plane: a checkpoint store.

Models the checkpoint file on the front-end node's disk. Only simulated
*processes* die in a control-plane crash; storage does not -- so the
store lives on the :class:`~repro.ctl.daemon.ControlPlane` supervisor,
outside any daemon generation. Writes are atomic whole-document
replacements, mirroring the write-temp-then-rename idiom real daemons
use so a reader never observes a torn checkpoint.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["CheckpointStore"]


class CheckpointStore:
    """Holds the latest encoded checkpoint plus write diagnostics."""

    def __init__(self) -> None:
        self._data: Optional[bytes] = None
        #: total write count (checkpoint churn diagnostic)
        self.writes = 0
        #: number of writes that replaced the document with identical
        #: bytes -- with the canonical codec this means the transition
        #: changed nothing client-visible
        self.identical_writes = 0

    @property
    def empty(self) -> bool:
        return self._data is None

    def write(self, data: bytes) -> None:
        if not isinstance(data, bytes):
            raise TypeError(f"checkpoint store takes bytes, got "
                            f"{type(data).__name__}")
        if data == self._data:
            self.identical_writes += 1
        self._data = data
        self.writes += 1

    def read(self) -> Optional[bytes]:
        """The latest checkpoint bytes, or None if never written."""
        return self._data

    def clear(self) -> None:
        """Discard the stored checkpoint (operator reset)."""
        self._data = None
