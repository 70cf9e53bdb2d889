"""LMONP message objects: typed header + two payload sections.

The LaunchMON payload carries protocol data (serialized RPDTABs, daemon
tables, handshake parameters); the user payload piggybacks tool data on the
same exchanges -- the optimization Sections 3.2/3.4 describe, which lets a
tool bootstrap (e.g. ship MRNet tree info) with no extra round trips.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.digest import sha256_digest
from repro.lmonp.header import (
    HEADER_SIZE,
    MsgClass,
    pack_header,
    type_enum_for,
    unpack_header,
)

__all__ = ["LmonpMessage", "ProtocolError", "security_token"]


class ProtocolError(RuntimeError):
    """Malformed message, bad security token, or protocol-state violation."""


def security_token(session_key: str) -> int:
    """Derive the 16-bit security check from a session's shared secret.

    LaunchMON's accepted security model rides on the RM's authenticated
    launch channels; the in-band check only guards against crossed sessions
    and stray connections.
    """
    digest = sha256_digest(session_key.encode())
    return int.from_bytes(digest[:2], "big")


@dataclass(frozen=True)
class LmonpMessage:
    """One LMONP protocol unit (header + lmon payload + usr payload)."""

    msg_class: MsgClass
    msg_type: int
    num_tasks: int = 0
    sec_chk: int = 0
    lmon_payload: bytes = b""
    usr_payload: bytes = b""

    # -- codec ---------------------------------------------------------------
    def encode(self) -> bytes:
        """Serialize to wire bytes."""
        return (pack_header(int(self.msg_class), int(self.msg_type),
                            self.sec_chk, self.num_tasks,
                            len(self.lmon_payload), len(self.usr_payload))
                + self.lmon_payload + self.usr_payload)

    @classmethod
    def decode(cls, data: bytes) -> "LmonpMessage":
        """Parse wire bytes; raises ProtocolError on truncation."""
        mc, mt, sec, ntasks, lmon_len, usr_len = unpack_header(data)
        need = HEADER_SIZE + lmon_len + usr_len
        if len(data) < need:
            raise ProtocolError(
                f"truncated message: need {need} bytes, have {len(data)}")
        try:
            msg_class = MsgClass(mc)
        except ValueError as exc:
            raise ProtocolError(f"unknown msg class {mc}") from exc
        enum_cls = type_enum_for(msg_class)
        if enum_cls is not None:
            try:
                msg_type = enum_cls(mt)
            except ValueError:
                # forward-compatibility: unknown codes survive as raw ints
                # (the paper notes LMONP's straightforward extension path)
                msg_type = mt
        else:
            msg_type = mt
        off = HEADER_SIZE
        lmon = data[off:off + lmon_len]
        usr = data[off + lmon_len:off + lmon_len + usr_len]
        return cls(msg_class=msg_class, msg_type=msg_type, num_tasks=ntasks,
                   sec_chk=sec, lmon_payload=lmon, usr_payload=usr)

    def wire_size(self) -> int:
        """Total bytes on the wire (drives simulated transfer time)."""
        return HEADER_SIZE + len(self.lmon_payload) + len(self.usr_payload)

    # -- convenience payload helpers ----------------------------------------
    def with_sec(self, sec_chk: int) -> "LmonpMessage":
        return LmonpMessage(self.msg_class, self.msg_type, self.num_tasks,
                            sec_chk, self.lmon_payload, self.usr_payload)

    def verify(self, expected_sec: int) -> None:
        """Check the security field; raises ProtocolError on mismatch."""
        if self.sec_chk != expected_sec:
            raise ProtocolError(
                f"security check mismatch: got {self.sec_chk:#06x}, "
                f"expected {expected_sec:#06x}")

    def lmon_json(self) -> Any:
        """Decode the LaunchMON payload as JSON (control messages)."""
        if not self.lmon_payload:
            return None
        return json.loads(self.lmon_payload.decode())

    @staticmethod
    def json_payload(obj: Any) -> bytes:
        """Encode a control structure as a compact JSON payload."""
        return json.dumps(obj, separators=(",", ":"), sort_keys=True).encode()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        tname = getattr(self.msg_type, "name", str(self.msg_type))
        return (f"<LMONP {self.msg_class.name}/{tname} tasks={self.num_tasks} "
                f"lmon={len(self.lmon_payload)}B usr={len(self.usr_payload)}B>")
