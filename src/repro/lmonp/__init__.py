"""repro.lmonp -- the LaunchMON communication protocol (LMONP).

LMONP is the compact application-layer protocol connecting LaunchMON's
components (Section 3.5): a **16-byte header** followed by two variably
sized payload sections, one for LaunchMON data and one for piggybacked
user (tool) data. The header carries a 3-bit *msg class* encoding the
communication pair -- (front end, engine), (front end, back end),
(front end, middleware), with remaining codes reserved -- a 13-bit message
type, a 16-bit security check, and a 32-bit task/daemon count.

This is a real wire codec: messages serialize to bytes, payload sizes feed
the simulated transfer-time model, and :class:`FrameDecoder` reassembles
messages from arbitrary byte chunking (exercised by property-based tests).
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    "repro.lmonp.header": ("HEADER_SIZE", "MsgClass", "FeToEngine", "FeToBe",
                           "FeToMw", "unpack_header"),
    "repro.lmonp.messages": ("LmonpMessage", "ProtocolError",
                             "security_token"),
    "repro.lmonp.transport": ("FrameDecoder", "LmonpStream"),
})

__all__ = [
    "FeToBe",
    "FeToEngine",
    "FeToMw",
    "FrameDecoder",
    "HEADER_SIZE",
    "LmonpMessage",
    "LmonpStream",
    "MsgClass",
    "ProtocolError",
    "security_token",
    "unpack_header",
]
