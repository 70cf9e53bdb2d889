"""SHA-256 from the interpreter, not from OpenSSL.

The simulator takes two kinds of digest: one per random stream it seeds
(:class:`repro.simx.SeededRNG`) and one per session token
(:func:`repro.lmonp.security_token`). ``hashlib`` would map OpenSSL's
libcrypto into every process for them, 3.4-3.9 MiB resident. CPython
also builds SHA-256 into the interpreter -- ``_sha2`` on 3.12 and later,
``_sha256`` before -- and its digests are the same bytes; ``random``
loads its SHA-512 the same way. ``hashlib`` serves only an interpreter
built without either module.
"""

from __future__ import annotations

try:
    from _sha2 import sha256 as _sha256
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256

__all__ = ["sha256_digest"]


def sha256_digest(data: bytes) -> bytes:
    """The 32-byte SHA-256 digest of ``data``."""
    return _sha256(data).digest()
