"""Enclave measurement (MRENCLAVE) — identity of the loaded code.

Real SGX builds MRENCLAVE as a SHA-256 digest over the sequence of
ECREATE/EADD/EEXTEND operations that constructed the enclave, so the
measurement commits to both page *contents* and *layout*. The simulator
reproduces that: the builder logs each operation, its fields
length-framed by :func:`~repro.crypto.encoding.pack_fields`, into a
:class:`MeasurementLog`, and the final digest is the enclave identity
used by attestation and sealing.
"""

from __future__ import annotations

import hashlib

from repro.crypto.encoding import pack_fields

__all__ = ["MeasurementLog"]


class MeasurementLog:
    """Running SHA-256 over the enclave build operations."""

    def __init__(self) -> None:
        self._digest = hashlib.sha256()
        self._finalized = False
        self.n_operations = 0

    def ecreate(self, size_bytes: int) -> None:
        """Record enclave creation with its address-space size."""
        self._record(b"ECREATE", size_bytes.to_bytes(8, "big"))

    def eadd(self, page_offset: int, flags: int) -> None:
        """Record the addition of one page at ``page_offset``."""
        self._record(b"EADD", page_offset.to_bytes(8, "big"),
                     flags.to_bytes(4, "big"))

    def eextend(self, page_offset: int, chunk_offset: int,
                chunk: bytes) -> None:
        """Record the measurement of a 256-byte chunk of a page."""
        self._record(b"EEXTEND", page_offset.to_bytes(8, "big"),
                     chunk_offset.to_bytes(4, "big"), chunk)

    def _record(self, *parts: bytes) -> None:
        if self._finalized:
            raise RuntimeError("measurement log already finalized")
        self._digest.update(pack_fields(parts))
        self.n_operations += 1

    def finalize(self) -> bytes:
        """EINIT: freeze and return the 32-byte MRENCLAVE."""
        self._finalized = True
        return self._digest.digest()
