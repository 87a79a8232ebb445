"""Remote attestation: proving an enclave's identity to a remote party.

The paper relies on remote attestation to provision the symmetric key
SK into the routing enclave (§2, §3.3): the protocol "can prove that an
enclave runs on a genuine Intel processor with SGX and verify that its
identity matches that of the code that the developer asked to start",
and establishes a secure channel for delivering secrets.

The simulated flow mirrors the EPID-based production flow with RSA in
the role of the group signature:

1. the application enclave produces a *report* whose ``report_data``
   commits to an ephemeral public key generated inside the enclave;
2. the platform's *quoting enclave* verifies the report locally (it can
   derive the report key) and signs a *quote* with the platform
   attestation key;
3. the *attestation service* ("IAS") — which learnt the platform's
   attestation public key at manufacturing registration — verifies the
   quote and returns a signed verification report;
4. the remote party (SCBR's service provider) checks the IAS signature,
   compares MRENCLAVE against the measurement of the code it expects,
   and encrypts its secrets under the enclave's ephemeral key.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Optional, Set

from repro.crypto.cmac import cmac
from repro.crypto.rsa import RsaPublicKey, _generate_keypair_unchecked
from repro.errors import AttestationError, AuthenticationError
from repro.sgx.enclave import Report
from repro.sgx.platform import SgxPlatform

__all__ = ["Quote", "AttestationVerificationReport", "QuotingEnclave",
           "AttestationService"]


@dataclass(frozen=True)
class Quote:
    """A report countersigned by the platform attestation key."""

    mr_enclave: bytes
    mr_signer: bytes
    report_data: bytes
    platform_id: bytes
    signature: bytes

    def body(self) -> bytes:
        return (b"QUOTE|" + self.mr_enclave + b"|" + self.mr_signer
                + b"|" + self.report_data + b"|" + self.platform_id)


@dataclass(frozen=True)
class AttestationVerificationReport:
    """IAS response: the quote's claims, signed by the service."""

    quote: Quote
    verdict: str
    signature: bytes

    def body(self) -> bytes:
        return b"AVR|" + self.verdict.encode() + b"|" + self.quote.body()


class QuotingEnclave:
    """The platform component that turns local reports into quotes.

    The QE's own measurement is irrelevant to the simulation; what
    matters is that it (a) can derive its report key to verify local
    reports, and (b) holds the platform attestation private key.
    """

    #: report-key target identity under which app enclaves report to us.
    MR_ENCLAVE = hashlib.sha256(b"quoting-enclave").digest()

    def __init__(self, platform: SgxPlatform) -> None:
        self._platform = platform
        self.platform_id = hashlib.sha256(
            platform.attestation_key.public_key.n.to_bytes(
                (platform.attestation_key.n.bit_length() + 7) // 8, "big")
        ).digest()[:16]

    def quote(self, report: Report) -> Quote:
        """Verify a local report and countersign it into a quote."""
        key = self._platform.derive_report_key(self.MR_ENCLAVE)
        expected = cmac(key, report.body())
        if expected != report.mac:
            raise AttestationError(
                "report not targeted at this quoting enclave or forged")
        unsigned = Quote(report.mr_enclave, report.mr_signer,
                         report.report_data, self.platform_id, b"")
        signature = self._platform.attestation_key.sign(unsigned.body())
        return Quote(report.mr_enclave, report.mr_signer,
                     report.report_data, self.platform_id, signature)


class AttestationService:
    """Simulated Intel Attestation Service (IAS).

    Knows the attestation public key of every registered platform and
    can therefore validate quotes; responses are signed with the
    service's own report-signing key, which relying parties pin.
    """

    def __init__(self, signing_key_bits: int = 1024) -> None:
        self._signing_key = _generate_keypair_unchecked(signing_key_bits,
                                                        65537)
        self._platforms: Dict[bytes, RsaPublicKey] = {}
        self._revoked: Set[bytes] = set()

    @property
    def report_signing_public_key(self) -> RsaPublicKey:
        """The key relying parties pin to verify IAS responses."""
        return self._signing_key.public_key

    def register_platform(self, platform: SgxPlatform) -> None:
        """Manufacturing-time registration of a genuine platform."""
        qe = QuotingEnclave(platform)
        self._platforms[qe.platform_id] = \
            platform.attestation_key.public_key

    def revoke_platform(self, platform_id: bytes) -> None:
        """Put a platform on the revocation list (e.g. leaked key)."""
        self._revoked.add(platform_id)

    def verify_quote(self, quote: Quote) -> AttestationVerificationReport:
        """Validate a quote; returns a signed verification report."""
        public = self._platforms.get(quote.platform_id)
        if public is None:
            raise AttestationError("quote from an unregistered platform")
        if quote.platform_id in self._revoked:
            verdict = "GROUP_REVOKED"
        else:
            try:
                public.verify(quote.body(), quote.signature)
                verdict = "OK"
            except AuthenticationError:
                raise AttestationError("quote signature invalid")
        unsigned = AttestationVerificationReport(quote, verdict, b"")
        signature = self._signing_key.sign(unsigned.body())
        return AttestationVerificationReport(quote, verdict, signature)


def verify_avr(avr: AttestationVerificationReport,
               ias_public_key: RsaPublicKey,
               expected_mr_enclave: Optional[bytes] = None) -> None:
    """Relying-party check of an IAS response.

    Verifies the IAS signature, the verdict, and (if given) that the
    attested enclave runs exactly the expected code.
    """
    try:
        ias_public_key.verify(avr.body(), avr.signature)
    except AuthenticationError:
        raise AttestationError("attestation report signature invalid")
    if avr.verdict != "OK":
        raise AttestationError(f"attestation verdict: {avr.verdict}")
    if (expected_mr_enclave is not None
            and avr.quote.mr_enclave != expected_mr_enclave):
        raise AttestationError(
            "attested MRENCLAVE does not match the expected measurement")
