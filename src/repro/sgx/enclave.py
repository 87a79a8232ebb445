"""Enclave lifecycle: ECREATE/EADD/EEXTEND/EINIT, EENTER/EEXIT, EREPORT.

The unit of trusted execution. An enclave is built from a *signed
library* — here a Python class — and after EINIT exposes its declared
ecalls. The library declares its loaded size (``CODE_BYTES``), which
sizes ECREATE, the EADDed pages and the code pages touched on load.
Its identity is its live code: every class of its MRO but ``object``
by qualified name, every function in each class body by bytecode,
names, constants (a def's docstring left out, nested code recursed)
and default values, and every other class-body entry but the dunder
data by value, so the ``ECALLS`` entry-point table too. The loader
EEXTENDs that form's SHA-256 into the first page, so MRENCLAVE moves
with a changed statement or default, an added or removed ``@ecall``,
an override or a method replaced at run time, and not with a comment,
a docstring's wording or a line shift. The form is CPython bytecode,
so MRENCLAVE differs between interpreter versions, as a real
enclave's does between compilers.

Entering and leaving the enclave charges the documented transition
costs; data the trusted code allocates lives in an enclave
:class:`~repro.sgx.memory.MemoryArena`, so every touch is accounted
against the EPC and the MEE.

The developer-facing sugar (declaring ecalls, generating proxies) lives
in :mod:`repro.sgx.sdk`; this module is the "hardware" behaviour.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import dataclass
from types import CodeType
from typing import Any, Callable, Dict, List, Optional, Tuple, Type

from repro.crypto.cmac import cmac
from repro.crypto.encoding import pack_fields
from repro.crypto.rsa import RsaPrivateKey, RsaPublicKey
from repro.errors import AuthenticationError, EnclaveError, SgxError
from repro.sgx.measurement import MeasurementLog
from repro.sgx.memory import MemoryArena
from repro.sgx.platform import KeyPolicy, SgxPlatform

__all__ = ["Sigstruct", "Report", "EnclaveBuilder", "Enclave",
           "TrustedRuntime", "mr_signer_of"]

_PAGE = 4096
_MEASURE_CHUNK = 256

# Page permission flags (EPCM attributes).
PAGE_READ = 1
PAGE_WRITE = 2
PAGE_EXEC = 4


def mr_signer_of(public_key: RsaPublicKey) -> bytes:
    """MRSIGNER: hash of the vendor's signing public key."""
    material = public_key.n.to_bytes((public_key.n.bit_length() + 7) // 8,
                                     "big")
    material += public_key.e.to_bytes(8, "big")
    return hashlib.sha256(material).digest()


@dataclass(frozen=True)
class Sigstruct:
    """The signed enclave certificate shipped with the library."""

    mr_enclave: bytes
    signer_public: RsaPublicKey
    signature: bytes

    @property
    def mr_signer(self) -> bytes:
        return mr_signer_of(self.signer_public)

    def verify(self) -> None:
        """Check the vendor signature over the measurement."""
        self.signer_public.verify(b"SIGSTRUCT|" + self.mr_enclave,
                                  self.signature)


@dataclass(frozen=True)
class Report:
    """Local attestation report (EREPORT output).

    MACed with the *target* enclave's report key, so only code running
    on the same platform that can derive that key may verify it.
    """

    mr_enclave: bytes
    mr_signer: bytes
    report_data: bytes
    mac: bytes

    def body(self) -> bytes:
        return (b"REPORT|" + self.mr_enclave + b"|" + self.mr_signer
                + b"|" + self.report_data)


class TrustedRuntime:
    """Services available to code executing *inside* an enclave.

    Handed to the trusted library at initialization; mirrors the Intel
    SDK's trusted runtime (tRTS): key derivation, report generation,
    monotonic counters, protected heap, ocalls.
    """

    def __init__(self, enclave: "Enclave") -> None:
        self._enclave = enclave
        #: Protected heap: allocations here are EPC/MEE-accounted.
        self.arena: MemoryArena = enclave.arena

    @property
    def memory(self):
        """The platform memory subsystem (for compute-cycle charges)."""
        return self._enclave.platform.memory

    @property
    def costs(self):
        """The platform cost model."""
        return self._enclave.platform.spec.costs

    def egetkey(self, policy: str = KeyPolicy.MRENCLAVE,
                key_id: bytes = b"") -> bytes:
        """Derive a sealing key bound to this enclave and platform."""
        self._enclave._require_inside("egetkey")
        return self._enclave.platform.derive_seal_key(
            self._enclave.mr_enclave, self._enclave.mr_signer,
            policy, key_id)

    def ereport(self, target_mr_enclave: bytes,
                report_data: bytes) -> Report:
        """Produce a report verifiable by ``target_mr_enclave``."""
        self._enclave._require_inside("ereport")
        if len(report_data) > 64:
            raise EnclaveError("report_data limited to 64 bytes")
        enclave = self._enclave
        report = Report(enclave.mr_enclave, enclave.mr_signer,
                        report_data, b"")
        key = enclave.platform.derive_report_key(target_mr_enclave)
        mac = cmac(key, report.body())
        return Report(enclave.mr_enclave, enclave.mr_signer,
                      report_data, mac)

    def verify_report(self, report: Report) -> None:
        """Verify a report targeted at *this* enclave."""
        self._enclave._require_inside("verify_report")
        key = self._enclave.platform.derive_report_key(
            self._enclave.mr_enclave)
        expected = cmac(key, report.body())
        if expected != report.mac:
            raise AuthenticationError("report MAC mismatch")

    def create_monotonic_counter(self) -> bytes:
        self._enclave._require_inside("create_monotonic_counter")
        return self._enclave.platform.counters.create(
            self._enclave.mr_signer)

    def read_monotonic_counter(self, counter_id: bytes) -> int:
        self._enclave._require_inside("read_monotonic_counter")
        return self._enclave.platform.counters.read(
            counter_id, self._enclave.mr_signer)

    def increment_monotonic_counter(self, counter_id: bytes) -> int:
        self._enclave._require_inside("increment_monotonic_counter")
        return self._enclave.platform.counters.increment(
            counter_id, self._enclave.mr_signer)

    def ocall(self, fn: Callable[..., Any], *args: Any) -> Any:
        """Leave the enclave to run untrusted ``fn``, then re-enter."""
        enclave = self._enclave
        enclave._require_inside("ocall")
        costs = enclave.platform.spec.costs
        memory = enclave.platform.memory
        memory.charge(costs.eexit_cycles + _marshal_cycles(costs, args))
        enclave.ocalls += 1
        previous = enclave.platform.current_enclave
        enclave.platform.current_enclave = None
        try:
            result = fn(*args)
        finally:
            enclave.platform.current_enclave = previous
        memory.charge(costs.eenter_cycles
                      + _marshal_cycles(costs, (result,)))
        return result


def _code_form(code: CodeType) -> bytes:
    """Bytecode, names and constants of ``code``, nested code recursed,
    a def's docstring left out."""
    consts = code.co_consts
    if _holds_docstring(code):
        consts = consts[1:]
    return pack_fields([code.co_code, " ".join(code.co_names).encode(),
                        pack_fields([_const_form(c) for c in consts])])


def _holds_docstring(code: CodeType) -> bool:
    """Whether ``co_consts[0]`` is a docstring slot. CPython 3.14 flags
    a def that has a docstring (CO_HAS_DOCSTRING); before, every def
    (CO_OPTIMIZED, named by an identifier) holds its docstring or None
    there, and no other code does."""
    if sys.version_info >= (3, 14):
        return bool(code.co_flags & 0x4000000)
    return bool(code.co_flags & 0x1) and code.co_name.isidentifier()


def _const_form(value: Any) -> bytes:
    """A constant's bytes; frozenset members in a fixed order."""
    if isinstance(value, CodeType):
        return b"code" + _code_form(value)
    if isinstance(value, tuple):
        return b"tuple" + pack_fields([_const_form(v) for v in value])
    if isinstance(value, frozenset):
        return b"frozenset" + pack_fields(sorted(map(_const_form, value)))
    return repr(value).encode()


def _functions(value: Any) -> List[Any]:
    """The functions a class-body entry binds: itself, a static or class
    method's function, a property's accessors."""
    value = getattr(value, "__func__", value)
    if isinstance(value, property):
        return [fn for fn in (value.fget, value.fset, value.fdel) if fn]
    return [value] if hasattr(value, "__code__") else []


def _entry_form(value: Any) -> bytes:
    """A class-body entry: each function it binds by code and default
    values; an entry that binds none (``ECALLS``, say) by value."""
    functions = _functions(value)
    if not functions:
        return _const_form(value)
    return pack_fields([
        pack_fields([_code_form(fn.__code__), _const_form(fn.__defaults__),
                     _const_form(tuple((fn.__kwdefaults__ or {}).items()))])
        for fn in functions])


def _code_identity(library: Type) -> bytes:
    """SHA-256 over the canonical form of ``library``'s live code: each
    class of the MRO but ``object`` by qualified name, and its class-body
    entries but the dunder data (``__doc__``, ``__module__``, ...)."""
    return hashlib.sha256(pack_fields([
        pack_fields([cls.__qualname__.encode()] + [
            pack_fields([name.encode(), _entry_form(value)])
            for name, value in vars(cls).items()
            if _functions(value) or not name.startswith("__")])
        for cls in library.__mro__[:-1]])).digest()


def _marshal_cycles(costs, values: Tuple[Any, ...]) -> float:
    """Boundary-copy cost for byte-like arguments/results."""
    total = 0
    for value in values:
        if isinstance(value, (bytes, bytearray, memoryview)):
            total += len(value)
        elif isinstance(value, str):
            total += len(value)
    return total * costs.boundary_copy_cycles_per_byte


class EnclaveBuilder:
    """Builds and initializes an enclave from a trusted library class.

    The loader path mirrors the SDK: ECREATE reserves the library's
    declared ``CODE_BYTES``, page-rounded; each page is EADDed and
    EEXTENDed in 256-byte chunks, the first page opening with the
    SHA-256 of the library's live code (so the measurement commits to
    every function of its classes, their defaults and its ``ECALLS``);
    and EINIT verifies the SIGSTRUCT against launch control.
    """

    def __init__(self, platform: SgxPlatform, library: Type) -> None:
        self.platform = platform
        self.library_class = library
        # The loaded image: the code's digest, zero-filled to the
        # declared size in whole pages.
        self._pages = max(-(-library.CODE_BYTES // _PAGE), 1)
        self._image = _code_identity(library).ljust(self._pages * _PAGE, b"\0")
        self._log = MeasurementLog()
        self._measured = False

    def measure(self) -> bytes:
        """Run ECREATE/EADD/EEXTEND over the library code pages."""
        if self._measured:
            raise EnclaveError("enclave already measured")
        image = self._image
        self._log.ecreate(len(image))
        for offset in range(0, len(image), _PAGE):
            self._log.eadd(offset, PAGE_READ | PAGE_EXEC)
            for chunk in range(offset, offset + _PAGE, _MEASURE_CHUNK):
                self._log.eextend(offset, chunk - offset,
                                  image[chunk:chunk + _MEASURE_CHUNK])
        self._measured = True
        return self._log.finalize()

    def sign(self, signing_key: RsaPrivateKey) -> Sigstruct:
        """Produce the vendor SIGSTRUCT over the measurement."""
        mr_enclave = self.measure()
        signature = signing_key.sign(b"SIGSTRUCT|" + mr_enclave)
        return Sigstruct(mr_enclave, signing_key.public_key, signature)

    def initialize(self, sigstruct: Sigstruct, *library_args: Any,
                   **library_kwargs: Any) -> "Enclave":
        """EINIT: verify the certificate and instantiate the enclave."""
        if not self._measured:
            raise EnclaveError("measure()/sign() must run before EINIT")
        sigstruct.verify()
        expected = self._log.finalize()
        if sigstruct.mr_enclave != expected:
            raise AuthenticationError(
                "SIGSTRUCT measurement does not match loaded code")
        if not self.platform.launch_allowed(sigstruct.mr_signer):
            raise EnclaveError("launch control rejected this signer")
        return Enclave(self.platform, self.library_class, sigstruct,
                       self._pages, library_args, library_kwargs)


class Enclave:
    """An initialized enclave exposing its library's declared ecalls.

    The trusted library class declares its entry points in an ``ECALLS``
    tuple of method names — the moral equivalent of the EDL file — and
    receives the :class:`TrustedRuntime` as first constructor argument.
    """

    def __init__(self, platform: SgxPlatform, library_class: Type,
                 sigstruct: Sigstruct, code_pages: int,
                 library_args: Tuple[Any, ...],
                 library_kwargs: Dict[str, Any]) -> None:
        self.platform = platform
        self.enclave_id = platform.next_enclave_id()
        self.sigstruct = sigstruct
        self.mr_enclave = sigstruct.mr_enclave
        self.mr_signer = sigstruct.mr_signer
        self.arena = platform.memory.new_arena(
            enclave=True, name=f"enclave-{self.enclave_id}")
        self.ecalls = 0
        self.ocalls = 0
        self._destroyed = False
        self._ecall_names = tuple(getattr(library_class, "ECALLS", ()))
        if not self._ecall_names:
            raise EnclaveError(
                f"{library_class.__name__} declares no ECALLS")
        # Load (touch) the code pages into the EPC.
        for _page in range(code_pages):
            self.arena.touch(self.arena.alloc(_PAGE), _PAGE)
        # Instantiate the trusted library inside the enclave.
        self.runtime = TrustedRuntime(self)
        previous = platform.current_enclave
        platform.current_enclave = self
        try:
            self._library = library_class(self.runtime, *library_args,
                                          **library_kwargs)
        finally:
            platform.current_enclave = previous

    # -- state guards --------------------------------------------------------

    def _require_alive(self) -> None:
        if self._destroyed:
            raise EnclaveError("enclave has been destroyed (EREMOVE)")

    def _require_inside(self, what: str) -> None:
        if self.platform.current_enclave is not self:
            raise EnclaveError(
                f"{what} is only available while executing inside "
                f"the enclave")

    # -- execution -----------------------------------------------------------

    def ecall(self, name: str, *args: Any, **kwargs: Any) -> Any:
        """EENTER, run the trusted function, EEXIT.

        Only names declared in the library's ``ECALLS`` are callable —
        everything else is not an enclave entry point.
        """
        self._require_alive()
        if name not in self._ecall_names:
            raise EnclaveError(f"{name!r} is not a declared ecall")
        if self.platform.current_enclave is not None:
            raise EnclaveError("nested ecall: already inside an enclave")
        costs = self.platform.spec.costs
        memory = self.platform.memory
        memory.charge(costs.eenter_cycles + _marshal_cycles(costs, args))
        self.ecalls += 1
        self.platform.current_enclave = self
        try:
            result = getattr(self._library, name)(*args, **kwargs)
        finally:
            self.platform.current_enclave = None
        memory.charge(costs.eexit_cycles
                      + _marshal_cycles(costs, (result,)))
        return result

    def destroy(self) -> None:
        """EREMOVE all pages and refuse further entry.

        The enclave's EPC pages are genuinely dropped from the page
        cache, modelling teardown (or a crash that wipes the EPC): a
        successor enclave starts from a cold protected memory, and the
        slots are free for it to fault in.
        """
        self._require_alive()
        self._destroyed = True
        # Nothing may keep the dead instance's state reachable: the
        # library releases what it holds, and dropping the runtime
        # breaks the enclave <-> runtime cycle, so the trusted state
        # is freed here rather than at some later cyclic collection.
        library, self._library, self.runtime = self._library, None, None
        on_destroy = getattr(library, "on_destroy", None)
        if on_destroy is not None:
            on_destroy()
        self.platform.memory.eremove_range(self.arena.base,
                                           self.arena.allocated_bytes)
