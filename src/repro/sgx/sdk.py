"""SDK-style helpers: declaring trusted libraries and building proxies.

Intel's SDK generates, from an EDL file, untrusted *proxies* (that
marshal arguments and EENTER) and trusted *stubs*. The simulator's
equivalent: decorate entry points with :func:`ecall`, subclass
:class:`EnclaveLibrary`, and call :func:`load_enclave` to measure, sign
and initialize in one step. :func:`make_proxy` then gives the untrusted
host an object whose methods transparently perform ecalls.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Tuple, Type, TypeVar

from repro.crypto.rsa import RsaPrivateKey
from repro.errors import EnclaveError
from repro.sgx.enclave import Enclave, EnclaveBuilder, TrustedRuntime
from repro.sgx.platform import SgxPlatform

__all__ = ["ecall", "EnclaveLibrary", "load_enclave", "make_proxy"]

F = TypeVar("F", bound=Callable[..., Any])


def ecall(fn: F) -> F:
    """Mark a trusted-library method as an enclave entry point."""
    fn.__is_ecall__ = True
    return fn


class _EnclaveLibraryMeta(type):
    """Collects ``@ecall``-decorated methods into the ECALLS tuple."""

    def __new__(mcls, name, bases, namespace):
        cls = super().__new__(mcls, name, bases, namespace)
        names = []
        for base in reversed(cls.__mro__):
            for attr, value in vars(base).items():
                if getattr(value, "__is_ecall__", False) and attr not in names:
                    names.append(attr)
        cls.ECALLS = tuple(names)
        return cls


class EnclaveLibrary(metaclass=_EnclaveLibraryMeta):
    """Base class for trusted code loaded into an enclave.

    Subclasses receive the :class:`TrustedRuntime` as their first
    constructor argument and must not keep references to untrusted
    mutable state (the simulator cannot enforce this, but the tests
    check the declared surface).

    ``CODE_BYTES`` declares the loaded code size, which sizes the
    enclave (ECREATE, EADD) and its code-page faults at load; a
    subclass inherits it unless it declares its own.
    """

    CODE_BYTES = 4096

    def __init__(self, runtime: TrustedRuntime) -> None:
        self.runtime = runtime

    def on_destroy(self) -> None:
        """Called once by :meth:`Enclave.destroy`; release held state."""


def load_enclave(platform: SgxPlatform, library: Type[EnclaveLibrary],
                 signing_key: RsaPrivateKey, *library_args: Any,
                 **library_kwargs: Any) -> Enclave:
    """Measure, sign and EINIT an enclave in one step.

    Equivalent to running the SDK's signing tool at build time and the
    loader at run time; returns the initialized :class:`Enclave`.
    """
    builder = EnclaveBuilder(platform, library)
    sigstruct = builder.sign(signing_key)
    return builder.initialize(sigstruct, *library_args, **library_kwargs)


class _EcallProxy:
    """Untrusted-side proxy: attribute access returns bound ecalls."""

    def __init__(self, enclave: Enclave) -> None:
        self._enclave = enclave

    def __getattr__(self, name: str) -> Callable[..., Any]:
        if name.startswith("_"):
            raise AttributeError(name)

        def call(*args: Any, **kwargs: Any) -> Any:
            return self._enclave.ecall(name, *args, **kwargs)

        return call


def make_proxy(enclave: Enclave) -> _EcallProxy:
    """Build the untrusted proxy object for an initialized enclave."""
    return _EcallProxy(enclave)
