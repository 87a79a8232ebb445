"""SCBR reproduction: Secure Content-Based Routing using Intel SGX.

Reproduction of Pires, Pasin, Felber, Fetzer — "Secure Content-Based
Routing Using Intel Software Guard Extensions", ACM Middleware 2016 —
as a Python library with a simulated SGX platform (no SGX silicon
required; see DESIGN.md for the substitution rationale).

Quickstart::

    from repro import (MessageBus, SgxPlatform, Router, ServiceProvider,
                       Publisher, Client)

    bus = MessageBus()
    platform = SgxPlatform()
    ...

See ``examples/quickstart.py`` for the full walk-through.
"""

from repro.core import (Client, DeadLetterQueue, GroupKeyManager,
                        ProviderKeyChain, Publisher, RetryPolicy,
                        Router, ScbrEnclaveLibrary, ServiceProvider)
from repro.ingress import (IngressConfig, IngressConnection,
                           IngressTier, TokenBucket)
from repro.matching import (ContainmentForest, Event, MatchingEngine, Op,
                            Predicate, Subscription)
from repro.network import FaultPlan, LinkFaults, MessageBus
from repro.obs import MetricsRegistry
from repro.recovery import (CheckpointManager, CheckpointStore,
                            CrashSchedule, RouterSupervisor,
                            WriteAheadLog)
from repro.sgx import (AttestationService, SgxPlatform, SKYLAKE_I7_6700,
                       scaled_spec)
from repro.workloads import build_dataset, workload_names

__version__ = "1.0.0"

__all__ = [
    "Client", "Publisher", "Router", "ServiceProvider",
    "ScbrEnclaveLibrary", "ProviderKeyChain", "GroupKeyManager",
    "Event", "Op", "Predicate", "Subscription", "ContainmentForest",
    "MatchingEngine",
    "MessageBus", "FaultPlan", "LinkFaults",
    "IngressTier", "IngressConfig", "IngressConnection", "TokenBucket",
    "MetricsRegistry", "RetryPolicy", "DeadLetterQueue",
    "WriteAheadLog", "CheckpointStore", "CheckpointManager",
    "CrashSchedule", "RouterSupervisor",
    "SgxPlatform", "AttestationService", "SKYLAKE_I7_6700", "scaled_spec",
    "build_dataset", "workload_names",
    "__version__",
]
