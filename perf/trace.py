"""Per-layer tracing, installed from outside the program.

Nothing under ``src/`` knows about this module. :class:`Tracer`
replaces the layers' public callables with timing wrappers — methods
on their class; module-level functions in the namespace of the module
that *imported* them, because ``router.py``/``engine.py``/``tier.py``
bind them with ``from ... import`` — and puts the originals back on
:meth:`Tracer.uninstall`.

A trace is a list of nodes, each with the id of the node that caused
it (``parent``) and the chunk of work it belongs to (``chunk``):

* a **span** is one call, kept individually: ``start_ns``/``end_ns``.
  Calls at batch granularity or coarser are spans;
* an **aggregate** folds every per-frame or per-delivery call of one
  callable under one parent into ``count``/``total_ns`` — 58
  ``Endpoint.send`` calls per publication would otherwise make the
  trace cost more than the work it measures.

A node's *self time* is its duration minus the durations of its
children (:func:`self_times`); a layer's self time is the sum over its
nodes, so the layers partition the traced wall exactly.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from functools import update_wrapper
from time import perf_counter_ns
from typing import (Callable, Dict, Iterable, List, NamedTuple, Optional,
                    Tuple)

__all__ = ["Tracer", "PROBES", "LAYERS", "DRIVER", "layer_of",
           "self_times", "ledger"]

SPAN = "span"
AGG = "agg"


def _frame_bytes(args) -> int:
    return len(args[0])


def _second_arg_bytes(args) -> int:
    return len(args[1])


def _ctr_bytes(args) -> int:
    return len(args[2])


def _ctr_many_bytes(args) -> int:
    return sum(len(data) for _nonce, data in args[1])


def _compilations(args) -> int:
    return args[0].compilations


class Probe(NamedTuple):
    """One wrapped callable.

    ``weigh(args)`` is summed into the node's ``weight``: bytes
    processed, or — with ``delta`` — the growth of a counter on the
    callee across the call.
    """

    layer: str
    owner: str          # "module" or "module:Class"
    attribute: str
    kind: str
    weigh: Optional[Callable] = None
    delta: bool = False


_ROUTER = "repro.core.router"
_ENGINE = "repro.core.engine"
_FOREST = "repro.matching.poset:ContainmentForest"
_PLANE = "repro.matching.columnar:ColumnarMatchPlane"
_MEMORY = "repro.sgx.memory:MemorySubsystem"

PROBES: Tuple[Probe, ...] = (
    Probe("ingress", "repro.ingress.tier:IngressTier", "pump", SPAN),
    Probe("core.router", _ROUTER + ":Router", "handle_publish_batch",
          SPAN),
    Probe("core.router", _ROUTER + ":Router", "handle_publish", AGG),
    Probe("core.router", _ROUTER + ":Router", "ingest_frame", AGG),
    Probe("core.router", _ROUTER + ":Router", "pump", AGG),
    Probe("core.protocol", _ROUTER, "parse_publish", AGG, _frame_bytes),
    Probe("core.protocol", _ROUTER, "parse_register", AGG, _frame_bytes),
    Probe("core.protocol", _ROUTER, "parse_unregister", AGG,
          _frame_bytes),
    Probe("core.protocol", _ROUTER, "build_deliver", AGG, _frame_bytes),
    Probe("core.protocol", _ROUTER, "message_type", AGG),
    Probe("core.protocol", "repro.ingress.tier", "message_type", AGG),
    Probe("core.messages", "repro.core.messages:SecureChannel",
          "open_many", SPAN),
    Probe("core.messages", "repro.core.messages:SecureChannel", "open",
          AGG),
    Probe("core.messages", _ENGINE, "decode_header", AGG),
    Probe("core.messages", _ENGINE, "decode_subscription", AGG),
    Probe("crypto.cmac", "repro.crypto.cmac:AesCmac", "verify", AGG,
          _second_arg_bytes),
    Probe("crypto.ctr", "repro.crypto.ctr:AesCtr", "process_many", SPAN,
          _ctr_many_bytes),
    Probe("crypto.ctr", "repro.crypto.ctr:AesCtr", "process", AGG,
          _ctr_bytes),
    Probe("crypto.rsa", "repro.crypto.rsa:RsaPublicKey", "verify", AGG),
    # per frame on the unbatched path and per REG in the set-up
    Probe("sgx.enclave", "repro.sgx.enclave:Enclave", "ecall", AGG),
    Probe("core.engine", _ENGINE + ":ScbrEnclaveLibrary",
          "match_publications", SPAN),
    Probe("core.engine", _ENGINE + ":ScbrEnclaveLibrary",
          "match_publication", AGG),
    Probe("core.engine", _ENGINE + ":ScbrEnclaveLibrary",
          "register_subscription", AGG),
    Probe("core.engine", _ENGINE + ":ScbrEnclaveLibrary",
          "unregister_subscription", AGG),
    Probe("matching.poset", _FOREST, "match_traced", AGG),
    Probe("matching.poset", _FOREST, "insert", AGG),
    Probe("matching.poset", _FOREST, "remove_subscriber", AGG),
    Probe("matching.columnar", _PLANE, "match_batch_traced", SPAN),
    Probe("matching.columnar", _PLANE, "ensure_compiled", SPAN,
          _compilations, delta=True),
    Probe("sgx.memory", _MEMORY, "touch_many", AGG),
    Probe("sgx.memory", _MEMORY, "touch", AGG),
    Probe("sgx.memory", _MEMORY, "charge", AGG),
    Probe("network.bus", "repro.network.bus:Endpoint", "send", AGG),
    Probe("recovery.wal", "repro.recovery.wal:WriteAheadLog", "append",
          AGG),
)

#: The harness's own root spans; what the layers do not explain.
DRIVER = "driver"

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(p.layer for p in PROBES))


def layer_of(name: str) -> str:
    """The layer a node name ``<layer>:<Owner>.<callable>`` belongs to."""
    return name.partition(":")[0]


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class Tracer:
    """Installs the probes, collects nodes, restores the originals."""

    def __init__(self) -> None:
        #: node id -> [name, kind, a, b, parent, chunk, weight] where
        #: (a, b) is (start_ns, end_ns) of a span or (count, total_ns)
        #: of an aggregate.
        self.nodes: List[list] = []
        #: node names, ``<layer>:<Owner>.<callable>``; a node stores
        #: the index.
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.chunk = -1
        self._stack: List[int] = [-1]
        self._aggregates: Dict[Tuple[int, int], list] = {}
        self._patched: List[Tuple[object, str, object]] = []

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for probe in PROBES:
            owner = _resolve(probe.owner)
            original = vars(owner)[probe.attribute]
            owner_name = probe.owner.rpartition(":")[2].rpartition(".")[2]
            name = f"{probe.layer}:{owner_name}.{probe.attribute}"
            wrapper = self._wrap(original, self._name_id(name),
                                 probe.kind, probe.weigh, probe.delta)
            setattr(owner, probe.attribute, wrapper)
            self._patched.append((owner, probe.attribute, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    @contextmanager
    def installed(self):
        """The probes are in place inside the ``with`` block only."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, original, name_id: int, kind: str,
              weigh: Optional[Callable], delta: bool):
        nodes = self.nodes
        stack = self._stack
        aggregates = self._aggregates
        now = perf_counter_ns
        tracer = self

        if kind == SPAN:
            def wrapper(*args, **kwargs):
                node = [name_id, SPAN, 0, 0, stack[-1], tracer.chunk, 0]
                stack.append(len(nodes))
                nodes.append(node)
                before = weigh(args) if delta else 0
                node[2] = now()
                try:
                    return original(*args, **kwargs)
                finally:
                    node[3] = now()
                    stack.pop()
                    if weigh is not None:
                        node[6] = weigh(args) - before
        else:
            def wrapper(*args, **kwargs):
                parent = stack[-1]
                key = (parent, name_id)
                node = aggregates.get(key)
                if node is None:
                    node = aggregates[key] = [
                        name_id, AGG, 0, 0, parent, tracer.chunk, 0,
                        len(nodes)]
                    nodes.append(node)
                stack.append(node[7])
                start = now()
                try:
                    return original(*args, **kwargs)
                finally:
                    node[3] += now() - start
                    node[2] += 1
                    stack.pop()
                    if weigh is not None:
                        node[6] += weigh(args)

        # keeps ``__is_ecall__`` and the like on the wrapped methods
        return update_wrapper(wrapper, original)

    # -- the harness's own root spans -----------------------------------------

    def begin(self, name: str, chunk: int) -> None:
        """Open a root span of the harness around one chunk of work."""
        self.chunk = chunk
        node = [self._name_id(f"{DRIVER}:{name}"), SPAN, 0, 0, -1, chunk,
                0]
        self._stack.append(len(self.nodes))
        self.nodes.append(node)
        node[2] = perf_counter_ns()

    def end(self) -> None:
        end = perf_counter_ns()
        self.nodes[self._stack.pop()][3] = end

    # -- reading ------------------------------------------------------------------

    def export(self) -> List[dict]:
        """Nodes as dicts, the shape the trace file stores."""
        out = []
        for node_id, node in enumerate(self.nodes):
            record = {"id": node_id, "name": self.names[node[0]],
                      "parent": node[4], "chunk": node[5]}
            if node[1] == SPAN:
                record["start_ns"], record["end_ns"] = node[2], node[3]
            else:
                record["count"], record["total_ns"] = node[2], node[3]
            if node[6]:
                record["weight"] = node[6]
            out.append(record)
        return out


def _duration(node: dict) -> int:
    if "total_ns" in node:
        return node["total_ns"]
    return node["end_ns"] - node["start_ns"]


def self_times(nodes: Iterable[dict]) -> Dict[int, int]:
    """Self time (ns) per node id: duration minus its children's."""
    nodes = list(nodes)
    own = {node["id"]: _duration(node) for node in nodes}
    for node in nodes:
        if node["parent"] in own:
            own[node["parent"]] -= _duration(node)
    return own


def ledger(nodes: Iterable[dict], root_name: str
           ) -> Dict[str, Dict[str, int]]:
    """Per-callable calls / self_ns / total_ns / weight under some roots.

    Only nodes that descend from a root span named
    ``driver:<root_name>`` are counted, so the set-up trace and the
    publication replay stay separate ledgers. The ``total_ns`` of the
    ``driver:<root_name>`` row is the sum of those roots: the traced
    wall, which the ``self_ns`` column partitions exactly.
    """
    nodes = list(nodes)
    own = self_times(nodes)
    by_id = {node["id"]: node for node in nodes}
    wanted = f"{DRIVER}:{root_name}"
    in_scope: Dict[int, bool] = {}

    def scoped(node_id: int) -> bool:
        if node_id not in in_scope:
            node = by_id[node_id]
            if node["parent"] == -1:
                in_scope[node_id] = node["name"] == wanted
            else:
                in_scope[node_id] = scoped(node["parent"])
        return in_scope[node_id]

    rows: Dict[str, Dict[str, int]] = {}
    for node in nodes:
        if not scoped(node["id"]):
            continue
        row = rows.setdefault(node["name"], {"calls": 0, "self_ns": 0,
                                             "total_ns": 0, "weight": 0})
        row["calls"] += node.get("count", 1)
        row["self_ns"] += own[node["id"]]
        row["total_ns"] += _duration(node)
        row["weight"] += node.get("weight", 0)
    return rows
