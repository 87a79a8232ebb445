"""Experiment runners: one function per paper figure/table.

These functions contain the measurement logic; the ``benchmarks/``
modules wrap them in pytest-benchmark targets and print the paper-style
rows. Every runner reports *simulated* microseconds from the platform
cost model (DESIGN.md §2 explains why absolute wall-clock of a Python
matcher cannot reproduce enclave behaviour) alongside the model's
counter read-outs (LLC miss rate, page faults).

Scaling: the default sweeps are sized for a Python matcher. The
geometry (LLC/EPC sizes) is shrunk via ``scaled_spec`` so the paper's
knees — index outgrowing the cache, working set outgrowing the EPC —
appear inside the sweep range, as documented per experiment in
EXPERIMENTS.md. Setting the environment variable ``SCBR_BENCH_FULL=1``
enlarges sweeps (slower, closer to the paper's absolute sizes).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.aspe.matcher import AspeMatcher
from repro.aspe.prefilter import PrefilteredAspeMatcher, event_bloom
from repro.aspe.scheme import AspeScheme
from repro.core.messages import (SecureChannel, decode_header,
                                 encode_header)
from repro.matching.matcher import MatchingEngine
from repro.matching.naive import NaiveMatcher
from repro.matching.poset import ContainmentForest
from repro.matching.subscriptions import Subscription
from repro.sgx.cpu import PlatformSpec, scaled_spec
from repro.sgx.memory import MemorySubsystem, TraceArena
from repro.sgx.platform import SgxPlatform
from repro.workloads.datasets import Dataset, build_dataset

__all__ = [
    "full_mode", "default_subscription_sizes", "CONFIGURATIONS",
    "FilterMeasurement",
    "FilterSweep", "AspeSweep", "bench_spec",
    "measure_filter", "measure_aspe", "run_fig5", "run_fig6", "run_fig7",
    "run_fig8", "run_containment_ablation", "run_prefilter_ablation",
    "ColumnarPoint", "run_columnar_ablation",
    "RegistrationPoint", "RecoveryPoint", "run_recovery_latency",
]

#: LLC used by the scaled-down sweeps. The paper's knee sits where the
#: matcher's hot working set reaches ~half the 8 MB cache (~10 k
#: subscriptions, §6); with our evaluation-proportional touch model the
#: equivalent knee for a 256 KiB LLC lands at ~2 k subscriptions —
#: inside the default sweep.
BENCH_LLC_BYTES = 256 * 1024
#: EPC (usable) for the paging experiment, scaled from the paper's
#: ~90 MB so the cliff appears within a Python-sized registration run.
BENCH_EPC_BYTES = 6 * 1024 * 1024
BENCH_EPC_RESERVED = 2 * 1024 * 1024


def full_mode() -> bool:
    """Larger sweeps when SCBR_BENCH_FULL=1."""
    return os.environ.get("SCBR_BENCH_FULL", "") == "1"


def default_subscription_sizes() -> List[int]:
    """The sweep of registered-subscription counts (paper: 1k..100k)."""
    if full_mode():
        return [1000, 2500, 5000, 10000, 25000, 50000, 100000]
    return [250, 500, 1000, 2500, 5000, 10000]


def bench_spec(epc: bool = False) -> PlatformSpec:
    """The scaled platform geometry used by the sweeps."""
    if epc:
        return scaled_spec(llc_bytes=BENCH_LLC_BYTES,
                           epc_bytes=BENCH_EPC_BYTES,
                           epc_reserved_bytes=BENCH_EPC_RESERVED)
    return scaled_spec(llc_bytes=BENCH_LLC_BYTES)


# -- the SCBR filter in the paper's configurations -------------------------------

#: The four configurations of one matcher (§4), in Fig. 5's order:
#: outside / inside an enclave x plaintext / AES-encrypted headers.
CONFIGURATIONS = ("out-plain", "out-aes", "in-plain", "in-aes")


@dataclass
class FilterMeasurement:
    """One (workload, size, configuration) data point."""

    workload: str
    n_subscriptions: int
    configuration: str              # "in"/"out" x "aes"/"plain" / "aspe"
    mean_us: float                  # simulated matching time per pub
    wall_us: float                  # real wall-clock per pub (Python),
    #                                 of the sweep's whole measured pass
    llc_miss_rate: float
    epc_faults: int
    index_bytes: int
    nodes_visited: float = 0.0


class FilterSweep:
    """Incremental sweep of one index in several configurations (§4).

    The database is filled progressively (1 k, 2.5 k, ... as in Fig. 5)
    and a publication batch is matched at each size by the same
    :class:`MatchingEngine` the routing enclave runs. Registration is
    excluded from the measurement and — for speed — untraced. The index
    is built once, over a :class:`~repro.sgx.memory.TraceArena`; each
    of ``configurations`` (labels from :data:`CONFIGURATIONS`) is a
    charge target of its own — an arena in the enclave or the
    untrusted space of a platform of its own — that pays the recorded
    walks through its own cache, EPC and MEE models. A publication is
    walked once per kind of event the configurations match: the
    plaintext event, or the header an ``-aes`` configuration decrypts
    and decodes from the wire. Each configuration pays, in order:
    EENTER, AES, the walk's touches and compute, EEXIT.
    """

    def __init__(self, dataset: Dataset, configurations: Sequence[str],
                 spec: Optional[PlatformSpec] = None,
                 n_publications: Optional[int] = None) -> None:
        unknown = set(configurations) - set(CONFIGURATIONS)
        if unknown:
            raise ValueError(f"unknown configurations {sorted(unknown)}")
        self.dataset = dataset
        self.spec = spec if spec is not None else bench_spec()
        self.configurations = list(configurations)
        self.targets = [MemorySubsystem(self.spec).new_arena(
            enclave=label.startswith("in-"))
            for label in self.configurations]
        self.arena = TraceArena(self.spec)
        self.engine = MatchingEngine(arena=self.arena,
                                     trace_inserts=False)
        self._registered = 0
        publications = dataset.publications
        if n_publications is not None:
            publications = publications[:n_publications]
        self.publications = publications
        #: per configuration, whether it walks the decoded header
        self._decodes = [label.endswith("-aes")
                         for label in self.configurations]
        #: nodes visited so far by the walks of each kind of event
        self._visited = dict.fromkeys(self._decodes, 0)
        self._channel = SecureChannel(b"K" * 16)
        #: The sweep's header-name memo, as the enclave keeps its own.
        self._names: Dict[bytes, str] = {}
        self._wire = [self._channel.protect(encode_header(event))
                      for event in publications]

    def _walk(self, index: int) -> Dict[bool, List[object]]:
        """Publication ``index`` walked once per kind of event; the
        trace each walk recorded."""
        traces = {}
        for decoded in self._visited:
            event = self.publications[index]
            if decoded:
                plaintext, _aad = self._channel.open(self._wire[index])
                event = decode_header(plaintext, names=self._names)
            self._visited[decoded] += self.engine.match(event).nodes_visited
            traces[decoded] = self.arena.take()
        return traces

    def publish(self, index: int) -> List[float]:
        """Charge publication ``index`` to every configuration as its
        routing path pays for it; returns each one's simulated µs."""
        costs = self.spec.costs
        traces = self._walk(index)
        spent = []
        for target, decoded in zip(self.targets, self._decodes):
            memory = target.memory
            start = memory.cycles
            if target.enclave:
                memory.charge(costs.eenter_cycles)
            if decoded:
                blocks = (len(self._wire[index]) + 15) // 16
                memory.charge(costs.aes_setup_cycles
                              + blocks * costs.aes_block_cycles)
            self.arena.replay(traces[decoded], target)
            if target.enclave:
                memory.charge(costs.eexit_cycles)
            spent.append(self.spec.cycles_to_us(memory.cycles - start))
        return spent

    def measure_at(self, n_subscriptions: int) -> List[FilterMeasurement]:
        """Grow the index to ``n_subscriptions`` and measure matching:
        one measurement per configuration, in the sweep's order."""
        if n_subscriptions < self._registered:
            raise ValueError("sweep sizes must be non-decreasing")
        for index in range(self._registered, n_subscriptions):
            self.engine.register(self.dataset.subscriptions[index],
                                 index)
        self._registered = n_subscriptions
        n = len(self.publications)
        # Warm-up pass: the paper averages 1 000 publications, which
        # amortises compulsory misses to nothing; with our smaller
        # batches we measure the steady state explicitly. It also
        # faults in the pages the walks read, which the untraced
        # registration never touched.
        for index in range(n):
            traces = self._walk(index)
            for target, decoded in zip(self.targets, self._decodes):
                self.arena.replay(traces[decoded], target)
        starts = []
        for target in self.targets:
            target.memory.cache.reset_counters()
            target.memory.epc.reset_counters()
            starts.append(target.memory.cycles)
        self._visited = dict.fromkeys(self._visited, 0)
        wall_start = time.perf_counter()
        for index in range(n):
            self.publish(index)
        wall_us = (time.perf_counter() - wall_start) / n * 1e6
        return [FilterMeasurement(
            workload=self.dataset.name,
            n_subscriptions=n_subscriptions,
            configuration=label,
            mean_us=self.spec.cycles_to_us(
                target.memory.cycles - start) / n,
            wall_us=wall_us,
            llc_miss_rate=target.memory.cache.miss_rate,
            epc_faults=target.memory.epc.faults,
            index_bytes=self.engine.index_bytes,
            nodes_visited=self._visited[decoded] / n,
        ) for label, target, decoded, start in zip(
            self.configurations, self.targets, self._decodes, starts)]


def measure_filter(dataset: Dataset, n_subscriptions: int,
                   configuration: str,
                   spec: Optional[PlatformSpec] = None,
                   n_publications: Optional[int] = None
                   ) -> FilterMeasurement:
    """One-shot measurement in one of :data:`CONFIGURATIONS`."""
    sweep = FilterSweep(dataset, [configuration], spec, n_publications)
    return sweep.measure_at(n_subscriptions)[0]


class AspeSweep:
    """Incremental ASPE baseline sweep (matching step only, as in §4)."""

    def __init__(self, dataset: Dataset,
                 spec: Optional[PlatformSpec] = None,
                 n_publications: Optional[int] = None,
                 prefilter: bool = False, rng_seed: int = 7) -> None:
        self.dataset = dataset
        self.spec = spec if spec is not None else bench_spec()
        self.platform = SgxPlatform(spec=self.spec)
        self.prefilter = prefilter
        rng = np.random.default_rng(rng_seed)
        self.scheme = AspeScheme(dataset.aspe_schema(), rng,
                                 fill_missing=True)
        if prefilter:
            self.matcher = PrefilteredAspeMatcher(
                self.scheme.cipher_dimension, self.platform)
        else:
            self.matcher = AspeMatcher(self.scheme.cipher_dimension,
                                       self.platform)
        self._registered = 0
        publications = dataset.publications
        if n_publications is not None:
            publications = publications[:n_publications]
        self.points = [self.scheme.encrypt_event(event)
                       for event in publications]
        self.blooms = [event_bloom(self.scheme, event)
                       for event in publications] if prefilter else None

    def measure_at(self, n_subscriptions: int) -> FilterMeasurement:
        if n_subscriptions < self._registered:
            raise ValueError("sweep sizes must be non-decreasing")
        for index in range(self._registered, n_subscriptions):
            self.matcher.register(
                self.scheme.encrypt_subscription(
                    self.dataset.subscriptions[index]), index)
        self._registered = n_subscriptions

        memory = self.platform.memory
        start_cycles = memory.cycles
        wall_start = time.perf_counter()
        for index, point in enumerate(self.points):
            if self.prefilter:
                self.matcher.match(point, self.blooms[index])
            else:
                self.matcher.match(point)
        wall_elapsed = time.perf_counter() - wall_start
        n = len(self.points)
        return FilterMeasurement(
            workload=self.dataset.name,
            n_subscriptions=n_subscriptions,
            configuration=("out-aspe-bloom" if self.prefilter
                           else "out-aspe"),
            mean_us=self.spec.cycles_to_us(
                memory.cycles - start_cycles) / n,
            wall_us=wall_elapsed / n * 1e6,
            llc_miss_rate=0.0,
            epc_faults=0,
            index_bytes=getattr(self.matcher, "index_bytes", 0),
        )


def measure_aspe(dataset: Dataset, n_subscriptions: int,
                 spec: Optional[PlatformSpec] = None,
                 n_publications: Optional[int] = None,
                 prefilter: bool = False,
                 rng_seed: int = 7) -> FilterMeasurement:
    """One-shot ASPE baseline measurement."""
    sweep = AspeSweep(dataset, spec, n_publications, prefilter, rng_seed)
    return sweep.measure_at(n_subscriptions)


# -- Figure 5: encryption and enclave overhead (e100a1) --------------------------------

def run_fig5(sizes: Optional[Sequence[int]] = None,
             n_publications: int = 40,
             workload: str = "e100a1") -> List[FilterMeasurement]:
    """In/out x AES/plain sweep over the subscription-count axis.

    One index, measured in all four configurations at every size; the
    rows come curve by curve, in :data:`CONFIGURATIONS` order.
    """
    sizes = list(sizes) if sizes is not None \
        else default_subscription_sizes()
    dataset = build_dataset(workload, max(sizes), n_publications)
    sweep = FilterSweep(dataset, CONFIGURATIONS)
    by_size = [sweep.measure_at(size) for size in sorted(sizes)]
    return [row for curve in zip(*by_size) for row in curve]


# -- Figure 6: workload comparison, plaintext outside ------------------------------------

def run_fig6(sizes: Optional[Sequence[int]] = None,
             n_publications: int = 40,
             workloads: Optional[Sequence[str]] = None
             ) -> List[FilterMeasurement]:
    """All nine workloads, no encryption, outside enclaves."""
    from repro.workloads.spec import workload_names
    sizes = list(sizes) if sizes is not None \
        else default_subscription_sizes()
    workloads = list(workloads) if workloads is not None \
        else list(workload_names())
    results = []
    for name in workloads:
        dataset = build_dataset(name, max(sizes), n_publications)
        sweep = FilterSweep(dataset, ["out-plain"])
        for size in sorted(sizes):
            results += sweep.measure_at(size)
    return results


# -- Figure 7: SCBR vs ASPE per workload ---------------------------------------------------

def run_fig7(sizes: Optional[Sequence[int]] = None,
             n_publications: int = 20,
             workloads: Optional[Sequence[str]] = None
             ) -> List[FilterMeasurement]:
    """Out-ASPE vs In-AES vs Out-AES (+ cache-miss rate) per workload.

    In-AES and Out-AES share one index per workload; the ASPE baseline
    keeps its own encrypted store.
    """
    from repro.workloads.spec import workload_names
    sizes = list(sizes) if sizes is not None \
        else default_subscription_sizes()
    workloads = list(workloads) if workloads is not None \
        else list(workload_names())
    results = []
    for name in workloads:
        dataset = build_dataset(name, max(sizes), n_publications)
        sweep = FilterSweep(dataset, ["in-aes", "out-aes"])
        aspe_sweep = AspeSweep(dataset)
        for size in sorted(sizes):
            results.append(aspe_sweep.measure_at(size))
            results += sweep.measure_at(size)
    return results


# -- Figure 8: exceeding the EPC ---------------------------------------------------------------

@dataclass
class RegistrationPoint:
    """One bin of the Fig. 8 registration sweep."""

    db_bytes: int
    time_ratio_in_out: float
    fault_ratio_in_out: float
    in_us_per_registration: float
    out_us_per_registration: float
    in_faults: int
    out_faults: int


def run_fig8(n_subscriptions: Optional[int] = None,
             bin_count: int = 24,
             workload: str = "e80a1",
             spec: Optional[PlatformSpec] = None
             ) -> List[RegistrationPoint]:
    """Populate one store, paid in and out of an enclave; ratio vs DB size.

    One insert stream is traced (:class:`~repro.sgx.memory.TraceArena`)
    and each insert's trace is paid twice, by an enclave arena and an
    untrusted arena on two platforms of ``spec``. By default that is the
    EPC-scaled spec: the usable EPC is ``BENCH_EPC_BYTES -
    BENCH_EPC_RESERVED``; the paging cliff appears once the index
    outgrows it (paper: >90 MB; here scaled down).
    """
    if n_subscriptions is None:
        n_subscriptions = 60000 if full_mode() else 25000
    if spec is None:
        spec = bench_spec(epc=True)
    dataset = build_dataset(workload, n_subscriptions, 1)
    recorder = TraceArena(spec)
    forest = ContainmentForest(arena=recorder)
    targets = [MemorySubsystem(spec).new_arena(enclave=enclave)
               for enclave in (True, False)]
    # per insert: index bytes, then µs and faults in, µs and faults out
    samples: List[List[float]] = []
    for index, subscription in enumerate(dataset.subscriptions):
        forest.insert(subscription, index)
        trace = recorder.take()
        sample = [forest.index_bytes]
        for arena in targets:
            before = arena.memory.snapshot()
            recorder.replay(trace, arena)
            spent = arena.memory.snapshot().delta(before)
            sample += (spec.cycles_to_us(spent.cycles),
                       spent.epc_faults if arena.enclave
                       else spent.minor_faults)
        samples.append(sample)

    # Bin by database size; each Fig. 8 point averages a window.
    max_bytes = samples[-1][0]
    points: List[RegistrationPoint] = []
    lo = 0
    for edge_index in range(bin_count):
        edge = max_bytes * (edge_index + 1) / bin_count
        window = [sample for sample in samples if lo < sample[0] <= edge]
        lo = edge
        if not window:
            continue
        _bytes, in_us, in_faults, out_us, out_faults = map(sum,
                                                           zip(*window))
        in_us /= len(window)
        out_us /= len(window)
        points.append(RegistrationPoint(
            db_bytes=int(edge),
            time_ratio_in_out=in_us / out_us if out_us else 0.0,
            fault_ratio_in_out=(in_faults / out_faults
                                if out_faults else float(in_faults)),
            in_us_per_registration=in_us,
            out_us_per_registration=out_us,
            in_faults=in_faults,
            out_faults=out_faults,
        ))
    return points


# -- Ablations ------------------------------------------------------------------------------------

def run_containment_ablation(sizes: Optional[Sequence[int]] = None,
                             n_publications: int = 20,
                             workload: str = "e80a1"
                             ) -> List[Tuple[int, float, float]]:
    """Containment forest vs naive linear scan (simulated µs/match)."""
    sizes = list(sizes) if sizes is not None \
        else default_subscription_sizes()
    dataset = build_dataset(workload, max(sizes), n_publications)
    spec = bench_spec()
    rows = []
    sweep = FilterSweep(dataset, ["out-plain"])
    platform = SgxPlatform(spec=spec)
    arena = platform.memory.new_arena(enclave=False)
    naive = NaiveMatcher(arena=arena)
    registered = 0
    for size in sorted(sizes):
        poset_us = sweep.measure_at(size)[0].mean_us
        for index in range(registered, size):
            naive.insert(dataset.subscriptions[index], index)
        registered = size
        memory = platform.memory
        costs = spec.costs
        start = memory.cycles
        for event in dataset.publications:
            _m, visited, evaluated = naive.match_traced(event)
            memory.charge(visited * costs.node_visit_cycles
                          + evaluated * costs.predicate_eval_cycles)
        naive_us = spec.cycles_to_us(memory.cycles - start) \
            / len(dataset.publications)
        rows.append((size, poset_us, naive_us))
    return rows


def run_prefilter_ablation(sizes: Optional[Sequence[int]] = None,
                           n_publications: int = 10,
                           workload: str = "e100a1"
                           ) -> List[Tuple[int, float, float]]:
    """ASPE with vs without the Bloom pre-filter (simulated µs/match)."""
    sizes = list(sizes) if sizes is not None \
        else default_subscription_sizes()[:4]
    dataset = build_dataset(workload, max(sizes), n_publications)
    rows = []
    plain_sweep = AspeSweep(dataset, prefilter=False)
    bloom_sweep = AspeSweep(dataset, prefilter=True)
    for size in sorted(sizes):
        plain = plain_sweep.measure_at(size).mean_us
        bloom = bloom_sweep.measure_at(size).mean_us
        rows.append((size, plain, bloom))
    return rows


# -- Crash recovery -------------------------------------------------------------------------------

@dataclass
class RecoveryPoint:
    """One point of the recovery-latency sweep."""

    n_subscriptions: int
    #: registrations sealed into the restored checkpoint
    checkpointed: int
    #: registrations replayed from the WAL suffix
    wal_replayed: int
    #: sealed checkpoint blob size (drives restore cost)
    checkpoint_bytes: int
    #: simulated µs for the whole protocol: restart + re-attestation +
    #: re-provisioning + restore + replay
    recovery_us: float


def run_recovery_latency(sizes: Optional[Sequence[int]] = None,
                         replay_fraction: float = 0.25,
                         ) -> List[RecoveryPoint]:
    """Crash-recovery latency vs registered-subscription count.

    For each size, a supervised router is populated, a checkpoint is
    sealed covering all but ``replay_fraction`` of the registrations
    (the rest stay in the WAL, modelling a crash mid-cadence), the
    enclave is killed and the full recovery protocol is timed in
    simulated microseconds. The sweep shows the two recovery cost
    components the operator can trade against each other: restore cost
    grows with the sealed index, replay cost with the checkpoint
    interval.
    """
    from repro.core.engine import ScbrEnclaveLibrary
    from repro.core.messages import encode_subscription, hybrid_encrypt
    from repro.core.protocol import build_subscription_request
    from repro.core.provider import ServiceProvider
    from repro.core.router import Router
    from repro.crypto.rsa import _generate_keypair_unchecked
    from repro.network.bus import MessageBus
    from repro.recovery import RouterSupervisor
    from repro.sgx.attestation import AttestationService
    from repro.sgx.enclave import EnclaveBuilder

    if sizes is None:
        sizes = [100, 250, 500, 1000] if full_mode() \
            else [25, 50, 100, 200]
    vendor = _generate_keypair_unchecked(768, 65537)

    points: List[RecoveryPoint] = []
    for size in sorted(sizes):
        bus = MessageBus()
        platform = SgxPlatform(attestation_key_bits=768)
        ias = AttestationService(signing_key_bits=768)
        ias.register_platform(platform)
        expected = EnclaveBuilder(platform,
                                  ScbrEnclaveLibrary).measure()
        router = Router(bus, platform, vendor, rsa_bits=768)
        provider = ServiceProvider(bus, rsa_bits=768,
                                   attestation_service=ias,
                                   expected_mr_enclave=expected)
        provider.provision_router(router)
        supervisor = RouterSupervisor(router, provider.provision_router,
                                      checkpoint_interval=max(size, 1))

        def register(index: int) -> None:
            client = f"sub-{index}"
            provider.admit_client(client)
            blob = encode_subscription(Subscription.parse(
                {"symbol": f"S{index % 17}",
                 "price": ("<", float(index + 1))}))
            provider.endpoint.send("provider", [
                build_subscription_request(
                    client, hybrid_encrypt(provider.keys.public_key,
                                           blob, aad=client.encode()))])

        checkpointed = size - int(size * replay_fraction)
        for index in range(checkpointed):
            register(index)
        provider.pump("router")
        supervisor.pump()
        checkpoint = supervisor.checkpoints.checkpoint()
        for index in range(checkpointed, size):
            register(index)
        provider.pump("router")
        supervisor.pump()

        router.enclave.destroy()
        before_us = platform.simulated_us()
        replayed = supervisor.recover()
        points.append(RecoveryPoint(
            n_subscriptions=size,
            checkpointed=checkpointed,
            wal_replayed=replayed,
            checkpoint_bytes=len(checkpoint.sealed_bytes),
            recovery_us=platform.simulated_us() - before_us,
        ))
    return points


# -- Columnar crossover ablation ------------------------------------------------------------------

@dataclass
class ColumnarPoint:
    """One cell of the columnar crossover sweep (wall-clock)."""
    workload: str
    n_subscriptions: int
    forest_events_per_s: float
    #: batch size -> events/s through the columnar plane
    columnar_events_per_s: Dict[int, float] = field(default_factory=dict)

    def ratio(self, batch: int) -> float:
        if not self.forest_events_per_s:
            return 0.0
        return self.columnar_events_per_s.get(batch, 0.0) \
            / self.forest_events_per_s

    def crossover_batch(self) -> Optional[int]:
        """Smallest batch size at which the columnar plane wins."""
        for batch in sorted(self.columnar_events_per_s):
            if self.ratio(batch) >= 1.0:
                return batch
        return None


def run_columnar_ablation(sizes: Optional[Sequence[int]] = None,
                          workloads: Sequence[str] = ("e80a1", "e80a4"),
                          batch_sizes: Sequence[int] = (1, 8, 64),
                          n_events: int = 150
                          ) -> List[ColumnarPoint]:
    """Columnar batch plane vs per-event forest walk (wall-clock).

    Unlike the other runners this one reports *wall-clock* events/s:
    the columnar plane is a Python-level optimisation — it does not
    change the simulated cost model's verdict (the same constraints
    are still evaluated), it changes how much interpreter work each
    evaluation costs. The sweep varies registered subscriptions,
    per-subscription attribute count (via the workload's
    ``attribute_multiplier``) and the batch size fed to
    :meth:`~repro.matching.columnar.ColumnarMatchPlane.match_batch`,
    exposing where the compile+pass overhead amortises away
    (batch-of-1 keeps the plane honest at its weakest).
    """
    from repro.matching.columnar import ColumnarMatchPlane

    sizes = list(sizes) if sizes is not None else (
        [500, 2000, 10000] if full_mode() else [100, 400, 1600])
    points: List[ColumnarPoint] = []
    for workload in workloads:
        dataset = build_dataset(workload, max(sizes), n_events)
        events = list(dataset.publications)
        while len(events) < n_events:
            events.extend(
                dataset.publications[:n_events - len(events)])
        events = events[:n_events]
        forest = ContainmentForest()
        plane = ColumnarMatchPlane(forest)
        registered = 0
        for size in sorted(sizes):
            for index in range(registered, size):
                forest.insert(dataset.subscriptions[index], index)
            registered = size
            for event in events[:10]:  # warm-up
                forest.match(event)
            start = time.perf_counter()
            for event in events:
                forest.match(event)
            elapsed = time.perf_counter() - start
            point = ColumnarPoint(
                workload=workload, n_subscriptions=size,
                forest_events_per_s=round(n_events / elapsed, 1)
                if elapsed > 0 else 0.0)
            for batch in batch_sizes:
                plane.ensure_compiled()  # compile outside the timing
                chunks = [events[i:i + batch]
                          for i in range(0, n_events, batch)]
                plane.match_batch(chunks[0])  # warm-up
                start = time.perf_counter()
                for chunk in chunks:
                    plane.match_batch(chunk)
                elapsed = time.perf_counter() - start
                point.columnar_events_per_s[batch] = round(
                    n_events / elapsed, 1) if elapsed > 0 else 0.0
            points.append(point)
    return points
