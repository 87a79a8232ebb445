"""Structured metrics registry: counters, gauges, histograms.

The routing fabric is designed to *degrade*, not fail: frames are
quarantined, deliveries retried, payloads dead-lettered. None of that
is acceptable in a production system unless it is observable, so every
component that can lose or delay a message accounts for it here.

Design constraints, in order:

* **Determinism** — metrics never read wall-clock time or global RNGs;
  histograms observe values the caller computed from simulator state,
  so a seeded run produces byte-identical snapshots.
* **Cheap hot path** — counters are plain integer adds; gauges may be
  callback-backed so the producer pays nothing until a snapshot is
  taken (used for EPC residency, which changes on every page touch).
* **Flat snapshots** — :meth:`MetricsRegistry.snapshot` returns one
  ``name -> number`` dict (labelled counters flatten to
  ``name{key=value}``, histograms to ``name.count``/``.sum``/...), so
  tests assert on it directly and the CLI renders it as a two-column
  table.

Registries are cheap and composable: the router, the bus and the
enclave engine can share one registry (names are get-or-create) or
keep their own and merge snapshots — the enclave keeps its own so that
trusted code never holds a reference to untrusted mutable state.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import MetricsError

__all__ = ["Counter", "BoundCounter", "Gauge", "Histogram",
           "MetricsRegistry", "aggregate_snapshots",
           "DEFAULT_BUCKETS", "TIME_BUCKETS_US", "TICK_BUCKETS"]

Number = Union[int, float]

#: Default histogram bucket upper bounds (values, not times — callers
#: observe whatever quantity they measure: fan-outs, attempts, bytes).
DEFAULT_BUCKETS: Tuple[float, ...] = (1, 2, 5, 10, 25, 50, 100, 250,
                                      1000)

#: Bucket bounds for simulated-microsecond latencies (recovery time,
#: end-to-end match latency): roughly log-spaced from sub-µs ecalls to
#: the multi-second restores of a large sealed index.
TIME_BUCKETS_US: Tuple[float, ...] = (
    10.0, 100.0, 1_000.0, 10_000.0, 100_000.0, 1_000_000.0,
    10_000_000.0)

#: Bucket bounds for tick-valued durations (pump rounds): outage
#: lengths, convergence times. Sized for the chaos harness, where a
#: partition typically spans tens of ticks and a soak a few thousand.
TICK_BUCKETS: Tuple[float, ...] = (4, 8, 16, 32, 64, 128, 256, 512,
                                   1024, 4096)


def _label_key(labels: Dict[str, object]) -> str:
    return ",".join(f"{k}={labels[k]}" for k in sorted(labels))


class BoundCounter:
    """A counter pre-bound to one exact label combination.

    ``counter.child(kind="PUB")`` resolves the label key *once*; the
    returned object's :meth:`inc` is two integer adds with no string
    formatting or dict construction — what hot paths (one increment
    per routed frame) should pay, versus ``inc(kind=...)`` which
    rebuilds the label key on every call.
    """

    __slots__ = ("_counter", "_key")

    def __init__(self, counter: "Counter", key: str) -> None:
        self._counter = counter
        self._key = key

    def inc(self, amount: int = 1) -> None:
        counter = self._counter
        counter._value += amount
        children = counter._children
        children[self._key] = children.get(self._key, 0) + amount

    @property
    def value(self) -> int:
        """Count attributed to this bound label combination."""
        return self._counter._children.get(self._key, 0)


class Counter:
    """Monotonically increasing count, optionally split by labels.

    ``inc(cause="poison-frame")`` accumulates both the total and a
    per-label-combination child, so one counter answers both "how many
    frames failed" and "failed *why*".
    """

    __slots__ = ("name", "description", "_value", "_children",
                 "_bound")

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self._value = 0
        self._children: Dict[str, int] = {}
        self._bound: Dict[str, BoundCounter] = {}

    def inc(self, amount: int = 1, **labels: object) -> None:
        """Add ``amount`` (default 1), attributing it to ``labels``."""
        if amount < 0:
            raise MetricsError(f"counter {self.name} cannot decrease")
        self._value += amount
        if labels:
            key = _label_key(labels)
            self._children[key] = self._children.get(key, 0) + amount

    def child(self, **labels: object) -> BoundCounter:
        """Pre-bound child for ``labels`` (cached per combination)."""
        if not labels:
            raise MetricsError(
                f"counter {self.name}: child() needs at least one label")
        key = _label_key(labels)
        bound = self._bound.get(key)
        if bound is None:
            bound = self._bound[key] = BoundCounter(self, key)
        return bound

    @property
    def value(self) -> int:
        """Total count across all label combinations."""
        return self._value

    def labelled(self, **labels: object) -> int:
        """Count attributed to one exact label combination."""
        return self._children.get(_label_key(labels), 0)

    def collect(self, into: Dict[str, Number]) -> None:
        """Write this counter's samples into a flat snapshot dict."""
        into[self.name] = self._value
        for key, count in sorted(self._children.items()):
            into[f"{self.name}{{{key}}}"] = count


class Gauge:
    """Point-in-time value: either explicitly set or callback-backed.

    Callback gauges let a producer expose live state (EPC resident
    pages, pending retry queue depth) with zero cost until the moment a
    snapshot is taken.
    """

    __slots__ = ("name", "description", "_value", "_fn")

    def __init__(self, name: str, description: str = "",
                 fn: Optional[Callable[[], Number]] = None) -> None:
        self.name = name
        self.description = description
        self._value: Number = 0
        self._fn = fn

    def set(self, value: Number) -> None:
        """Record the current value (explicit gauges only)."""
        if self._fn is not None:
            raise MetricsError(
                f"gauge {self.name} is callback-backed; cannot set()")
        self._value = value

    @property
    def value(self) -> Number:
        """Current value (callback gauges evaluate on read)."""
        if self._fn is not None:
            return self._fn()
        return self._value

    def freeze(self) -> None:
        """Keep the current reading and drop the callback.

        For the owner's teardown: a callback closes over the object it
        reads, and the registry may outlive that object — or form a
        reference cycle with it that only the cyclic collector breaks.
        """
        if self._fn is not None:
            self._value, self._fn = self._fn(), None

    def collect(self, into: Dict[str, Number]) -> None:
        """Write this gauge's sample into a flat snapshot dict."""
        into[self.name] = self.value


class Histogram:
    """Distribution summary over fixed, ascending bucket bounds.

    Tracks count/sum/min/max plus per-bucket counts (bucket ``b``
    counts observations ``<= b``; the implicit last bucket is +inf).
    """

    __slots__ = ("name", "description", "bounds", "bucket_counts",
                 "count", "total", "_min", "_max")

    def __init__(self, name: str, description: str = "",
                 bounds: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(bounds)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise MetricsError(
                f"histogram {name} bounds must be ascending and "
                f"non-empty")
        self.name = name
        self.description = description
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # last = +inf
        self.count = 0
        self.total = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    def observe(self, value: Number) -> None:
        """Record one observation."""
        self.count += 1
        self.total += value
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value
        # First bound >= value; past the last one, the +inf bucket.
        self.bucket_counts[bisect_left(self.bounds, value)] += 1

    @property
    def mean(self) -> float:
        """Arithmetic mean of the observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def collect(self, into: Dict[str, Number]) -> None:
        """Write summary samples into a flat snapshot dict."""
        into[f"{self.name}.count"] = self.count
        into[f"{self.name}.sum"] = self.total
        into[f"{self.name}.mean"] = round(self.mean, 6)
        into[f"{self.name}.min"] = self._min if self._min is not None \
            else 0
        into[f"{self.name}.max"] = self._max if self._max is not None \
            else 0


class MetricsRegistry:
    """Named metric store shared by the fabric's components.

    Accessors are get-or-create: asking twice for the same name returns
    the same object, so independently constructed components can share
    a registry without coordination. Asking for an existing name with a
    different metric type raises :class:`~repro.errors.MetricsError`.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}

    def _get_or_create(self, name: str, kind: type, factory):
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, kind):
                raise MetricsError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}")
            return existing
        metric = factory()
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, description: str = "") -> Counter:
        """Get or create the counter called ``name``."""
        return self._get_or_create(
            name, Counter, lambda: Counter(name, description))

    def gauge(self, name: str, description: str = "",
              fn: Optional[Callable[[], Number]] = None) -> Gauge:
        """Get or create a gauge; ``fn`` makes it callback-backed."""
        gauge = self._get_or_create(
            name, Gauge, lambda: Gauge(name, description, fn=fn))
        return gauge

    def histogram(self, name: str, description: str = "",
                  bounds: Sequence[float] = DEFAULT_BUCKETS
                  ) -> Histogram:
        """Get or create the histogram called ``name``."""
        return self._get_or_create(
            name, Histogram,
            lambda: Histogram(name, description, bounds=bounds))

    def get(self, name: str) -> object:
        """Look up a previously registered metric."""
        try:
            return self._metrics[name]
        except KeyError:
            raise MetricsError(f"no metric named {name!r}") from None

    def names(self) -> List[str]:
        """Registered metric names, sorted."""
        return sorted(self._metrics)

    def snapshot(self) -> Dict[str, Number]:
        """Flat ``name -> number`` view of every registered metric."""
        samples: Dict[str, Number] = {}
        for name in sorted(self._metrics):
            self._metrics[name].collect(samples)
        return samples


def aggregate_snapshots(snapshots) -> Dict[str, Number]:
    """Sum flat snapshots sample-wise into one overlay-wide view.

    Each broker node keeps its own registry (and its enclave another);
    fleet-level questions — total deliveries, total suppressed
    forwards, crashes survived — are answered by summing the per-node
    snapshots. Summing is only correct for counters, histogram
    ``count``/``sum`` samples and additive gauges; ``min``/``max`` and
    ``mean`` samples are recomputed where possible (min of mins, max of
    maxes, sum/count for means) rather than added.
    """
    total: Dict[str, Number] = {}
    mins: Dict[str, Number] = {}
    maxes: Dict[str, Number] = {}
    for snapshot in snapshots:
        for name, value in snapshot.items():
            if name.endswith(".min"):
                if name not in mins or value < mins[name]:
                    mins[name] = value
            elif name.endswith(".max"):
                if name not in maxes or value > maxes[name]:
                    maxes[name] = value
            elif not name.endswith(".mean"):
                total[name] = total.get(name, 0) + value
    total.update(mins)
    total.update(maxes)
    for name in list(total):
        if name.endswith(".count"):
            base = name[:-len(".count")]
            count = total[name]
            if count and f"{base}.sum" in total:
                total[f"{base}.mean"] = round(
                    total[f"{base}.sum"] / count, 6)
    return total
