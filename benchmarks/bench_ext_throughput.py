"""Extension E4: sustainable publication rate, in vs out of enclave.

Feeds the per-publication service times measured by the platform model
into an M/G/1-style queueing simulation to answer the deployment
question the paper's latency numbers imply: how many publications per
second can one routing enclave sustain before p99 latency explodes —
and what does the SGX tax cost at the *system* level?
"""

import pytest

from conftest import emit
from repro.bench.experiments import FilterSweep
from repro.bench.queueing import simulate_queue, sustainable_rate
from repro.bench.report import format_table
from repro.workloads.datasets import build_dataset

N_SUBSCRIPTIONS = 2500
N_PUBLICATIONS = 30
LATENCY_BOUND_US = 2000.0


def _service_times(dataset):
    """Per-publication simulated service times at the target size, in
    and out of the enclave (one index, paid by both platforms)."""
    sweep = FilterSweep(dataset, ["out-aes", "in-aes"])
    sweep.measure_at(N_SUBSCRIPTIONS)
    native, enclave = zip(*(sweep.publish(index) for index
                            in range(len(sweep.publications))))
    return {"native": native, "in-enclave": enclave}


@pytest.mark.benchmark(group="extensions")
def test_ext_sustainable_throughput(benchmark):
    dataset = build_dataset("e100a1", N_SUBSCRIPTIONS, N_PUBLICATIONS)
    results = {}

    def run():
        for label, service in _service_times(dataset).items():
            mean_service = sum(service) / len(service)
            capacity = 1e6 / mean_service
            points = []
            for fraction in (0.3, 0.6, 0.8, 0.95):
                sim = simulate_queue(service, fraction * capacity,
                                     n_arrivals=8000)
                points.append((fraction, sim))
            limit = sustainable_rate(service, LATENCY_BOUND_US,
                                     n_arrivals=6000)
            results[label] = (mean_service, capacity, points, limit)

    benchmark.pedantic(run, rounds=1, iterations=1)

    table = []
    for label, (mean_service, capacity, points, limit) in \
            results.items():
        for fraction, sim in points:
            table.append([label, f"{fraction:.0%}",
                          round(sim.arrival_rate_per_s),
                          round(sim.mean_latency_us, 1),
                          round(sim.p99_latency_us, 1)])
        table.append([label, "p99<2ms", round(limit), "-", "-"])
    emit("ext_throughput", format_table(
        ["config", "load", "pubs/s", "mean us", "p99 us"],
        table, title=f"Extension E4 — sustainable rate at "
                     f"{N_SUBSCRIPTIONS} subscriptions (M/G/1 over "
                     f"simulated service times)"))

    native_limit = results["native"][3]
    enclave_limit = results["in-enclave"][3]
    # The enclave sustains less...
    assert enclave_limit < native_limit
    # ...but the loss mirrors the service-time ratio (no cliff): the
    # sustainable-rate ratio stays within ~25 % of the inverse
    # service-time ratio.
    service_ratio = results["in-enclave"][0] / results["native"][0]
    rate_ratio = native_limit / enclave_limit
    assert rate_ratio == pytest.approx(service_ratio, rel=0.40)
