"""The event budget of a tunnelled transfer, as an exact count.

Events fired per transmitted packet is what the event loop's share of a
run scales with.  A packet through the LB tier costs: its network
delivery to the router, the mux's 250 us forwarding hop, ONE event at the
instance (CPU completion + driver latency, scheduled together at
arrival), and the delivery of the translated packet.  The simulation is
deterministic, so the count below repeats exactly: it is a count, not a
timing, and the next change that adds an event per packet fails here with
the number in the message.
"""

from repro.experiments.harness import Testbed, TestbedConfig
from repro.http.client import BrowserClient

# one 100 KB fetch, seed 2016, counted from the fetch call to its result
PINNED_EVENTS_FIRED = 443
PINNED_TX_PACKETS = 262
MAX_EVENTS_PER_PACKET = 2.05


def test_events_per_transmitted_packet():
    bed = Testbed(TestbedConfig(
        seed=2016, lb="yoda", num_lb_instances=2, num_store_servers=3,
        num_backends=2, corpus="flat", flat_object_count=1,
        flat_object_bytes=100_000, client_jitter=0.0,
    ))
    tx_packets = bed.network.metrics.counter("tx_packets")
    bed.run(1.0)  # mappings pushed, first health-check rounds done
    results = []
    BrowserClient(bed.client_stacks[0], bed.loop, bed.target(),
                  http_timeout=30.0, retries=0).fetch("/obj/0.bin",
                                                      results.append)
    tx_before = tx_packets.value
    fired = 0
    while not results:
        fired += bed.loop.run_for(0.01)
    tx = tx_packets.value - tx_before
    assert results[0].ok and len(results[0].response.body) == 100_000
    assert tx == PINNED_TX_PACKETS, f"{tx} packets transmitted"
    ratio = fired / tx
    assert ratio <= MAX_EVENTS_PER_PACKET, (
        f"{fired} events fired for {tx} transmitted packets = {ratio:.3f} "
        f"per packet (budget {MAX_EVENTS_PER_PACKET})")
    assert fired == PINNED_EVENTS_FIRED, (
        f"{fired} events fired for {tx} transmitted packets; pinned "
        f"{PINNED_EVENTS_FIRED} ({fired - PINNED_EVENTS_FIRED:+d})")
