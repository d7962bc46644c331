#!/usr/bin/env python3
"""SSL termination that survives a crash mid-certificate (Section 5.2).

YODA instances hold the tenant's certificate, serve the TLS handshake,
and decrypt request headers to run rule matching.  The paper's failure
story: if the serving instance dies *while the certificate is still in
flight*, "another YODA instance resends the entire certificate (TCP
buffer at the client will remove duplicate packets)".

This example does exactly that, then prints a deployment snapshot.

Run:  python examples/tls_termination.py
"""

from repro.core.inspect import snapshot
from repro.core.policy import VipPolicy, weighted_split
from repro.core.service import YodaService, YodaServiceConfig
from repro.http.client import HttpsFetcher
from repro.http.message import HttpRequest
from repro.http.server import BackendHttpServer, StaticSite
from repro.http.tls import Certificate
from repro.net.addresses import Endpoint
from repro.net.host import Host
from repro.net.links import FixedLatency
from repro.net.network import Network
from repro.sim.events import EventLoop
from repro.sim.random import SeededRng
from repro.tcp.endpoint import TcpStack

VIP = "100.0.0.1"


def main() -> None:
    loop = EventLoop()
    rng = SeededRng(55)
    network = Network(loop, rng)
    network.set_symmetric_latency("internet", "dc", FixedLatency(0.030))
    yoda = YodaService(loop, network, rng,
                       YodaServiceConfig(num_instances=3, num_store_servers=2))

    cert = Certificate("shop.example", size=3_000)
    site = StaticSite({"/checkout": 60_000})
    backends = {}
    for i in range(2):
        host = network.attach(Host(f"srv-{i}", [f"10.3.0.{i + 1}"], site="dc"))
        backends[f"srv-{i}"] = BackendHttpServer(
            host, loop, site, tls_certificate=cert
        )
    policy = VipPolicy(
        vip=VIP,
        backends={n: Endpoint(b.ip, 80) for n, b in backends.items()},
        rules=[weighted_split("all", "*", {n: 1.0 for n in backends})],
        certificate=cert,
    )
    yoda.add_service(policy, backends)
    loop.run_for(1.0)

    client_host = network.attach(Host("client", ["172.16.0.1"], site="internet"))
    stack = TcpStack(client_host, loop)
    results = []
    HttpsFetcher(
        stack, loop, Endpoint(VIP, 80),
        HttpRequest("GET", "/checkout", host="shop.example"),
        results.append, sni="shop.example",
    ).start()

    def kill_mid_certificate() -> None:
        for instance in yoda.instances:
            for flow in instance.flows.values():
                handshake = flow.tls
                if (handshake and handshake.hello_done
                        and handshake.resp_acked < len(handshake.resp_out)):
                    print(f"t={loop.now():.3f}s  KILLING {instance.name} "
                          f"(certificate {handshake.resp_acked}/"
                          f"{len(handshake.resp_out)} bytes acknowledged)")
                    instance.fail()
                    return
        if loop.now() < 1.4:
            loop.call_later(0.001, kill_mid_certificate)

    loop.call_at(1.05, kill_mid_certificate)
    loop.run_for(30.0)

    result = results[0]
    print(f"HTTPS fetch: ok={result.ok}, "
          f"bytes={len(result.response.body):,}, "
          f"latency={result.latency:.2f}s, retries={result.retries_used}")
    print()
    print(snapshot(yoda).render())
    assert result.ok and result.retries_used == 0


if __name__ == "__main__":
    main()
