"""YodaService wiring, config validation and surface, cost models, errors."""

import dataclasses

import pytest

from repro.autoscale import ElasticPolicy
from repro.chaos.library import get_scenario
from repro.chaos.scenario import Scenario, ScenarioEngine
from repro.core import ControllerHAConfig, RegionConfig
from repro.core.instance import YodaCostModel
from repro.core.service import YodaService, YodaServiceConfig
from repro.errors import (
    AddressError,
    AssignmentError,
    ConfigError,
    ControllerError,
    HttpError,
    HttpParseError,
    InfeasibleError,
    KvStoreError,
    NetworkError,
    PolicyError,
    ReproError,
    SimulationError,
    TcpError,
)
from repro.experiments import harness
from repro.experiments.harness import Testbed, TestbedConfig
from repro.l4lb.compact import StatelessConfig
from repro.net.addresses import Endpoint
from repro.net.network import Network
from repro.net.packet import Packet
from repro.qos.config import QosConfig
from repro.sim.events import EventLoop
from repro.sim.random import SeededRng
from repro.tcp.config import TcpConfig


class TestErrorHierarchy:
    @pytest.mark.parametrize("exc", [
        SimulationError, NetworkError, AddressError, TcpError, HttpError,
        HttpParseError, KvStoreError, PolicyError, AssignmentError,
        InfeasibleError, ControllerError,
    ])
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_specific_subtyping(self):
        assert issubclass(AddressError, NetworkError)
        assert issubclass(HttpParseError, HttpError)
        assert issubclass(InfeasibleError, AssignmentError)
        # code that caught the ValueError construction used to raise
        # halfway through still catches the typed refusal
        assert issubclass(ConfigError, ReproError)
        assert issubclass(ConfigError, ValueError)


class TestTcpConfig:
    def test_defaults_match_paper_observations(self):
        config = TcpConfig()
        assert config.syn_rto == 3.0  # Ubuntu SYN timeout (Section 4.2)
        assert config.data_rto_initial == 0.3  # Figure 12(b) retransmits

    @pytest.mark.parametrize("kwargs", [
        {"mss": 0}, {"initial_cwnd_segments": 0},
        {"data_rto_initial": 0}, {"syn_rto": -1}, {"max_retries": 0},
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TcpConfig(**kwargs)

    def test_initial_cwnd_bytes(self):
        assert TcpConfig(mss=1000, initial_cwnd_segments=10).initial_cwnd_bytes \
            == 10_000


class TestCostModel:
    def test_packet_cost_scales_with_size(self):
        model = YodaCostModel()
        small = Packet(src=Endpoint("1.1.1.1", 1), dst=Endpoint("2.2.2.2", 2))
        big = small.copy(payload=b"x" * 1400)
        assert model.packet_cost(big) > model.packet_cost(small)


class TestYodaService:
    @pytest.fixture
    def service(self):
        loop = EventLoop()
        rng = SeededRng(4)
        network = Network(loop, rng)
        return YodaService(loop, network, rng, YodaServiceConfig(
            num_instances=3, num_store_servers=2,
        ))

    def test_wiring_counts(self, service):
        assert len(service.instances) == 3
        assert len(service.store_servers) == 2
        assert len(service.l4lb.muxes) == 4
        assert len(service.controller.instances) == 3

    def test_instance_names_and_ips_unique(self, service):
        names = [i.name for i in service.instances]
        ips = [i.ip for i in service.instances]
        assert len(set(names)) == 3 and len(set(ips)) == 3

    def test_instances_share_cluster_view(self, service):
        views = {id(i.tcpstore.kv.cluster) for i in service.instances}
        assert len(views) == 1

    def test_new_spare_gets_fresh_identity(self, service):
        existing = [i.name for i in service.instances]
        spare = service.new_spare_instance()
        assert spare.name not in existing
        # the spare is a provisioned VM: visible in the fleet list (so
        # chaos targeting can hit it) but parked in the spare pool
        assert spare in service.instances
        assert spare in service.controller.spares

    def test_settle_advances_clock(self, service):
        before = service.loop.now()
        service.settle(2.0)
        assert service.loop.now() == before + 2.0


# one of each yoda-tier plane, for "would be silently ignored" refusals
YODA_ONLY = {
    "qos": QosConfig(),
    "stateless": StatelessConfig(),
    "controllers": ControllerHAConfig(),
    "autoscale": ElasticPolicy(),
    "spare_instances": 1,
    "header_deadline": 1.0,
    "region": RegionConfig("dc2"),
}

# (TestbedConfig keywords, fragment of the ConfigError message)
REFUSED = [
    (dict(corpus="flta"), "unknown corpus 'flta'"),
    (dict(lb="nginx"), "unknown lb kind 'nginx'"),
    *[(dict(lb=lb, yoda=YodaServiceConfig(**{plane: value})), plane)
      for lb in ("haproxy", "none") for plane, value in YODA_ONLY.items()],
    (dict(yoda=YodaServiceConfig(region=RegionConfig("dc2"),
                                 stateless=StatelessConfig(enabled=True))),
     "region and stateless.enabled exclude each other"),
    (dict(yoda=YodaServiceConfig(region=RegionConfig("dc"))),
     "share the site name 'dc'"),
    (dict(num_lb_instances=0), "num_lb_instances must be >= 1"),
    (dict(num_store_servers=0), "num_store_servers must be >= 1"),
    (dict(num_backends=0), "num_backends must be >= 1"),
    (dict(flat_object_count=0), "flat_object_count must be >= 1"),
    (dict(yoda=YodaServiceConfig(spare_instances=-1)),
     "spare_instances must be >= 0"),
    (dict(yoda=YodaServiceConfig(controllers=ControllerHAConfig(replicas=0))),
     "controllers.replicas must be >= 1"),
    # each of these used to raise out of EventLoop.run at the first SYN
    (dict(yoda=YodaServiceConfig(qos=QosConfig(admission_rate=0.0))),
     "qos.admission_rate must be > 0"),
    (dict(yoda=YodaServiceConfig(qos=QosConfig(admission_rate=20.0,
                                               admission_burst=-1.0))),
     "qos.admission_burst must be > 0"),
    (dict(yoda=YodaServiceConfig(qos=QosConfig(admission_rate=20.0,
                                               tier_floors=()))),
     "qos.tier_floors must give tier 0 a floor"),
    # the testbed sizes the tier: a handle that carries another size would
    # be overwritten without a word
    (dict(num_lb_instances=4, num_store_servers=3, num_backends=2,
          yoda=YodaServiceConfig(num_instances=3, num_store_servers=2)),
     "yoda.num_instances=3 conflicts with num_lb_instances=4"),
    (dict(num_store_servers=3, yoda=YodaServiceConfig(num_store_servers=2)),
     "yoda.num_store_servers=2 conflicts with num_store_servers=3"),
]


class TestConfigRejection:
    @pytest.mark.parametrize(
        "kwargs,fragment", REFUSED, ids=[frag for _, frag in REFUSED])
    def test_unworkable_config_is_refused_before_anything_is_built(
            self, kwargs, fragment, monkeypatch):
        # validate() runs before the testbed makes even its event loop:
        # with no loop and no network, no host is attached and no event is
        # pending
        monkeypatch.setattr(harness, "EventLoop", lambda: pytest.fail(
            "Testbed built its world before validate() refused the config"))
        with pytest.raises(ConfigError) as exc:
            Testbed(TestbedConfig(**kwargs))
        assert fragment in str(exc.value)

    def test_yoda_service_validates_before_any_host_is_attached(self):
        loop = EventLoop()
        rng = SeededRng(1)
        network = Network(loop, rng)
        with pytest.raises(ConfigError, match="num_instances must be >= 1"):
            YodaService(loop, network, rng, YodaServiceConfig(num_instances=0))
        assert not list(network.hosts())

    def test_armed_but_disabled_stateless_composes_with_a_region(self):
        # pinned bit-identical by test_stateless_golden's region leg
        TestbedConfig(yoda=YodaServiceConfig(
            region=RegionConfig("dc2"), stateless=StatelessConfig())).validate()

    def test_baseline_leg_refuses_a_region_scenario(self):
        with pytest.raises(ConfigError, match="yoda-only"):
            ScenarioEngine(get_scenario("region-kill"), lb="haproxy").build()


class TestConfigByReference:
    def test_planes_travel_by_reference_and_the_handle_is_not_written(self):
        handle = YodaServiceConfig(qos=QosConfig())
        bed = Testbed(TestbedConfig(
            lb="yoda", num_lb_instances=2, num_store_servers=2,
            num_backends=2, corpus="flat", flat_object_count=2, yoda=handle))
        assert bed.yoda.config.qos is handle.qos
        assert len(bed.yoda.instances) == 2
        assert handle.num_instances == YodaServiceConfig().num_instances

    def test_a_handle_may_carry_the_testbed_sizes(self):
        TestbedConfig(num_lb_instances=4, num_store_servers=3, yoda=(
            YodaServiceConfig(num_instances=4, num_store_servers=3))).validate()

    def test_ablation_switches_do_not_write_the_builtin_scenario(self):
        scenario = get_scenario("region-kill")
        engine = ScenarioEngine(scenario, lb="yoda", repair=False,
                                replication=False)
        engine.build()
        built = engine.bed.yoda.config
        assert not built.self_healing and not built.region.replication
        assert scenario.yoda.self_healing and scenario.yoda.region.replication


# option names that may be declared in more than one config: workload
# sizes, which each layer sizes for itself; ``drain`` (a quiesce window on
# Scenario, drain-vs-instant-removal on ElasticPolicy); and ``yoda``, the
# handle through which Scenario and TestbedConfig reach the one declaration
SHARED_NAMES = {
    "seed", "num_lb_instances", "num_store_servers", "num_backends",
    "num_client_hosts", "client_one_way_latency", "http_timeout",
    "object_bytes", "object_count", "drain", "yoda",
}
CONFIGS = [Scenario, TestbedConfig, YodaServiceConfig, RegionConfig,
           ControllerHAConfig, QosConfig, StatelessConfig, ElasticPolicy]


class TestConfigSurface:
    def test_every_option_is_declared_once(self):
        declared = {}
        for cls in CONFIGS:
            for f in dataclasses.fields(cls):
                declared.setdefault(f.name, []).append(cls.__name__)
        twice = {name: owners for name, owners in declared.items()
                 if len(owners) > 1 and name not in SHARED_NAMES}
        assert not twice, (
            f"declared in more than one config: {twice} -- declare a plane "
            f"option on its own config and carry a handle")

    def test_field_budget(self):
        assert sum(len(dataclasses.fields(c)) for c in CONFIGS) <= 70
