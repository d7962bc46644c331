"""Synthetic 24-hour production traffic trace (paper Section 8 setup).

The paper's trace is proprietary; its published aggregates parameterize
this generator: 100+ VIPs, 50K+ L7 rules total, 10-minute intervals over
24 hours, and per-VIP max-to-average traffic ratios spanning 1.07x-50.3x
with a ~3.7x mean (Figure 15 -- the quantity that *is* the cost-saving
result, so reproducing its marginals reproduces the analysis).

Per-VIP profiles mix three archetypes:
- steady diurnal (sinusoid, small amplitude) -> ratios near 1.1-2x;
- peaky diurnal (large amplitude + noise) -> ratios 2-6x;
- bursty (flash crowds on a low base) -> ratios up to ~50x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.assignment.problem import InstanceSpec, VipSpec
from repro.sim.random import SeededRng


@dataclass
class TraceConfig:
    num_vips: int = 100
    intervals: int = 144  # 24 h of 10-minute windows
    interval_seconds: float = 600.0
    total_rules_target: int = 70_000
    # aggregate traffic scale (arbitrary units; capacities use the same)
    base_traffic_scale: float = 100.0
    zipf_skew: float = 1.1
    steady_fraction: float = 0.55
    peaky_fraction: float = 0.30  # remainder is bursty


@dataclass
class ProductionTrace:
    """Per-VIP, per-interval traffic plus per-VIP rule counts."""

    config: TraceConfig
    vips: List[str]
    traffic: Dict[str, List[float]]  # vip -> per-interval traffic
    rules: Dict[str, int]
    profiles: Dict[str, str] = field(default_factory=dict)

    @property
    def intervals(self) -> int:
        return self.config.intervals

    def total_rules(self) -> int:
        return sum(self.rules.values())

    def traffic_at(self, interval: int) -> Dict[str, float]:
        return {v: self.traffic[v][interval] for v in self.vips}

    def max_to_avg(self, vip: str) -> float:
        series = self.traffic[vip]
        avg = sum(series) / len(series)
        return max(series) / avg if avg > 0 else 1.0

    def max_to_avg_all(self) -> Dict[str, float]:
        return {v: self.max_to_avg(v) for v in self.vips}

    def vips_by_volume(self) -> List[str]:
        """VIPs sorted by total traffic, descending (Fig. 15's x-axis)."""
        return sorted(self.vips, key=lambda v: -sum(self.traffic[v]))

    def interval_vip_specs(
        self,
        interval: int,
        instance_capacity: float,
        replica_factor: float = 4.0,
        oversub: float = 0.25,
        max_replicas: Optional[int] = None,
    ) -> List[VipSpec]:
        """Build the assignment problem's VIP specs for one interval.

        Section 8 sets n_v = 4 * t_v / T_y ("4x more redundancy than using
        YODA individually"), with at least 2 replicas.
        """
        specs = []
        for vip in self.vips:
            t_v = self.traffic[vip][interval]
            if t_v <= 0:
                continue
            n_v = max(1, math.ceil(replica_factor * t_v / instance_capacity))
            if max_replicas is not None:
                n_v = min(n_v, max_replicas)
            # feasibility floor: the per-instance share after f_v failures,
            # t_v / (n_v - f_v), must fit one instance's capacity
            feasible_n = math.ceil(t_v / (instance_capacity * (1.0 - oversub)))
            n_v = max(n_v, feasible_n, 1)
            specs.append(VipSpec(
                name=vip, traffic=t_v, rules=self.rules[vip],
                replicas=n_v, oversub=oversub,
            ))
        return specs


def _rule_count(rng: SeededRng, target_mean: float) -> int:
    """Heavy-tailed rules per VIP ("billions of URLs and cookies" for the
    big tenants, a handful for small ones)."""
    sigma = 1.1
    mu = math.log(target_mean) - sigma * sigma / 2.0
    # cap below the Section 8 per-instance rule capacity (R_y = 2K) so
    # every VIP is placeable
    return max(5, min(1_800, int(rng.lognormal(mu, sigma))))


def generate_trace(rng: SeededRng, config: Optional[TraceConfig] = None) -> ProductionTrace:
    cfg = config or TraceConfig()
    rng = rng.fork("trace")
    vips = [f"vip-{i:03d}" for i in range(cfg.num_vips)]
    weights = rng.zipf_weights(cfg.num_vips, cfg.zipf_skew)

    rules: Dict[str, int] = {}
    mean_rules = cfg.total_rules_target / cfg.num_vips
    for vip in vips:
        rules[vip] = _rule_count(rng, mean_rules)

    traffic: Dict[str, List[float]] = {}
    profiles: Dict[str, str] = {}
    for vip, weight in zip(vips, weights):
        base = cfg.base_traffic_scale * weight * cfg.num_vips
        roll = rng.random()
        if roll < cfg.steady_fraction:
            profiles[vip] = "steady"
            series = _diurnal(rng, cfg.intervals, base,
                              amplitude=rng.uniform(0.02, 0.35), noise=0.04)
        elif roll < cfg.steady_fraction + cfg.peaky_fraction:
            profiles[vip] = "peaky"
            series = _diurnal(rng, cfg.intervals, base,
                              amplitude=rng.uniform(0.5, 0.95), noise=0.15)
        else:
            profiles[vip] = "bursty"
            series = _bursty(rng, cfg.intervals, base)
        traffic[vip] = series
    return ProductionTrace(config=cfg, vips=vips, traffic=traffic,
                           rules=rules, profiles=profiles)


def _diurnal(rng: SeededRng, n: int, base: float,
             amplitude: float, noise: float) -> List[float]:
    phase = rng.uniform(0, 2 * math.pi)
    out = []
    for i in range(n):
        level = 1.0 + amplitude * math.sin(2 * math.pi * i / n + phase)
        level *= max(0.1, 1.0 + rng.gauss(0, noise))
        out.append(base * level)
    return out


def _bursty(rng: SeededRng, n: int, base: float) -> List[float]:
    """Low steady floor with a few flash crowds (max/avg can reach ~50x)."""
    floor = base * rng.uniform(0.05, 0.3)
    out = [floor * max(0.2, 1.0 + rng.gauss(0, 0.1)) for _ in range(n)]
    bursts = rng.randint(1, 4)
    for _ in range(bursts):
        center = rng.randint(0, n - 1)
        width = rng.randint(1, 6)
        height = floor * rng.uniform(8, 160)
        for i in range(max(0, center - width), min(n, center + width + 1)):
            falloff = 1.0 - abs(i - center) / (width + 1)
            out[i] = max(out[i], height * falloff)
    return out


# ---------------------------------------------------------------------------
# Diurnal + flash-crowd load trace (sized in modeled *users*, then
# compressed onto simulation time)
# ---------------------------------------------------------------------------

@dataclass
class DiurnalConfig:
    """A population-scale day of traffic, compressed for simulation.

    The modeled side is millions of users on a 24 h cycle; the simulated
    side plays the same *shape* in ``sim_seconds`` of virtual time with
    ``sim_fraction`` of the modeled request rate, so the generator also
    serves the future autoscaler experiment at full modeled scale.
    """

    seed: int = 2016
    users: int = 2_000_000  # modeled population
    requests_per_user_hour: float = 6.0  # each, while active
    diurnal_amplitude: float = 0.55  # peak/trough swing around the mean
    peak_hour: float = 20.0  # evening peak, like the paper's Figure 15
    # flash crowds: (start as a fraction of the day, rate multiplier at
    # the spike, width as a fraction of the day)
    flash_crowds: Tuple[Tuple[float, float, float], ...] = (
        (0.35, 3.0, 0.04),
        (0.70, 5.0, 0.02),
    )
    noise: float = 0.03  # multiplicative per-interval jitter
    # compression onto simulation time
    sim_seconds: float = 40.0  # virtual seconds covering the whole day
    interval_seconds: float = 2.0  # rate-update cadence (sim time)
    sim_fraction: float = 2e-4  # fraction of modeled rps actually issued

    @property
    def modeled_base_rps(self) -> float:
        return self.users * self.requests_per_user_hour / 3600.0

    @property
    def num_intervals(self) -> int:
        return max(1, int(round(self.sim_seconds / self.interval_seconds)))


@dataclass
class DiurnalTrace:
    """Per-interval request rates: modeled (population) and simulated."""

    config: DiurnalConfig
    times: List[float]  # sim-time start of each interval
    modeled_rps: List[float]
    sim_rates: List[float]

    def rate_at(self, sim_time: float) -> float:
        """Simulated request rate in force at ``sim_time``."""
        idx = min(len(self.sim_rates) - 1,
                  max(0, int(sim_time / self.config.interval_seconds)))
        return self.sim_rates[idx]

    def peak_to_mean(self) -> float:
        mean = sum(self.modeled_rps) / len(self.modeled_rps)
        return max(self.modeled_rps) / mean if mean > 0 else 1.0


def diurnal_shape(cfg: DiurnalConfig, day_fraction: float) -> float:
    """The deterministic rate multiplier at a point in the day ([0, 1))."""
    hour = (day_fraction * 24.0) % 24.0
    level = 1.0 + cfg.diurnal_amplitude * math.cos(
        2 * math.pi * (hour - cfg.peak_hour) / 24.0)
    for start, magnitude, width in cfg.flash_crowds:
        if width <= 0:
            continue
        dist = abs(day_fraction - start)
        if dist < width:
            # triangular spike peaking at `magnitude` times the base
            level = max(level, magnitude * (1.0 - dist / width))
    return max(0.05, level)


def generate_diurnal_trace(
        config: Optional[DiurnalConfig] = None) -> DiurnalTrace:
    """Build the compressed day.  Same config => same trace, bit-for-bit."""
    cfg = config or DiurnalConfig()
    rng = SeededRng(cfg.seed).fork("diurnal")
    times: List[float] = []
    modeled: List[float] = []
    sim_rates: List[float] = []
    base = cfg.modeled_base_rps
    for i in range(cfg.num_intervals):
        t = i * cfg.interval_seconds
        frac = (t + 0.5 * cfg.interval_seconds) / cfg.sim_seconds
        level = diurnal_shape(cfg, frac)
        if cfg.noise > 0:
            level *= max(0.2, 1.0 + rng.gauss(0, cfg.noise))
        rps = base * level
        times.append(t)
        modeled.append(rps)
        sim_rates.append(max(0.5, rps * cfg.sim_fraction))
    return DiurnalTrace(config=cfg, times=times, modeled_rps=modeled,
                        sim_rates=sim_rates)


def uniform_instances(count: int, traffic_capacity: float,
                      rule_capacity: int) -> List[InstanceSpec]:
    """Homogeneous instance pool (the paper's instances are identical VMs)."""
    return [
        InstanceSpec(f"yoda-{i:03d}", traffic_capacity, rule_capacity)
        for i in range(count)
    ]
