"""Figure 14: safe user-policy updates (make-before-break).

Timeline (paper Section 7.4): three equal-weight backends; at t=10 s the
operator *adds* Srv-4 (make), at t=20 s *removes* Srv-1 (break), at
t=30 s sets weights to Srv-2:Srv-3:Srv-4 = 1:1:2.  Traffic fractions must
track each change, and -- because instances apply new policy versions to
new connections only -- no client flow may break.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.policy import weighted_split
from repro.experiments.harness import ExperimentResult, Testbed, TestbedConfig


def run(
    seed: int = 2016,
    rate: float = 150.0,
    duration: float = 40.0,
    sample_interval: float = 2.0,
) -> ExperimentResult:
    bed = Testbed(TestbedConfig(
        seed=seed, lb="yoda", num_lb_instances=3, num_store_servers=2,
        num_backends=4, corpus="flat", flat_object_bytes=20_000,
    ))
    controller = bed.yoda.controller
    all_backends = bed.policy.backends  # srv-0 .. srv-3

    def set_weights(weights: Dict[str, float]) -> None:
        new_policy = controller.policies[bed.vip].updated(
            rules=[weighted_split("split", "*", weights)]
        )
        controller.update_policy(new_policy)

    # phase 1 (0-10 s): srv-0,1,2 equal; srv-3 ("Srv-4") not yet deployed
    set_weights({"srv-0": 1, "srv-1": 1, "srv-2": 1})
    gen = bed.open_loop(rate)
    t0 = bed.loop.now()

    # make-before-break schedule
    bed.loop.call_later(10.0, set_weights,
                        {"srv-0": 1, "srv-1": 1, "srv-2": 1, "srv-3": 1})
    bed.loop.call_later(20.0, set_weights,
                        {"srv-1": 1, "srv-2": 1, "srv-3": 1})
    bed.loop.call_later(30.0, set_weights,
                        {"srv-1": 1, "srv-2": 1, "srv-3": 2})

    samples: List[dict] = []
    last_counts = {name: b.requests_served for name, b in bed.backends.items()}

    def sample() -> None:
        now = bed.loop.now() - t0
        counts = {name: b.requests_served for name, b in bed.backends.items()}
        delta = {name: counts[name] - last_counts[name] for name in counts}
        last_counts.update(counts)
        total = sum(delta.values()) or 1
        row = {"t_s": round(now, 1)}
        row.update({
            name: round(delta[name] / total, 3) for name in sorted(delta)
        })
        samples.append(row)
        bed.loop.call_later(sample_interval, sample)

    bed.loop.call_later(sample_interval, sample)
    bed.run(duration)
    gen.stop()
    bed.run(2.0)

    result = ExperimentResult(name="Figure 14: policy update traffic fractions")
    result.rows = samples

    def window_avg(name: str, lo: float, hi: float) -> float:
        vals = [s[name] for s in samples if lo < s["t_s"] <= hi]
        return round(sum(vals) / len(vals), 3) if vals else 0.0

    result.summary = {
        "phase1_srv0": window_avg("srv-0", 2, 10),
        "phase2_srv3_joins": window_avg("srv-3", 12, 20),
        "phase3_srv0_drained": window_avg("srv-0", 24, 30),
        "phase4_srv3_double": window_avg("srv-3", 32, 40),
        "broken_requests": gen.failure_count(),
        "paper": ("equal thirds -> equal quarters -> equal thirds without "
                  "srv-1(old) -> 1:1:2; zero broken flows"),
    }
    return result
