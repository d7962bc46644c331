"""Workloads: corpora, website popularity, clients, the 24 h trace."""

import math

from repro.sim.random import SeededRng
from repro.workload.objects import (
    MAX_OBJECT_BYTES, MIN_OBJECT_BYTES, build_flat_corpus, build_university_site,
)
from repro.workload.trace import TraceConfig, generate_trace, uniform_instances
from repro.workload.website import Website


class TestObjectCorpus:
    def test_university_site_size_distribution(self):
        corpus = build_university_site(SeededRng(1), num_pages=300)
        sizes = sorted(
            corpus.site.size_of(p) for p in corpus.site.paths()
        )
        assert all(MIN_OBJECT_BYTES <= s <= MAX_OBJECT_BYTES for s in sizes)
        median = sizes[len(sizes) // 2]
        # paper: median 46 KB; allow generator tolerance
        assert 15_000 < median < 90_000

    def test_pages_have_objects(self):
        corpus = build_university_site(SeededRng(1), num_pages=50)
        assert len(corpus.pages) == 50
        for page, objects in corpus.pages.items():
            assert corpus.site.size_of(page) is not None
            assert 3 <= len(objects) <= 12

    def test_deterministic_for_seed(self):
        c1 = build_university_site(SeededRng(9), num_pages=20)
        c2 = build_university_site(SeededRng(9), num_pages=20)
        assert c1.page_paths() == c2.page_paths()
        assert all(c1.site.size_of(p) == c2.site.size_of(p)
                   for p in c1.site.paths())

    def test_flat_corpus(self):
        corpus = build_flat_corpus(SeededRng(1), 10, size=1234)
        assert corpus.object_count == 10
        assert all(corpus.site.size_of(p) == 1234 for p in corpus.site.paths())


class TestWebsite:
    def test_popular_pages_requested_more(self):
        corpus = build_university_site(SeededRng(2), num_pages=50)
        site = Website(corpus, SeededRng(2))
        counts = {}
        for _ in range(3000):
            page = site.random_page()
            counts[page] = counts.get(page, 0) + 1
        ordered = sorted(counts.values(), reverse=True)
        assert ordered[0] > ordered[-1] * 3  # zipf skew visible

    def test_random_object_belongs_to_corpus(self):
        corpus = build_university_site(SeededRng(2), num_pages=10)
        site = Website(corpus, SeededRng(2))
        for _ in range(50):
            assert corpus.site.size_of(site.random_object()) is not None


class TestTrace:
    def test_marginals_match_paper(self):
        trace = generate_trace(SeededRng(2016))
        assert len(trace.vips) >= 100
        assert trace.total_rules() >= 50_000
        ratios = list(trace.max_to_avg_all().values())
        mean_ratio = sum(ratios) / len(ratios)
        assert 2.5 < mean_ratio < 6.0  # paper: 3.7
        assert min(ratios) < 1.3  # paper: 1.07
        assert max(ratios) > 15  # paper: 50.3

    def test_deterministic(self):
        t1 = generate_trace(SeededRng(7))
        t2 = generate_trace(SeededRng(7))
        assert t1.traffic == t2.traffic
        assert t1.rules == t2.rules

    def test_interval_specs_feasible_shares(self):
        trace = generate_trace(SeededRng(7))
        capacity = 300.0
        for interval in (0, 71, 143):
            for spec in trace.interval_vip_specs(interval, capacity,
                                                 max_replicas=12):
                assert spec.per_instance_share <= capacity + 1e-9

    def test_interval_specs_respect_replica_formula(self):
        trace = generate_trace(SeededRng(7))
        capacity = 300.0
        specs = trace.interval_vip_specs(0, capacity)
        for spec in specs:
            t_v = trace.traffic[spec.name][0]
            assert spec.replicas >= min(
                max(1, math.ceil(4 * t_v / capacity)), 10**9
            ) or spec.replicas >= 1

    def test_vips_by_volume_sorted(self):
        trace = generate_trace(SeededRng(7))
        ordered = trace.vips_by_volume()
        volumes = [sum(trace.traffic[v]) for v in ordered]
        assert volumes == sorted(volumes, reverse=True)

    def test_rules_capped_below_instance_capacity(self):
        trace = generate_trace(SeededRng(7))
        assert max(trace.rules.values()) <= 1800

    def test_uniform_instances(self):
        pool = uniform_instances(5, 300.0, 2000)
        assert len(pool) == 5
        assert all(i.traffic_capacity == 300.0 for i in pool)

    def test_custom_config(self):
        cfg = TraceConfig(num_vips=20, intervals=24, total_rules_target=5000)
        trace = generate_trace(SeededRng(1), cfg)
        assert len(trace.vips) == 20
        assert trace.intervals == 24
