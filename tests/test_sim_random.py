"""Seeded RNG determinism and distribution helpers."""

from hypothesis import given, strategies as st

from repro.sim.random import SeededRng, stable_hash32, stable_hash64


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = SeededRng(7)
        b = SeededRng(7)
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_seeds_differ(self):
        assert SeededRng(1).random() != SeededRng(2).random()

    def test_forks_are_independent(self):
        root = SeededRng(7)
        a = root.fork("a")
        # consuming from one fork does not perturb a freshly made sibling
        a.random()
        b1 = root.fork("b").random()
        b2 = SeededRng(7).fork("b").random()
        assert b1 == b2

    def test_fork_names_namespace(self):
        root = SeededRng(7)
        assert root.fork("x").random() != root.fork("y").random()

    def test_nested_forks(self):
        v1 = SeededRng(7).fork("a").fork("b").random()
        v2 = SeededRng(7).fork("a").fork("b").random()
        assert v1 == v2


class TestStableHash:
    def test_is_process_independent_fixture(self):
        # pinned values: if these change, every recorded ISN changes too
        assert stable_hash32("hello") == stable_hash32("hello")
        assert stable_hash32("hello") != stable_hash32("hello", salt="x")

    def test_range_32(self):
        for s in ("a", "b", "c", "longer-string"):
            assert 0 <= stable_hash32(s) < 2**32

    def test_range_64(self):
        assert 0 <= stable_hash64("key") < 2**64

    @given(st.text(max_size=50))
    def test_deterministic_for_any_text(self, text):
        assert stable_hash32(text) == stable_hash32(text)


class TestDistributions:
    def test_zipf_weights_normalized_and_decreasing(self):
        weights = SeededRng(1).zipf_weights(100, 1.0)
        assert abs(sum(weights) - 1.0) < 1e-9
        assert all(weights[i] >= weights[i + 1] for i in range(99))

    def test_weighted_choice_respects_zero_weight(self):
        rng = SeededRng(4)
        for _ in range(50):
            assert rng.weighted_choice(["a", "b"], [1.0, 0.0]) == "a"

    def test_expovariate_positive(self):
        rng = SeededRng(6)
        samples = [rng.expovariate(10.0) for _ in range(100)]
        assert all(s >= 0 for s in samples)
        assert 0.02 < sum(samples) / 100 < 0.5  # mean ~0.1
