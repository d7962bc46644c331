"""Seeded randomness for the simulator.

Every stochastic choice in the library (link jitter, workload arrivals,
trace generation, randomized rounding in the assignment solver) draws from a
:class:`SeededRng`, so a run is fully reproducible from its seed.  Components
fork child generators by name so adding randomness to one subsystem does not
perturb another.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import List, Sequence, TypeVar

T = TypeVar("T")


class SeededRng:
    """A named, forkable wrapper around :class:`random.Random`.

    >>> rng = SeededRng(7)
    >>> a = rng.fork("clients").uniform(0, 1)
    >>> b = SeededRng(7).fork("clients").uniform(0, 1)
    >>> a == b
    True
    """

    def __init__(self, seed: int, name: str = "root"):
        self.seed = int(seed)
        self.name = name
        self._random = random.Random(self._derive(seed, name))

    @staticmethod
    def _derive(seed: int, name: str) -> int:
        digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
        return int.from_bytes(digest[:8], "big")

    def fork(self, name: str) -> "SeededRng":
        """Create an independent child generator identified by ``name``."""
        return SeededRng(self.seed, f"{self.name}/{name}")

    # -- thin delegation -------------------------------------------------
    def random(self) -> float:
        return self._random.random()

    def uniform(self, a: float, b: float) -> float:
        return self._random.uniform(a, b)

    def randint(self, a: int, b: int) -> int:
        return self._random.randint(a, b)

    def choice(self, seq: Sequence[T]) -> T:
        return self._random.choice(seq)

    def sample(self, seq: Sequence[T], k: int) -> List[T]:
        return self._random.sample(seq, k)

    def gauss(self, mu: float, sigma: float) -> float:
        return self._random.gauss(mu, sigma)

    def expovariate(self, rate: float) -> float:
        return self._random.expovariate(rate)

    def lognormal(self, mu: float, sigma: float) -> float:
        return self._random.lognormvariate(mu, sigma)

    def weighted_choice(self, items: Sequence[T], weights: Sequence[float]) -> T:
        """Pick one item with probability proportional to its weight."""
        return self._random.choices(list(items), weights=list(weights), k=1)[0]

    def zipf_weights(self, n: int, skew: float = 1.0) -> List[float]:
        """Normalized Zipf popularity weights for ranks 1..n."""
        raw = [1.0 / (rank**skew) for rank in range(1, n + 1)]
        total = math.fsum(raw)
        return [w / total for w in raw]



def stable_hash32(text: str, salt: str = "") -> int:
    """Process-independent 32-bit hash of ``text`` (unlike built-in hash()).

    Used wherever the paper requires every node to compute the *same* value
    from the same inputs: SYN-ACK sequence numbers (Section 4.1) and the
    L4 mux / Memcached consistent-hash rings.
    """
    digest = hashlib.sha256(f"{salt}:{text}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def stable_hash64(text: str, salt: str = "") -> int:
    """Process-independent 64-bit hash of ``text``."""
    digest = hashlib.sha256(f"{salt}:{text}".encode()).digest()
    return int.from_bytes(digest[:8], "big")
