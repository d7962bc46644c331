"""A browsable website: corpus + popularity distribution."""

from __future__ import annotations

from typing import List

from repro.sim.random import SeededRng
from repro.workload.objects import ObjectCorpus


class Website:
    """Wraps a corpus with Zipf page popularity for client workloads."""

    def __init__(self, corpus: ObjectCorpus, rng: SeededRng, zipf_skew: float = 0.9):
        self.corpus = corpus
        self._rng = rng.fork("website")
        self._pages = corpus.page_paths()
        if not self._pages:
            raise ValueError("corpus has no pages")
        self._weights = self._rng.zipf_weights(len(self._pages), zipf_skew)

    @property
    def pages(self) -> List[str]:
        return list(self._pages)

    def random_page(self) -> str:
        return self._rng.weighted_choice(self._pages, self._weights)

    def objects_of(self, page: str) -> List[str]:
        return list(self.corpus.pages.get(page, []))

    def random_object(self) -> str:
        """A single object path (for ab-style single-fetch workloads)."""
        page = self.random_page()
        objects = self.corpus.pages.get(page)
        if objects:
            return self._rng.choice(objects)
        return page
