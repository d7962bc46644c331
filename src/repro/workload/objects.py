"""Synthetic web-object corpus matching the paper's crawl statistics.

Section 7 ("Setup"): four online services, each emulating a university
website of faculty/student pages with embedded objects; 10K+ objects total,
sizes 1 KB-442 KB with a 46 KB median.  Sizes here are lognormal (the
canonical web-object size distribution), clipped to the paper's range and
centered on its median.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.http.server import StaticSite
from repro.sim.random import SeededRng

MIN_OBJECT_BYTES = 1_000
MAX_OBJECT_BYTES = 442_000
MEDIAN_OBJECT_BYTES = 46_000


@dataclass
class ObjectCorpus:
    """A set of pages, each with embedded objects."""

    site: StaticSite
    pages: Dict[str, List[str]] = field(default_factory=dict)  # html -> objects

    @property
    def object_count(self) -> int:
        return len(self.site)

    def page_paths(self) -> List[str]:
        return list(self.pages)

    def total_bytes(self) -> int:
        return sum(self.site.size_of(p) or 0 for p in self.site.paths())



def _sample_object_size(rng: SeededRng) -> int:
    """Lognormal centered on the paper's 46 KB median, clipped to
    [1 KB, 442 KB]."""
    mu = math.log(MEDIAN_OBJECT_BYTES)
    size = int(rng.lognormal(mu, 1.0))
    return max(MIN_OBJECT_BYTES, min(MAX_OBJECT_BYTES, size))


def build_university_site(
    rng: SeededRng,
    num_pages: int = 200,
    objects_per_page: Tuple[int, int] = (3, 12),
    prefix: str = "",
) -> ObjectCorpus:
    """Build one emulated university website.

    Each page is an HTML document (small) plus several embedded objects
    (images/CSS/JS with the crawl's size distribution).  Paths are stable
    for a given seed.
    """
    site = StaticSite()
    pages: Dict[str, List[str]] = {}
    kinds = ["jpg", "png", "css", "js", "gif"]
    for p in range(num_pages):
        person = "faculty" if p % 3 == 0 else "student"
        page_path = f"{prefix}/{person}/u{p}/index.html"
        html_size = max(MIN_OBJECT_BYTES, int(rng.lognormal(math.log(8_000), 0.6)))
        site.add(page_path, min(html_size, MAX_OBJECT_BYTES))
        objects: List[str] = []
        for o in range(rng.randint(*objects_per_page)):
            kind = rng.choice(kinds)
            obj_path = f"{prefix}/{person}/u{p}/obj{o}.{kind}"
            site.add(obj_path, _sample_object_size(rng))
            objects.append(obj_path)
        pages[page_path] = objects
    return ObjectCorpus(site=site, pages=pages)


def build_flat_corpus(rng: SeededRng, num_objects: int,
                      size: int = 10_000, prefix: str = "/obj") -> ObjectCorpus:
    """Uniform small-object corpus for the latency/CPU stress experiments
    (Section 7.1 uses 10 KB responses)."""
    site = StaticSite()
    pages: Dict[str, List[str]] = {}
    for i in range(num_objects):
        path = f"{prefix}/{i}.bin"
        site.add(path, size)
        pages[path] = []
    return ObjectCorpus(site=site, pages=pages)
