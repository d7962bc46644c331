"""Client workload processes.

Two shapes, matching the paper's two tools:

- :class:`ClosedLoopProcess` -- the Python browser emulator: each process
  loads a page (HTML + embedded objects) and "waits for the
  completion/timeout of the previous request before issuing a new one"
  (Section 7.2 runs 20 of these per client machine).
- :class:`OpenLoopGenerator` -- the Apache-bench-like tool: fixed request
  rate of single-object fetches, regardless of completions (Sections 7.1
  and 7.3).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.http.client import BrowserClient, FetchResult, PageLoadResult
from repro.net.addresses import Endpoint
from repro.sim.events import EventLoop
from repro.tcp.endpoint import TcpStack
from repro.workload.website import Website


class ClosedLoopProcess:
    """One browser process issuing page loads back-to-back."""

    def __init__(
        self,
        stack: TcpStack,
        loop: EventLoop,
        target: Endpoint,
        website: Website,
        http_timeout: float = 30.0,
        retries: int = 0,
    ):
        self.loop = loop
        self.website = website
        self.browser = BrowserClient(
            stack, loop, target, http_timeout=http_timeout, retries=retries
        )
        self.results: List[PageLoadResult] = []
        self._running = False

    def start(self) -> None:
        self._running = True
        self._next_page()

    def stop(self) -> None:
        self._running = False

    def _next_page(self) -> None:
        if not self._running:
            return
        page = self.website.random_page()
        self.browser.load_page(page, self.website.objects_of(page), self._done)

    def _done(self, result: PageLoadResult) -> None:
        self.results.append(result)
        self.loop.call_soon(self._next_page)

    # -- analysis ------------------------------------------------------------
    @property
    def pages_loaded(self) -> int:
        return len(self.results)

    @property
    def broken_pages(self) -> int:
        return sum(1 for r in self.results if r.broken)

    def object_results(self) -> List[FetchResult]:
        return [fr for r in self.results for fr in r.object_results]


class OpenLoopGenerator:
    """Apache-bench style: fire single-object GETs at a fixed rate."""

    def __init__(
        self,
        stack: TcpStack,
        loop: EventLoop,
        target: Endpoint,
        rate: float,
        path_fn: Callable[[], str],
        http_timeout: float = 30.0,
        on_result: Optional[Callable[[FetchResult], None]] = None,
    ):
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.stack = stack
        self.loop = loop
        self.target = target
        self.rate = rate
        self.path_fn = path_fn
        self.http_timeout = http_timeout
        self.on_result = on_result
        self.results: List[FetchResult] = []
        self.issued = 0
        self._running = False
        self._browser = BrowserClient(stack, loop, target, http_timeout=http_timeout)

    def start(self) -> None:
        self._running = True
        self._tick()

    def stop(self) -> None:
        self._running = False

    def set_rate(self, rate: float) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.rate = rate

    def _tick(self) -> None:
        if not self._running:
            return
        self.issued += 1
        self._browser.fetch(self.path_fn(), self._done)
        self.loop.call_later(1.0 / self.rate, self._tick)

    def _done(self, result: FetchResult) -> None:
        self.results.append(result)
        if self.on_result is not None:
            self.on_result(result)

    # -- analysis ------------------------------------------------------------
    def ok_count(self) -> int:
        return sum(1 for r in self.results if r.ok)

    def failure_count(self) -> int:
        return sum(1 for r in self.results if not r.ok)

    def latencies(self) -> List[float]:
        return [r.latency for r in self.results if r.ok]
