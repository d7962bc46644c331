"""Sim-time profiler: where does simulated CPU go?

``repro.sim.cpu.CpuModel`` charges every piece of work a simulated cost
(packet processing, rule scans, KV ops, splicing).  When the observability
plane is enabled, each ``execute()`` reports its service time here, tagged
``(component, phase)`` -- and the profiler renders a top table and a text
flamegraph of simulated CPU seconds, the simulation's answer to "which
component ate the budget".

Aggregation is two plain dict updates per sample: O(1), allocation-free
after warmup, and (like the rest of the plane) never touches the event
loop.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

BAR_WIDTH = 40


class SimProfiler:
    """Accumulates simulated CPU seconds per (component, phase)."""

    def __init__(self):
        self._seconds: Dict[Tuple[str, str], float] = {}
        self._calls: Dict[Tuple[str, str], int] = {}

    def add(self, component: str, phase: str, seconds: float) -> None:
        key = (component, phase)
        self._seconds[key] = self._seconds.get(key, 0.0) + seconds
        self._calls[key] = self._calls.get(key, 0) + 1

    # -------------------------------------------------------------- reads --
    def total(self) -> float:
        return sum(self._seconds.values())

    def rows(self) -> List[Dict]:
        """Per-(component, phase) rows, hottest first."""
        out = [
            {
                "component": comp,
                "phase": phase,
                "cpu_seconds": secs,
                "calls": self._calls[(comp, phase)],
            }
            for (comp, phase), secs in self._seconds.items()
        ]
        out.sort(key=lambda r: -r["cpu_seconds"])
        return out

    def by_component(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for (comp, _), secs in self._seconds.items():
            out[comp] = out.get(comp, 0.0) + secs
        return out

    # ----------------------------------------------------------- renderers --
    def top_table(self) -> str:
        rows = self.rows()[:20]
        if not rows:
            return "(no simulated CPU recorded)"
        total = self.total() or 1.0
        lines = [
            f"{'component':<20} {'phase':<14} {'cpu s':>10} {'calls':>9} {'%':>6}",
            "-" * 63,
        ]
        for r in rows:
            lines.append(
                f"{r['component']:<20} {r['phase']:<14} "
                f"{r['cpu_seconds']:>10.4f} {r['calls']:>9} "
                f"{100.0 * r['cpu_seconds'] / total:>5.1f}%"
            )
        lines.append("-" * 63)
        lines.append(f"{'total':<35} {self.total():>10.4f}")
        return "\n".join(lines)

    def flamegraph(self) -> str:
        """Two-level text flamegraph: component bars, phase sub-bars."""
        by_comp = self.by_component()
        if not by_comp:
            return "(no simulated CPU recorded)"
        total = self.total() or 1.0
        lines: List[str] = []
        for comp in sorted(by_comp, key=lambda c: -by_comp[c]):
            comp_secs = by_comp[comp]
            bar = "#" * max(1, round(BAR_WIDTH * comp_secs / total))
            lines.append(f"{comp:<22} {bar:<{BAR_WIDTH}} {comp_secs:.4f}s")
            phases = {
                phase: secs
                for (c, phase), secs in self._seconds.items()
                if c == comp
            }
            for phase in sorted(phases, key=lambda p: -phases[p]):
                sub = "=" * max(1, round(BAR_WIDTH * phases[phase] / total))
                lines.append(
                    f"  {phase:<20} {sub:<{BAR_WIDTH}} {phases[phase]:.4f}s"
                )
        return "\n".join(lines)
